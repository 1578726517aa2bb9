"""In-process MPI-like rank simulator.

The paper implements global pruning (Algorithm 1) over MPI ranks with
NCCL P2P send/recv.  There is no MPI in this environment, so
:class:`SimWorld` runs one Python thread per rank with blocking
send/recv over queues — the same SPMD dataflow, testable in-process.

Also provides ``split`` mirroring ``ncclCommSplit`` (section 3.4.2):
after re-packing, active GPUs join one sub-communicator and idle GPUs
another, so the active group can proceed without deadlock.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Sequence


class SimWorld:
    """A fixed-size world of simulated ranks."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("world size must be positive")
        self.size = size
        self._lock = threading.Lock()
        self._mailboxes: dict[tuple, queue.Queue] = {}
        self._barriers: dict[str, threading.Barrier] = {}
        self._shared: dict[str, Any] = {}
        # every run() namespaces its traffic with a generation id so a
        # timed-out run's stragglers (threads still blocked on recv,
        # undelivered messages, half-full barriers) can never be
        # observed by a later run.
        self._generation = 0

    def __deepcopy__(self, memo: dict) -> "SimWorld":
        # locks/queues/barriers can't be copied, and don't need to be:
        # every run() namespaces its traffic under a fresh generation,
        # so a brand-new world of the same size is indistinguishable.
        # This keeps schemes that embed a world (e.g. the global
        # magnitude pruner) deep-copyable.
        clone = SimWorld(self.size)
        memo[id(self)] = clone
        return clone

    # -- plumbing ---------------------------------------------------------
    def _box(self, key: tuple) -> queue.Queue:
        with self._lock:
            if key not in self._mailboxes:
                self._mailboxes[key] = queue.Queue()
            return self._mailboxes[key]

    def _barrier(self, name: str, parties: int) -> threading.Barrier:
        with self._lock:
            if name not in self._barriers:
                self._barriers[name] = threading.Barrier(parties)
            return self._barriers[name]

    # -- execution ----------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args, timeout: float = 60.0) -> list[Any]:
        """Execute ``fn(comm, *args)`` on every rank; return per-rank results.

        Any rank exception is re-raised in the caller after all threads
        finish (deadlock protection via ``timeout``).
        """
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size
        with self._lock:
            self._generation += 1
            gen = self._generation
            # drop previous generations' mailboxes/barriers so a
            # long-lived world doesn't accumulate dead queues; stragglers
            # hold their own references and can never reach the new
            # namespace anyway
            self._mailboxes = {}
            self._barriers = {}

        # Event-based completion: every finishing worker (success or
        # error) bumps the finished counter and sets ``wake``, so the
        # watcher reacts immediately instead of sleep-polling at 5 ms
        # granularity (which cost ~25 ms of pure latency per
        # global-prune round).  The counter — not Thread.is_alive() —
        # is the loop condition: it is bumped before the event is set,
        # so a wakeup can never be lost to a thread that is signalled
        # but not yet reaped.
        wake = threading.Event()
        finished = [0]
        count_lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = SimComm(
                self, rank, ns=f"g{gen}:world", ranks=list(range(self.size))
            )
            try:
                results[rank] = fn(comm, *args)
            except BaseException as exc:  # noqa: BLE001 - report to caller
                errors[rank] = exc
            finally:
                with count_lock:
                    finished[0] += 1
                wake.set()

        # daemon: stragglers of a timed-out run (threads still parked
        # on a recv or half-full barrier) must never block process exit
        threads = [
            threading.Thread(target=worker, args=(r,), daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        while finished[0] < self.size:
            if any(e is not None for e in errors):
                # one rank failed: peers may be parked on traffic that
                # will never arrive.  Give them a short grace period,
                # then abandon them — their generation's namespace is
                # dead, so late sends/receives cannot reach later runs.
                grace = time.monotonic() + 0.2
                for t in threads:
                    t.join(timeout=max(0.0, grace - time.monotonic()))
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    "SimWorld.run: ranks did not finish (deadlock?)"
                )
            wake.wait(remaining)
            wake.clear()
        # the watch loop only breaks once a rank recorded an error, so
        # leaving it with the counter at world size means success
        for exc in errors:
            if exc is not None:
                raise exc
        return results


class SimComm:
    """Per-rank communicator handle (MPI-lowercase-style object API)."""

    def __init__(self, world: SimWorld, rank: int, ns: str, ranks: list[int]) -> None:
        self.world = world
        self.ns = ns
        self._world_ranks = ranks  # new_rank -> world rank
        self.rank = rank
        self.size = len(ranks)

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        key = (self.ns, self.rank, dest, tag)
        self.world._box(key).put(obj)

    def recv(self, source: int, tag: int = 0, timeout: float = 30.0) -> Any:
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        key = (self.ns, source, self.rank, tag)
        try:
            return self.world._box(key).get(timeout=timeout)
        except queue.Empty as exc:
            raise TimeoutError(
                f"recv timeout: rank {self.rank} from {source} tag {tag}"
            ) from exc

    # -- collectives -----------------------------------------------------
    def barrier(self, name: str = "b") -> None:
        self.world._barrier(f"{self.ns}:{name}", self.size).wait()

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        if self.rank == root:
            out = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, tag=101)
            return out
        self.send(obj, root, tag=101)
        return None

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must pass one object per rank")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag=102)
            return objs[root]
        return self.recv(root, tag=102)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(obj, dst, tag=103)
            return obj
        return self.recv(root, tag=103)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Gather-to-root + reduce + broadcast (semantically exact)."""
        import functools

        gathered = self.gather(value, root=0)
        if self.rank == 0:
            if op is None:
                result = sum(gathered[1:], gathered[0])
            else:
                result = functools.reduce(op, gathered)
        else:
            result = None
        return self.bcast(result, root=0)

    # -- communicator split (ncclCommSplit analogue) -------------------------
    def split(self, color: int, key: int | None = None) -> "SimComm | None":
        """All ranks call with a color; ranks of the same color form a
        new communicator.  color < 0 means "do not participate" (NCCL's
        NCCL_SPLIT_NOCOLOR) and returns None."""
        me = (color, key if key is not None else self.rank, self.rank)
        gathered = self.gather(me, root=0)
        if self.rank == 0:
            groups: dict[int, list[tuple]] = {}
            for c, k, r in gathered:
                if c >= 0:
                    groups.setdefault(c, []).append((k, r))
            plan = {
                c: [r for _, r in sorted(members)] for c, members in groups.items()
            }
        else:
            plan = None
        plan = self.bcast(plan, root=0)
        if color < 0:
            return None
        members = plan[color]
        new_ns = f"{self.ns}/split:{color}:{','.join(map(str, members))}"
        return SimComm(self.world, members.index(self.rank), new_ns, members)
