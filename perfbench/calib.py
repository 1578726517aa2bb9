"""A fixed reference computation that times the host, not the program.

The benchmark runs on shared hosts whose speed drifts, by up to 2×
within seconds and for minutes at a time, because other tenants load
the same cores and caches.  A run's median over its repetitions
removes short slowdowns; it cannot remove one that lasts the whole run.
So each repetition also times short chunks of this reference while its
workload runs, interleaved with it on the same CPU: a ``SIGPROF``
interval timer runs one chunk after each ``PERIOD_S`` seconds of the
process's CPU time, in the repetition's process and in each pool
worker it forks.  Its time is then scaled by

    REF_NOMINAL_S / mean seconds of the chunks timed while it ran

which reads it as seconds on a host where a chunk takes
``REF_NOMINAL_S``.  One chunk is short and noisy; the mean over the
dozens timed during a repetition follows the host's speed over the
same stretch of time, on the same CPUs, that the workload ran on.
The chunks stay in the measured time and add about 7% to it, alike on
every commit.

The reference uses nothing from ``repro``: a change to the program
moves the workload's time but not the reference's, so it shows in
full.  Most of the host's drift is contention for the memory system,
so about 60% of a chunk is random reads from a 2 MB table; the rest
resembles the simulator's own mix: an event heap and dict updates in
plain Python, small NumPy array operations, and building and indexing
small objects.  A test on a 2-vCPU shared host alternated candidate
chunks with short DynMo runs and batched static runs in one process.
Over windows of four to eight seconds, the time of a mix like this one
tracked theirs with correlation 0.87-0.92 (log-log slope 1.1-1.2),
and dividing by it halved their spread; without the table the mix
tracked with correlation 0.5-0.85.  A chunk timed on a separate thread
tracked worse than none: it ran on the other CPU, whose contention
differs.  The table adds about 2.3 MB to the peak memory of every
process that samples.
"""

from __future__ import annotations

import functools
import heapq
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import Any, TextIO

import numpy as np

#: about the mean seconds of a chunk interleaved with a workload on the
#: host the bounds were set on (2-vCPU shared microVM, CPython 3.11)
REF_NOMINAL_S = 0.008
#: CPU seconds of the process from the end of one sampled chunk to the next
PERIOD_S = 0.1


class _Node:
    __slots__ = ("key", "weight", "attrs")

    def __init__(self, key: int, weight: float, attrs: dict[str, int]) -> None:
        self.key = key
        self.weight = weight
        self.attrs = attrs


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """A 2 MB table of floats and 64 Ki random indices into it."""
    rng = np.random.default_rng(1234)
    return rng.random(1 << 18), rng.integers(0, 1 << 18, 1 << 16, dtype=np.int32)


def chunk() -> float:
    """One reference chunk: a fixed amount of work."""
    rng = random.Random(1234)
    heap = [(rng.random(), i) for i in range(256)]
    heapq.heapify(heap)
    acc: dict[int, float] = {}
    for _ in range(750):
        t, i = heapq.heappop(heap)
        acc[i % 97] = acc.get(i % 97, 0.0) + t
        heapq.heappush(heap, (t + rng.random(), i))
    a = np.linspace(0.0, 1.0, 48)
    total = 0.0
    for _ in range(80):
        b = np.cumsum(a)
        a = np.maximum(a * 0.999, b[::-1] / b[-1])
        total += float(a[int(a.argmax())])
    nodes = {n.key: n for n in (_Node(i, float(i), {"k": i}) for i in range(600))}
    total += sum(nodes[i].weight for i in range(0, 600, 3))
    table, index = _table()
    for _ in range(8):
        total += float(table[index].sum())
    return total + sum(sorted(acc.values()))


def timed_chunk() -> tuple[float, float]:
    """``(start, seconds)`` of one chunk, ``start`` on ``time.monotonic()``."""
    start, t0 = time.monotonic(), time.perf_counter()
    chunk()
    return start, time.perf_counter() - t0


class Sampler:
    """Times a chunk after each ``PERIOD_S`` of CPU time, on ``SIGPROF``.

    Given a ``fork_dir``, processes forked while the sampler runs (pool
    workers) sample too and append their chunks to
    ``fork_dir/samples-<pid>.txt``, which :meth:`samples` reads back.
    """

    def __init__(self, fork_dir: str | os.PathLike[str] | None = None) -> None:
        self.fork_dir = Path(fork_dir) if fork_dir is not None else None
        self._own: list[tuple[float, float]] = []
        self._file: TextIO | None = None
        self._old_handler: Any = None
        self._running = False

    def start(self) -> "Sampler":
        # warm-up, so the first sample times the host, not set-up; pool
        # workers forked later share its table
        chunk()
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        self._running = True
        if self.fork_dir is not None:
            os.register_at_fork(after_in_child=self._forked)
        self._arm()
        return self

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def _arm(self) -> None:
        # one-shot, re-armed after each chunk, so chunks never nest
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)

    def _tick(self, signum: int, frame: Any) -> None:
        if not self._running:
            return
        sample = timed_chunk()
        self._own.append(sample)
        if self._file is not None:
            self._file.write(f"{sample[0]!r} {sample[1]!r}\n")
        self._arm()

    def _forked(self) -> None:
        # interval timers are not inherited across fork; re-arm here
        if not self._running or self.fork_dir is None:
            return
        self._own = []
        # open for the worker's life; line-buffered, so each sample lands
        self._file = open(self.fork_dir / f"samples-{os.getpid()}.txt", "a", buffering=1)
        self._arm()

    def samples(self) -> list[tuple[float, float]]:
        """This process's chunks and those its forked workers wrote."""
        out = list(self._own)
        if self.fork_dir is not None:
            for path in sorted(self.fork_dir.glob("samples-*.txt")):
                for line in path.read_text().splitlines():
                    fields = line.split()
                    if len(fields) == 2:  # a worker killed mid-write leaves a torn line
                        out.append((float(fields[0]), float(fields[1])))
        return out


def scale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """The factor that turns host seconds spent in ``[start, end]`` into
    reference-host seconds, from the chunks that started in it; when
    the span was too short to be sampled, :func:`scale_now`."""
    inside = [dt for t, dt in samples if start <= t <= end]
    if not inside:
        return scale_now()
    return REF_NOMINAL_S / statistics.fmean(inside)


def scale_now() -> float:
    """The factor from three chunks timed now, after a warm-up chunk."""
    chunk()
    return REF_NOMINAL_S / statistics.fmean(timed_chunk()[1] for _ in range(3))


if __name__ == "__main__":
    times = [timed_chunk()[1] for _ in range(100)]
    print(f"{statistics.fmean(times):.5f} s per chunk, mean of 100 (nominal {REF_NOMINAL_S} s)")
