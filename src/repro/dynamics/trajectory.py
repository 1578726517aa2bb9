"""A process-wide memo of dynamism trajectories.

A run's dynamism is a pure function of the freshly built scheme, the
initial layer states and the iteration count: the Trainer steps the
scheme once per iteration in order, and nothing but the scheme writes
the states.  Runs of a sweep that differ only in mode, balancer,
placement or cluster trace therefore step the same trajectory.  This
module steps it once per process and replays it into the other runs.

- :class:`RecordingScheme` delegates to the real scheme and keeps one
  frame per iteration: the step's ``changed`` flag plus the
  :class:`~repro.model.cost.LayerState` fields it replaced, compared
  by object identity.  A versioned scheme's unchanged steps are not
  compared: they leave the states alone.
- :class:`ReplayingScheme` writes each frame back into the states and
  bumps ``version`` exactly when the original did.
- :func:`memoise` picks one of the two for a run.  Its key is a digest
  of the pickled ``(scheme, initial states, iterations)``; a scheme
  that cannot be pickled runs unmemoised.  Recording costs a run time,
  so its caller asks for it only when a later run in the process is
  expected to share the trajectory; a run not asked to record still
  replays a stored match.

The memo is an LRU bounded by :data:`MAX_TRAJECTORIES` entries and
:data:`MAX_BYTES` of estimated frame memory.  Only a run that completes
stores its trajectory.  :data:`stats` counts what happened, like
:data:`repro.pipeline.batched.stats`.
"""

from __future__ import annotations

import hashlib
import operator
import pickle
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from itertools import chain, compress
from typing import Any, Callable

from repro.model.cost import LayerState

#: most trajectories the memo holds at once
MAX_TRAJECTORIES = 16
#: most estimated frame bytes the memo holds; a recording that grows
#: past it stops recording and is not stored
MAX_BYTES = 8 << 20

#: the LayerState fields a step may change, in declaration order
FIELDS = tuple(f.name for f in fields(LayerState))
_fields_of = operator.attrgetter(*FIELDS)

# Size estimate of a trajectory: a list slot and a changed-flag byte
# per iteration; per frame that changes something, its tuple and value
# container; per value, 8 bytes in a float array or a slot plus the
# object; per distinct set of changed positions, a (layer, field) pair
# and two slots per position.
_ITER_BYTES = 9
_FRAME_BYTES = 128
_FLOAT_BYTES = 8
_OBJECT_BYTES = 32
_TARGET_BYTES = 80


def _flatten(states: list[LayerState]) -> list[Any]:
    """Every :data:`FIELDS` value of every layer, layer-major."""
    return list(chain.from_iterable(map(_fields_of, states)))


@dataclass
class TrajectoryStats:
    """Process-wide memo accounting.  ``reset()``, run, then inspect."""

    recorded: int = 0  # trajectories stored
    replayed: int = 0  # runs served from the memo
    evicted: int = 0  # trajectories dropped to stay within the bounds
    #: runs that were neither stored nor replayed, by reason:
    #: ``unpicklable`` (no key), ``over_budget`` (frames > MAX_BYTES)
    #: and ``unshared`` (not asked to record, and no stored match)
    skipped: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def reset(self) -> None:
        self.recorded = self.replayed = self.evicted = 0
        self.skipped.clear()


#: module-level counters, cumulative until :meth:`TrajectoryStats.reset`
stats = TrajectoryStats()


@dataclass(frozen=True)
class Trajectory:
    """One run's recorded dynamism, one frame per iteration.

    ``frames[k]`` is empty when iteration ``k``'s step replaced no
    field, else a ``(targets, values)`` pair: the ``(layer, field
    name)`` of each replaced field and its new value.  Values that are
    all ``float`` are kept in an ``array('d')``, which gives back
    bit-identical floats, others as the objects themselves.
    ``changed[k]`` is the step's return value.
    """

    frames: tuple[tuple[Any, ...], ...]
    changed: bytes
    nbytes: int


def trajectory_key(scheme: Any, states: list[LayerState], iterations: int) -> bytes | None:
    """Digest of the pickled ``(scheme, states, iterations)``, or None
    when the scheme cannot be pickled.  ``scheme`` must not have
    stepped yet."""
    # large arrays (the pruner's weight proxies) travel out of band and
    # are hashed in place, without a copy into the pickle
    buffers: list[pickle.PickleBuffer] = []
    try:
        digest = hashlib.sha256(
            pickle.dumps(
                (scheme, states, iterations), protocol=5, buffer_callback=buffers.append
            )
        )
        for buf in buffers:
            raw = buf.raw()  # BufferError when not contiguous
            digest.update(raw.nbytes.to_bytes(8, "little"))
            digest.update(raw)
    except (pickle.PicklingError, TypeError, AttributeError, BufferError):
        return None
    return digest.digest()


class TrajectoryMemo:
    """LRU of finished trajectories, bounded by count and bytes."""

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[bytes, Trajectory] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> Trajectory | None:
        with self._lock:
            traj = self._entries.get(key)
            if traj is not None:
                self._entries.move_to_end(key)
            return traj

    def put(self, key: bytes, traj: Trajectory) -> None:
        if traj.nbytes > self.max_bytes:
            stats.skip("over_budget")
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= old.nbytes
            self._entries[key] = traj
            self.nbytes += traj.nbytes
            while len(self._entries) > self.max_entries or self.nbytes > self.max_bytes:
                _, dropped = self._entries.popitem(last=False)
                self.nbytes -= dropped.nbytes
                stats.evicted += 1
            stats.recorded += 1


#: the process-wide memo
memo = TrajectoryMemo(MAX_TRAJECTORIES, MAX_BYTES)


class RecordingScheme:
    """Steps the real scheme and records its trajectory.

    Recording stops (and :meth:`trajectory` returns None) once the
    frames outgrow ``max_bytes``; stepping continues either way.
    """

    def __init__(self, scheme: Any, max_bytes: int) -> None:
        self._scheme = scheme
        self._advance = getattr(scheme, "advance", None) or scheme.step
        #: a versioned scheme's unchanged step leaves the states alone
        #: (the contract the Trainer's fingerprint memo relies on too),
        #: so only its changed steps are compared field by field
        self._versioned = getattr(scheme, "version", None) is not None
        self._max_bytes = max_bytes
        self._frames: list[tuple[Any, ...]] | None = []
        self._changed = bytearray()
        self._nbytes = 0
        #: (layer, field name) pairs per distinct set of changed
        #: positions, shared by the frames that change the same ones
        self._targets: dict[tuple[int, ...], tuple[tuple[int, str], ...]] = {}
        #: every field of every layer, flattened, after the last step;
        #: only the scheme writes the states, so they still hold at
        #: the next step
        self._flat: list[Any] | None = None
        if hasattr(scheme, "per_iteration_overhead_s"):
            self.per_iteration_overhead_s = scheme.per_iteration_overhead_s

    @property
    def rebalance_every(self) -> int:
        return self._scheme.rebalance_every

    @property
    def version(self) -> int | None:
        return getattr(self._scheme, "version", None)

    def advance(self, k: int, states: list[LayerState]) -> bool:
        frames = self._frames
        if frames is None:
            return self._advance(k, states)
        if self._flat is None:
            self._flat = _flatten(states)
        changed = self._advance(k, states)
        self._changed.append(1 if changed else 0)
        nbytes = _ITER_BYTES
        frame: tuple[Any, ...] = ()
        if changed or not self._versioned:
            after = _flatten(states)
            # by object identity: a step that re-assigns an equal value
            # of another type (or -0.0 for 0.0) is recorded too
            mask = list(map(operator.is_not, after, self._flat))
            self._flat = after
            if any(mask):
                positions = tuple(compress(range(len(after)), mask))
                targets = self._targets.get(positions)
                if targets is None:
                    n = len(FIELDS)
                    targets = tuple((p // n, FIELDS[p % n]) for p in positions)
                    self._targets[positions] = targets
                    nbytes += _TARGET_BYTES * len(targets)
                values = list(compress(after, mask))
                if set(map(type, values)) == {float}:
                    frame = (targets, array("d", values))
                    nbytes += _FRAME_BYTES + _FLOAT_BYTES * len(values)
                else:
                    frame = (targets, tuple(values))
                    nbytes += _FRAME_BYTES + _OBJECT_BYTES * len(values)
        frames.append(frame)
        self._nbytes += nbytes
        if self._nbytes > self._max_bytes:
            self._frames = None
        return changed

    def trajectory(self) -> Trajectory | None:
        if self._frames is None:
            return None
        return Trajectory(tuple(self._frames), bytes(self._changed), self._nbytes)


class ReplayingScheme:
    """Replays a recorded trajectory in place of stepping ``scheme``.

    ``scheme`` is the fresh scheme the trajectory was recorded from (by
    key); it never steps.  Its ``rebalance_every``,
    ``per_iteration_overhead_s`` and whether it counts versions are
    forwarded.
    """

    def __init__(self, scheme: Any, traj: Trajectory) -> None:
        self._frames = traj.frames
        self._changed = traj.changed
        self.rebalance_every = scheme.rebalance_every
        self.version: int | None = getattr(scheme, "version", None)
        if hasattr(scheme, "per_iteration_overhead_s"):
            self.per_iteration_overhead_s = scheme.per_iteration_overhead_s

    def advance(self, k: int, states: list[LayerState]) -> bool:
        frame = self._frames[k]
        if frame:
            targets, values = frame
            for (i, name), value in zip(targets, values):
                setattr(states[i], name, value)
        changed = bool(self._changed[k])
        if changed and self.version is not None:
            self.version += 1
        return changed


def _nothing() -> None:
    return None


def memoise(
    scheme: Any, states: list[LayerState], iterations: int, *, record: bool = True
) -> tuple[Any, Callable[[], None]]:
    """The scheme a run of ``iterations`` should step, and its commit.

    ``scheme`` is freshly built and ``states`` are its initial states.
    On a memo hit the result is a :class:`ReplayingScheme`; otherwise,
    when ``record`` is set, a :class:`RecordingScheme` whose trajectory
    the returned callable stores.  Call it only once the run has
    completed.  Otherwise ``scheme`` is returned as is: it cannot be
    pickled, or nothing is to be recorded and there is nothing to
    replay (with an empty memo not even the key is computed).
    """
    if not record and not len(memo):
        stats.skip("unshared")
        return scheme, _nothing
    key = trajectory_key(scheme, states, iterations)
    if key is None:
        stats.skip("unpicklable")
        return scheme, _nothing
    traj = memo.get(key)
    if traj is not None:
        stats.replayed += 1
        return ReplayingScheme(scheme, traj), _nothing
    if not record:
        stats.skip("unshared")
        return scheme, _nothing
    recorder = RecordingScheme(scheme, memo.max_bytes)

    def commit() -> None:
        recorded = recorder.trajectory()
        if recorded is None:
            stats.skip("over_budget")
        elif len(recorded.frames) == iterations:
            memo.put(key, recorded)

    return recorder, commit
