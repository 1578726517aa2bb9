"""Differential tests: the prefix-sum balancers against the scalar-loop
originals kept in ``balancer_oracle``.

Plans must be bit-identical, not merely equally good: many partitions
tie within an ulp of the optimal bottleneck, and the controller's plan
trajectory (hence every downstream metric) follows whichever one the
balancer returns.  Inputs mix duplicated weights, zeros and 1-ulp
perturbations, every stage count 1..n, and runs with and without a
memory constraint (scalar or per-stage capacity).  Diffusion also gets
duplicated decimal weights of a magnitude whose rounding error exceeds
its 1e-15 move margin, so summation order decides ties there.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balancer_oracle as oracle
from repro.core.balancers.diffusion import DiffusionBalancer
from repro.core.balancers.partition import partition_balanced
from repro.pipeline.plan import PipelinePlan

_POOL = [0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 1e-9]
_TIE_POOL = [0.0, 0.7, 33.3, 50.05, 100.1, 200.2, 300.3]


@st.composite
def layer_vector(draw, n: int) -> np.ndarray:
    """Non-negative values with duplicates, zeros and 1-ulp nudges."""
    base = draw(
        st.lists(
            st.sampled_from(_POOL)
            | st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    nudge = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=n, max_size=n))
    out = []
    for x, k in zip(base, nudge):
        if k > 0:
            x = math.nextafter(x, math.inf)
        elif k < 0 and x > 0:
            x = math.nextafter(x, 0.0)
        out.append(x)
    return np.asarray(out, dtype=float)


@st.composite
def partition_cases(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    w = draw(layer_vector(n))
    S = draw(st.integers(min_value=1, max_value=n))
    mem = cap = None
    if draw(st.booleans()):
        mem = draw(layer_vector(n))
        cap = draw(st.floats(min_value=0.0, max_value=float(mem.sum()) + 1.0))
    elif draw(st.booleans()):
        mem = draw(layer_vector(n))  # memory without a capacity is ignored
    return w, S, mem, cap


@st.composite
def diffusion_cases(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    if draw(st.booleans()):
        w = np.asarray(
            draw(st.lists(st.sampled_from(_TIE_POOL), min_size=n, max_size=n))
        )
    else:
        w = draw(layer_vector(n))
    S = draw(st.integers(min_value=1, max_value=n))
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=S - 1, max_size=S - 1)) if S > 1 else set()
    plan = PipelinePlan((0, *sorted(cuts), n), n)
    mem = cap = None
    kind = draw(st.sampled_from(["none", "scalar", "per-stage"]))
    if kind != "none":
        mem = draw(layer_vector(n))
        hi = float(mem.sum()) + 1.0
        if kind == "scalar":
            cap = draw(st.floats(min_value=0.0, max_value=hi))
        else:
            cap = draw(st.lists(st.floats(0.0, hi), min_size=S, max_size=S))
    gamma = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1])) * max(float(w.sum()), 1e-12)
    # capped: on rounding ties whole rounds can alternate up to the cap
    max_rounds = draw(st.sampled_from([1, 3, 25]))
    return plan, w, mem, cap, gamma, max_rounds


def _outcome(fn, *args):
    try:
        return fn(*args).boundaries
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(case=partition_cases())
@settings(max_examples=400, deadline=None)
def test_partition_matches_oracle(case):
    w, S, mem, cap = case
    assert _outcome(partition_balanced, w, S, mem, cap) == _outcome(
        oracle.partition_balanced, w, S, mem, cap
    )


def test_partition_matches_oracle_on_seeded_controller_inputs():
    """Profiled-weight-like vectors at the benchmark's shape (26 layers)."""
    rng = np.random.default_rng(0)
    for trial in range(300):
        w = rng.random(26) * rng.choice([1e-3, 1.0, 1e6])
        if trial % 3 == 0:
            w[rng.integers(0, 26, 5)] = 0.0  # frozen / exited layers
        S = int(rng.integers(1, 17))
        mem = rng.random(26)
        cap = None if trial % 2 else float(mem.sum() / S * rng.uniform(0.9, 2.0))
        assert _outcome(partition_balanced, w, S, mem, cap) == _outcome(
            oracle.partition_balanced, w, S, mem, cap
        ), (trial, S, cap)


class _Hang(Exception):
    pass


@contextmanager
def _time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@given(case=diffusion_cases())
@settings(max_examples=400, deadline=None)
def test_diffusion_matches_oracle(case):
    plan, w, mem, cap, gamma, max_rounds = case
    new = DiffusionBalancer(gamma, max_rounds).rebalance(plan, w, mem, cap)
    try:
        with _time_limit(2.0):
            old = oracle.OracleDiffusionBalancer(gamma, max_rounds).rebalance(
                plan, w, mem, cap
            )
    except _Hang:
        # on an exact rounding tie the original moves one layer back
        # and forth across a boundary forever; the rewrite stops there
        # and is otherwise identical (test_balancers covers the tie)
        return
    assert new.plan == old.plan
    assert new.rounds == old.rounds
    assert new.potential_trace == old.potential_trace
    assert new.loads_before.tolist() == old.loads_before.tolist()
    assert new.loads_after.tolist() == old.loads_after.tolist()
