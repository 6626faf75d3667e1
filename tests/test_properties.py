"""Property-based contracts of the run protocol on random small phase machines.

hypothesis draws the machines; ``derandomize=True`` and ``database=None``
keep every Tier-1 run drawing the same examples and writing nothing.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscim.harness import RunSchedule, run_many, sweep_coupling
from oscim.machine import build_machine
from oscim.problems import Graph

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=50)

# dyadic weights keep every cut sum exact; 0 leaves the pair uncoupled
WEIGHTS = st.integers(-8, 8).map(lambda k: k / 4.0)
SCALES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SCHEDULES = st.sampled_from([RunSchedule(settle_periods=5.0), RunSchedule(settle_periods=7.02)])


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    return Graph(n=n, edges=tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))


@st.composite
def machines(draw):
    g = draw(graphs())
    m = build_machine(g, global_scale=draw(SCALES), noise_sigma=draw(st.sampled_from([0.0, 0.05])))
    return g, m


SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(machines(), SCHEDULES, st.integers(1, 4), SEEDS)
def test_batched_runs_equal_runs_one_at_a_time(gm, sched, runs, seed):
    g, m = gm
    batched = run_many(g, m, sched=sched, runs=runs, seed=seed)
    alone = run_many(g, m, sched=sched, runs=runs, seed=seed, parallel=False)
    assert batched == alone


@PROPERTY_SETTINGS
@given(machines(), SCHEDULES, st.lists(SCALES, min_size=1, max_size=3), st.integers(1, 4), SEEDS)
def test_sweep_row_is_run_many_with_its_child_seed(gm, sched, scales, runs, seed):
    g, m = gm
    rows = sweep_coupling(g, m, sched=sched, scales=tuple(scales), runs_per_point=runs,
                          seed=seed)
    children = np.random.SeedSequence(seed).spawn(len(scales))
    assert [scale for scale, _ in rows] == scales
    for (scale, stats), child in zip(rows, children):
        scaled = dataclasses.replace(m, global_scale=scale)
        assert stats == run_many(g, scaled, sched=sched, runs=runs, seed=child)
