"""Property-based contracts: the run protocol and the phase step rule on
random small phase machines, the screened oracles against full enumeration,
and the file formats and QUBO conversion.

hypothesis draws the inputs; ``derandomize=True`` and ``database=None``
keep every Tier-1 run drawing the same examples and writing nothing.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oscim.formats import (document_bytes, ising_to_document, parse_graph_file,
                           problem_from_document, qubo_to_document)
from oscim.harness import RunSchedule, phase_protocol_run, run_many, run_seeds, sweep_coupling
from oscim.machine import build_machine
from oscim.phase_dynamics import (TWO_PI, coupling_terms, integrate_batch,
                                  random_initial_phases, steps_per_period_for)
from oscim.problems import (Graph, IsingProblem, Qubo, brute_force_ground_states,
                            brute_force_max_cut, cut_values, energies, energy, qubo_to_ising,
                            qubo_value)
from oscim.readout import spins_from_phases

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=50)

# dyadic weights keep every cut sum exact; 0 leaves the pair uncoupled
WEIGHTS = st.integers(-8, 8).map(lambda k: k / 4.0)
SCALES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SCHEDULES = st.sampled_from([RunSchedule(settle_periods=5.0), RunSchedule(settle_periods=7.02)])


@st.composite
def graphs(draw, sizes=st.integers(2, 6)):
    n = draw(sizes)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    return Graph(n=n, edges=tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))


@st.composite
def machines(draw, sizes=st.integers(2, 6)):
    g = draw(graphs(sizes))
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


# each machine size draws its own examples, so every n from 2 to 6 is covered
@pytest.mark.parametrize("n", range(2, 7))
@settings(PROPERTY_SETTINGS, max_examples=10)
@given(data=st.data())
def test_batched_runs_equal_runs_one_at_a_time_at_each_size(n, data):
    g, m = data.draw(machines(st.just(n)))
    sched, runs, seed = data.draw(SCHEDULES), data.draw(st.integers(1, 4)), data.draw(SEEDS)
    batched = run_many(g, m, sched=sched, runs=runs, seed=seed)
    assert batched == run_many(g, m, sched=sched, runs=runs, seed=seed, parallel=False)


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


STEP_SCHED = RunSchedule(settle_periods=10.0)
# log-uniform on a grid from 0.05 to 8
LOG_SCALES = st.sampled_from([0.05 * 160.0 ** (k / 40) for k in range(41)])


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(graphs(), LOG_SCALES, SEEDS)
def test_phase_spins_at_the_chosen_rung_equal_spins_at_four_times_its_steps(g, scale, seed):
    # noise-free; the rung must keep h * L <= 1 (steps_per_period_for), and a
    # machine too stiff for every rung sits on the fallback and is only counted
    m = build_machine(g, global_scale=scale)
    K, Ks = coupling_terms(m)
    spp = steps_per_period_for(K, Ks)
    if TWO_PI / spp * (2.0 * np.abs(K).sum(axis=-1).max() + 2.0 * abs(Ks)) > 1.0:
        event("fallback: h*L > 1 at every rung")
        return
    event(f"rung {spp}")
    seeds = run_seeds(seed, 3)
    _, thetas = phase_protocol_run(m, STEP_SCHED, seeds)
    theta0 = np.stack([random_initial_phases(g.n, np.random.default_rng(s)) for s in seeds])
    _, ref = integrate_batch(theta0, K, Ks, np.zeros(g.n), STEP_SCHED.settle_periods,
                             steps_per_period=4 * spp)
    spins, resolved = spins_from_phases(thetas[-1])
    ref_spins, ref_resolved = spins_from_phases(ref[-1])
    both = resolved.all(axis=-1) & ref_resolved.all(axis=-1)
    assert np.array_equal(spins[both], ref_spins[both])


# oracle weights: small integers, which tie often, or log-uniform magnitudes
# from 1e-300 up to 1e6 of either sign
WIDE_FLOATS = st.builds(lambda sign, mantissa, exp: sign * mantissa * 10.0**exp,
                        st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0),
                        st.integers(-300, 5))
ORACLE_WEIGHTS = st.one_of(st.integers(-3, 3).map(float), WIDE_FLOATS)
# file values: any float small enough that a graph's total |weight| stays finite
FINITE = st.floats(-1e300, 1e300)


def all_spins(n):
    """Every +-1 configuration of n spins, (2^n, n)."""
    return np.array(list(itertools.product((1, -1), repeat=n)))


def optima(spins, scores, best):
    """(best, the set of rows of spins that score best), as the oracles return."""
    return float(best), {tuple(row) for row in spins[scores == best].tolist()}


def upper_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@st.composite
def weighted_graphs(draw, values, sizes):
    """Graphs on a drawn number of vertices; each pair is an edge of a drawn
    weight or absent."""
    n = draw(sizes)
    pairs = upper_pairs(n)
    weights = draw(st.lists(st.none() | values, min_size=len(pairs), max_size=len(pairs)))
    return Graph(n=n, edges=tuple((u + 1, v + 1, w)
                                  for (u, v), w in zip(pairs, weights) if w is not None))


@st.composite
def ising_problems(draw, values, sizes):
    n = draw(sizes)
    pairs = upper_pairs(n)
    J = np.zeros((n, n))
    for (i, j), w in zip(pairs, draw(st.lists(values, min_size=len(pairs),
                                              max_size=len(pairs)))):
        J[i, j] = J[j, i] = w
    h = draw(st.lists(values, min_size=n, max_size=n))
    return IsingProblem(J=J, h=h, offset=draw(values))


@st.composite
def qubos(draw, values, sizes):
    n = draw(sizes)
    Q = np.zeros((n, n))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for (i, j), w in zip(cells, draw(st.lists(values, min_size=len(cells),
                                              max_size=len(cells)))):
        Q[i, j] = w
    return Qubo(Q=Q, offset=draw(values))


# each oracle size n <= 9 draws its own examples
ORACLE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=15)


@pytest.mark.parametrize("n", range(1, 10))
@ORACLE_SETTINGS
@given(data=st.data())
def test_max_cut_oracle_equals_full_enumeration(n, data):
    g = data.draw(weighted_graphs(ORACLE_WEIGHTS, st.just(n)))
    spins = all_spins(g.n)
    cuts = cut_values(g, spins)
    assert brute_force_max_cut(g) == optima(spins, cuts, cuts.max())


@pytest.mark.parametrize("n", range(1, 10))
@ORACLE_SETTINGS
@given(data=st.data())
def test_ground_state_oracle_equals_full_enumeration(n, data):
    p = data.draw(ising_problems(ORACLE_WEIGHTS, st.just(n)))
    spins = all_spins(p.n)
    e = energies(p, spins)
    assert brute_force_ground_states(p) == optima(spins, e, e.min())


@PROPERTY_SETTINGS
@given(st.one_of(ising_problems(FINITE, st.integers(1, 5)), qubos(FINITE, st.integers(1, 5))))
def test_problem_documents_round_trip(problem):
    to_doc = ising_to_document if isinstance(problem, IsingProblem) else qubo_to_document
    back = problem_from_document(json.loads(document_bytes(to_doc(problem))))
    assert type(back) is type(problem)
    for name in ("J", "h") if isinstance(problem, IsingProblem) else ("Q",):
        assert np.array_equal(getattr(back, name), getattr(problem, name))
    assert back.offset == problem.offset


@PROPERTY_SETTINGS
@given(weighted_graphs(FINITE, st.integers(1, 8)))
def test_graph_text_round_trips(g):
    text = "".join([f"n {g.n}\n"] + [f"{u} {v} {w!r}\n" for u, v, w in g.edges])
    assert parse_graph_file(text) == g


@PROPERTY_SETTINGS
@given(qubos(st.integers(-16, 16).map(lambda k: k / 8.0), st.integers(1, 6)))
def test_qubo_and_ising_energies_agree_exactly_on_dyadic_entries(q):
    p = qubo_to_ising(q)
    for s in all_spins(q.n):
        assert energy(p, s) == qubo_value(q, (1 + s) / 2)
