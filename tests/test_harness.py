"""Run protocol: determinism, histogram accounting, sweeps, staggering."""

import numpy as np
import pytest

from oscim import circuit_dynamics, phase_dynamics
from oscim.harness import (
    RunSchedule,
    _integrate_staggered,
    best_operating_point,
    optimal_bitstrings,
    run_many,
    staggered_activation_experiment,
    sweep_coupling,
)
from oscim.machine import build_machine, effective_weights
from oscim.problems import Graph

EDGE = Graph(n=2, edges=((1, 2, 1.0),))
TRIANGLE = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))


def one_run(g, m, seed):
    return run_many(g, m, runs=1, seed=seed).run_results[0]


class TestRunOnce:
    def test_single_edge_finds_cut(self):
        m = build_machine(EDGE, global_scale=0.2)
        r = one_run(EDGE, m, seed=7)
        assert r.bitstring == "01"
        assert r.cut == 1.0
        assert r.optimal
        assert r.lock_period is not None and r.lock_period < 10

    def test_empty_graph_trivially_optimal(self):
        g = Graph(n=2, edges=())
        m = build_machine(g)
        r = one_run(g, m, seed=3)
        assert r.cut == 0.0
        assert r.optimal

    def test_deterministic(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        a = one_run(TRIANGLE, m, seed=11)
        b = one_run(TRIANGLE, m, seed=11)
        assert a == b

    def test_bitstring_reference_normalized(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        for seed in range(5):
            assert one_run(TRIANGLE, m, seed=seed).bitstring[0] == "0"


class TestRunMany:
    def test_histogram_sums_to_runs(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        stats = run_many(TRIANGLE, m, runs=20, seed=5)
        assert sum(stats.histogram.values()) == 20

    def test_single_run_histogram(self):
        m = build_machine(EDGE, global_scale=0.2)
        stats = run_many(EDGE, m, runs=1, seed=0)
        assert list(stats.histogram.values()) == [1]

    def test_triangle_success_rate(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        stats = run_many(TRIANGLE, m, runs=100, seed=42)
        assert stats.success_rate >= 0.9

    def test_same_seed_same_stats(self):
        m = build_machine(TRIANGLE, global_scale=0.25)
        a = run_many(TRIANGLE, m, runs=10, seed=9)
        b = run_many(TRIANGLE, m, runs=10, seed=9)
        assert a.histogram == b.histogram
        assert a.success_rate == b.success_rate
        assert a.mean_lock_period == b.mean_lock_period

    def test_parallel_matches_sequential(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        par = run_many(TRIANGLE, m, runs=8, seed=21, parallel=True)
        seq = run_many(TRIANGLE, m, runs=8, seed=21, parallel=False)
        assert par.run_results == seq.run_results

    def test_graph_larger_than_machine_rejected(self):
        m = build_machine(EDGE)
        with pytest.raises(ValueError, match="larger"):
            run_many(TRIANGLE, m, runs=1, seed=0)

    @pytest.mark.parametrize("backend", ["phase", "circuit"])
    def test_graph_smaller_than_machine_rejected_before_work(self, backend, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("simulation ran before the size check")

        monkeypatch.setattr(phase_dynamics, "integrate_batch", no_work)
        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_work)
        m = build_machine(TRIANGLE)
        with pytest.raises(ValueError, match="smaller"):
            run_many(EDGE, m, backend, RunSchedule(settle_periods=5.0), runs=1, seed=0)

    def test_circuit_settle_shorter_than_detector_fails_first(self, monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the settle check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_calibration)
        m = build_machine(EDGE, global_scale=0.2)
        with pytest.raises(ValueError, match="settle_periods=3 .*5-period"):
            run_many(EDGE, m, backend="circuit", sched=RunSchedule(settle_periods=3.0),
                     runs=1, seed=0)

    def test_noise_runs_are_seeded(self):
        m = build_machine(EDGE, global_scale=0.2, noise_sigma=0.05)
        a = run_many(EDGE, m, runs=4, seed=13)
        b = run_many(EDGE, m, runs=4, seed=13)
        assert a.run_results == b.run_results
        seq = run_many(EDGE, m, runs=4, seed=13, parallel=False)
        assert a.run_results == seq.run_results


class TestSweep:
    def test_rows_and_determinism(self):
        m = build_machine(TRIANGLE)
        rows1 = sweep_coupling(TRIANGLE, m, scales=(0.1, 0.2), runs_per_point=10, seed=3)
        rows2 = sweep_coupling(TRIANGLE, m, scales=(0.1, 0.2), runs_per_point=10, seed=3)
        assert rows1 == rows2
        assert [r.scale for r in rows1] == [0.1, 0.2]

    def test_empty_scales_rejected(self):
        m = build_machine(TRIANGLE)
        with pytest.raises(ValueError, match="nonempty"):
            sweep_coupling(TRIANGLE, m, scales=(), runs_per_point=5, seed=0)

    def test_zero_scale_matches_random_baseline(self):
        # coupling off: spins come from the initial phases alone, so the
        # success rate is the share of optimal configs among all 2^(n-1)
        g = Graph(n=4, edges=tuple(
            (u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5)
        ))
        m = build_machine(g)
        rows = sweep_coupling(g, m, scales=(0.0,), runs_per_point=400, seed=17)
        baseline = len(optimal_bitstrings(g)) / 2 ** (g.n - 1)
        assert rows[0].success_rate == pytest.approx(baseline, abs=0.1)

    def test_best_operating_point_prefers_clean(self):
        from oscim.harness import SweepPoint

        rows = [
            SweepPoint(0.1, 0.95, 5.0, 1.0, 0.0),
            SweepPoint(0.2, 0.99, 4.0, 0.2, 0.5),
        ]
        assert best_operating_point(rows).scale == 0.1


class TestStaggered:
    def test_zero_delays_identical_arms(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        cmp = staggered_activation_experiment(
            TRIANGLE, m, delays=(0.0, 0.0, 0.0), runs=6, seed=2
        )
        assert cmp.simultaneous == cmp.staggered

    def test_reports_both_arms(self):
        m = build_machine(TRIANGLE, global_scale=0.2)
        cmp = staggered_activation_experiment(
            TRIANGLE, m, delays=(0.0, 5.0, 10.0), runs=6, seed=2
        )
        assert cmp.simultaneous.runs == 6
        assert cmp.staggered.runs == 6
        assert 0.0 <= cmp.staggered.success_rate <= 1.0

    def test_noise_with_delays_off_the_step_grid(self):
        m = build_machine(TRIANGLE, global_scale=0.2, noise_sigma=0.05)
        delays = (0.0, 0.0075, 0.015)
        cmp = staggered_activation_experiment(TRIANGLE, m, delays=delays, runs=2, seed=2)
        assert cmp.staggered.runs == 2
        sched = RunSchedule(settle_periods=15.015, staggered_delays=delays)
        n_steps = 3003  # round(15.015 * 200): the steps the noise is drawn for
        K = -effective_weights(m)
        noise = np.random.default_rng(0).standard_normal((n_steps, 2, 3))
        times, thetas = _integrate_staggered(
            TRIANGLE, sched, np.zeros((2, 3)), K, 0.1, np.zeros(3), 0.05, noise
        )
        assert times[-1] == pytest.approx(n_steps / 200, abs=1e-12)
        assert thetas.shape == (len(times), 2, 3)

    def test_circuit_backend_rejects_delays(self, monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran before the delay check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_calibration)
        m = build_machine(TRIANGLE, global_scale=0.2)
        sched = RunSchedule(settle_periods=25.0, staggered_delays=(0.0, 5.0, 10.0))
        with pytest.raises(ValueError, match="phase backend only"):
            run_many(TRIANGLE, m, "circuit", sched, runs=1, seed=0)
        with pytest.raises(ValueError, match="phase backend only"):
            staggered_activation_experiment(
                TRIANGLE, m, backend="circuit", delays=(0.0, 5.0, 10.0), runs=2, seed=3
            )

    def test_wrong_delay_count(self):
        m = build_machine(TRIANGLE)
        with pytest.raises(ValueError, match="per edge"):
            staggered_activation_experiment(TRIANGLE, m, delays=(1.0,), runs=2, seed=0)
        sched = RunSchedule(staggered_delays=(1.0,))
        for backend in ("phase", "circuit"):
            with pytest.raises(ValueError, match="per edge"):
                run_many(TRIANGLE, m, backend, sched, runs=1, seed=0)


class TestOptimalBitstrings:
    def test_single_edge(self):
        assert optimal_bitstrings(EDGE) == ("01",)

    def test_triangle_has_three(self):
        assert optimal_bitstrings(TRIANGLE) == ("001", "010", "011")
