"""Run protocol: determinism, histogram accounting, schedules, sweeps."""

import dataclasses
import hashlib

import numpy as np
import pytest

from oscim import circuit_dynamics, harness, phase_dynamics
from oscim.harness import (
    RunResult,
    RunSchedule,
    RunStats,
    best_operating_point,
    oracle_max_cut,
    run_many,
    run_seeds,
    sweep_coupling,
)
from oscim.machine import build_machine
from oscim.problems import Graph

EDGE = Graph(n=2, edges=((1, 2, 1.0),))
TRIANGLE = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))
K24 = Graph(n=24, edges=tuple((u, v, 1.0) for u in range(1, 25) for v in range(u + 1, 25)))
K8 = Graph(n=8, edges=tuple((u, v, 1.0) for u in range(1, 9) for v in range(u + 1, 9)))
# global scales at which a protocol run takes 25, 40 and 200 steps per period
K24_RUNG_SCALES = {25: 0.05, 40: 0.1, 200: 0.5}
K8_RUNG_SCALES = {25: 0.2, 40: 0.3, 200: 1.5}


def protocol_steps_per_period(m):
    return phase_dynamics.steps_per_period_for(
        *phase_dynamics.coupling_terms(m))


def record_noise(monkeypatch, integrate=True):
    """List that collects the noise each integrate_batch call is given.

    With integrate=False the integration itself is skipped.
    """
    recorded = []
    real = phase_dynamics.integrate_batch

    def recording(*args, noise=None, **kwargs):
        recorded.append(noise)
        return real(*args, noise=noise, **kwargs) if integrate else None

    monkeypatch.setattr(phase_dynamics, "integrate_batch", recording)
    return recorded


def k24_noise(spp, settle, seeds, monkeypatch):
    """Noise a K24 protocol run at the given rung passes to integrate_batch.

    Returned in units of the 200-per-period grid, unscaled by noise_sigma.
    """
    m = build_machine(K24, global_scale=K24_RUNG_SCALES[spp], noise_sigma=0.05)
    assert protocol_steps_per_period(m) == spp
    recorded = record_noise(monkeypatch, integrate=False)
    harness.phase_protocol_run(m, RunSchedule(settle_periods=settle), seeds)
    monkeypatch.undo()
    return recorded[0] / (0.05 * np.sqrt(1.0 / 200))


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

    def test_seed_sequence_master_gives_the_same_runs_twice(self):
        # noise makes the lock periods follow the seeds closely
        ring = Graph(n=4, edges=((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)))
        m = build_machine(ring, global_scale=0.2, noise_sigma=0.05)
        ss = np.random.SeedSequence(5)
        first = run_many(ring, m, runs=4, seed=ss)
        assert run_many(ring, m, runs=4, seed=ss) == first
        assert ss.n_children_spawned == 0

    @pytest.mark.parametrize("backend", ["circuits", "Phase", ""])
    def test_unknown_backend_rejected(self, backend):
        m = build_machine(TRIANGLE, global_scale=0.2)
        with pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
            run_many(TRIANGLE, m, backend=backend, runs=2)

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

    def test_circuit_backend_rejects_noise_before_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the noise check")

        monkeypatch.setattr(circuit_dynamics, "calibrated_params", no_work)
        monkeypatch.setattr(harness, "oracle_max_cut", no_work)
        m = build_machine(TRIANGLE, global_scale=0.2, noise_sigma=0.5)
        with pytest.raises(ValueError, match="phase backend only"):
            run_many(TRIANGLE, m, "circuit", RunSchedule(settle_periods=6.0), runs=2, seed=1)
        with pytest.raises(ValueError, match="phase backend only"):
            sweep_coupling(TRIANGLE, m, "circuit", RunSchedule(settle_periods=6.0),
                           scales=(0.1, 0.2), runs_per_point=2, seed=1)

    def test_noise_runs_are_seeded(self):
        m = build_machine(EDGE, global_scale=0.2, noise_sigma=0.05)
        a = run_many(EDGE, m, runs=4, seed=13)
        b = run_many(EDGE, m, runs=4, seed=13)
        assert a.run_results == b.run_results
        seq = run_many(EDGE, m, runs=4, seed=13, parallel=False)
        assert a.run_results == seq.run_results

    @pytest.mark.parametrize("spp, levels", [(25, 0), (40, 3), (200, 3)])
    def test_noisy_run_draw_budget(self, spp, levels, monkeypatch):
        # each run's generator draws its initial phases, then settle * 25
        # coarse normals per oscillator, then one block per halving level:
        # no fine-grid draws at the 25-step rung
        created = []
        real_default_rng = np.random.default_rng

        def recording_default_rng(seed):
            created.append((seed, real_default_rng(seed)))
            return created[-1][1]

        m = build_machine(K24, global_scale=K24_RUNG_SCALES[spp], noise_sigma=0.05)
        assert protocol_steps_per_period(m) == spp
        record_noise(monkeypatch, integrate=False)
        monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
        harness.phase_protocol_run(m, RunSchedule(settle_periods=3.0), harness.run_seeds(8, 3))
        monkeypatch.undo()
        assert len(created) == 3
        for seed, rng in created:
            ref = np.random.default_rng(seed)
            ref.uniform(0.0, 2 * np.pi, 24)
            ref.standard_normal((75, 24))
            for level in range(levels):
                ref.standard_normal((75 << level, 24))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_settle_shorter_than_one_step_fails_first(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("integration started before the settle check")

        monkeypatch.setattr(phase_dynamics, "_rk4", no_step)
        m = build_machine(TRIANGLE, global_scale=0.2)
        with pytest.raises(ValueError, match=r"settle_periods=0\.001 .*one RK4 step"):
            run_many(TRIANGLE, m, sched=RunSchedule(settle_periods=0.001), runs=2, seed=0)


class TestNoisePath:
    """A seed's noise is one Brownian path, drawn coarse-to-fine."""

    @pytest.mark.parametrize("settle", [15.0, 15.02])
    @pytest.mark.parametrize("spp", [25, 40])
    def test_coarse_rungs_sum_the_fine_path(self, spp, settle, monkeypatch):
        seeds = harness.run_seeds(31, 4)
        coarse = k24_noise(spp, settle, seeds, monkeypatch)
        fine = k24_noise(200, settle, seeds, monkeypatch)
        group = 200 // spp
        whole = fine.shape[0] // group  # coarse steps the 200-step run covers
        assert coarse.shape[0] in (whole, whole + 1)
        sums = fine[:whole * group].reshape(whole, group, *fine.shape[1:]).sum(axis=1)
        np.testing.assert_allclose(coarse[:whole], sums, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spp, settle, digest", [
        (25, 15.0, "9b5be65aefcee9dfa91238096340d251b90ac89f4cf25ee527549547d5297028"),
        (25, 15.02, "5ee1b849302a84906d526d3882fa16a842a805fdcec013d169b543a82031281e"),
        (40, 15.0, "645dca866ab1f7def73b9da9227475b8c8f045d1dfb618df36e84a9ef81a52af"),
        (40, 15.02, "703e9c81c2c686863a6157b0e8c3e3cb94249b84a48cc4ff33e13d94f3472692"),
        (200, 15.0, "827668114aaf4f81cf062ab7e5bf97f8f58468c86aed23ae35693bdde4f019b9"),
        (200, 15.02, "83837b7f5cd72ca13464fb27f849728632e4a43b35ed41b090ffa6b30acdc948"),
    ])
    def test_increments_are_pinned_bit_for_bit(self, spp, settle, digest):
        # the noise of a seed is part of the reproducibility contract: any
        # rewrite of the bridge must draw and combine the same numbers
        rngs = [np.random.default_rng(s) for s in harness.run_seeds(29, 3)]
        n_steps = int(round(settle * spp))
        noise = phase_dynamics._brownian_increments(rngs, n_steps, spp, 5)
        assert noise.shape == (n_steps, 3, 5)
        assert hashlib.sha256(noise.astype("<f8").tobytes()).hexdigest() == digest

    def test_variance_per_level(self, monkeypatch):
        # increments on the 25/50/100/200 grids have variance 8/4/2/1 grid
        # units, and neighbours are uncorrelated
        fine = k24_noise(200, 15.0, harness.run_seeds(5, 8), monkeypatch)
        for group in (8, 4, 2, 1):
            x = fine.reshape(-1, group, *fine.shape[1:]).sum(axis=1) / np.sqrt(group)
            count = x.size
            assert abs(x.var() - 1.0) < 5 * np.sqrt(2.0 / (count - 1))
            lag1 = np.corrcoef(x[:-1].ravel(), x[1:].ravel())[0, 1]
            assert abs(lag1) < 5 / np.sqrt(count)

    @pytest.mark.parametrize("settle", [15.0, 15.02])
    @pytest.mark.parametrize("spp", [25, 40, 200])
    def test_batched_equals_sequential(self, spp, settle, monkeypatch):
        m = build_machine(K8, global_scale=K8_RUNG_SCALES[spp], noise_sigma=0.05)
        assert protocol_steps_per_period(m) == spp
        sched = RunSchedule(settle_periods=settle)
        recorded = record_noise(monkeypatch)
        par = run_many(K8, m, sched=sched, runs=3, seed=19, parallel=True)
        seq = run_many(K8, m, sched=sched, runs=3, seed=19, parallel=False)
        assert par.run_results == seq.run_results
        batched, *alone = recorded
        for b, noise in enumerate(alone):
            assert np.array_equal(batched[:, b:b + 1], noise)

    @pytest.mark.parametrize("settle", [15.0, 15.02])
    def test_bridge_halves_once_more_at_400_steps(self, settle):
        # a fourth halving splits each 200-grid increment in two, with half its
        # variance and no correlation between the halves
        def increments(spp):
            rngs = [np.random.default_rng(s) for s in harness.run_seeds(29, 3)]
            return phase_dynamics._brownian_increments(rngs, int(round(settle * spp)), spp, 5)

        coarse, fine = increments(200), increments(400)
        assert fine.shape == (2 * coarse.shape[0], 3, 5)
        pairs = fine.reshape(-1, 2, 3, 5)
        np.testing.assert_allclose(pairs.sum(axis=1), coarse, rtol=0, atol=1e-12)
        x = fine / np.sqrt(0.5)
        assert abs(x.var() - 1.0) < 5 * np.sqrt(2.0 / (x.size - 1))
        lag1 = np.corrcoef(pairs[:, 0].ravel(), pairs[:, 1].ravel())[0, 1]
        assert abs(lag1) < 5 / np.sqrt(pairs[:, 0].size)

    def test_noise_scale_does_not_follow_the_default_rung(self, monkeypatch):
        # the bridge states its own grid: a finer default step count for
        # integrate_batch leaves a seed's noise as it is
        m = build_machine(K8, global_scale=K8_RUNG_SCALES[40], noise_sigma=0.05)
        seeds = run_seeds(23, 3)
        recorded = record_noise(monkeypatch, integrate=False)
        harness.phase_protocol_run(m, RunSchedule(), seeds)
        monkeypatch.setattr(phase_dynamics, "DEFAULT_STEPS_PER_PERIOD", 400)
        harness.phase_protocol_run(m, RunSchedule(), seeds)
        assert len(recorded) == 2
        assert np.array_equal(recorded[0], recorded[1])


class TestInitialPhases:
    def test_both_backends_draw_the_same_initial_phases(self, monkeypatch):
        # the backend agreement of criterion 9 starts each seed from the same
        # phases on both backends
        m = build_machine(TRIANGLE, global_scale=0.2)
        _, thetas = harness.phase_protocol_run(m, RunSchedule(), run_seeds(712, 4))
        drawn = []

        class Drawn(Exception):
            pass

        def capture(theta, p, f0):
            drawn.append(np.array(theta))
            raise Drawn

        monkeypatch.setattr(circuit_dynamics, "calibrated_params",
                            lambda f0: circuit_dynamics.OscParams())
        monkeypatch.setattr(circuit_dynamics, "phases_to_network_state", capture)
        with pytest.raises(Drawn):
            circuit_dynamics._protocol_run(m, RunSchedule(), run_seeds(712, 4))
        assert np.array_equal(drawn[0], thetas[0])


class TestRunStats:
    # three locked runs (one with an unresolved spin), one unlocked run with two
    RUNS = (
        RunResult("000", 2.0, True, 4.0, 0),
        RunResult("011", 2.0, False, None, 2),
        RunResult("000", 2.0, True, 2.5, 1),
        RunResult("001", 1.5, False, 0.1, 0),
    )

    def test_only_the_runs_are_settable(self):
        assert [f.name for f in dataclasses.fields(RunStats)] == ["run_results"]

    def test_aggregates_derive_from_the_runs(self):
        stats = RunStats(self.RUNS)
        assert stats.runs == 4
        assert list(stats.histogram.items()) == [("000", 2), ("011", 1), ("001", 1)]
        assert stats.success_rate == 0.5
        assert stats.mean_lock_period == (4.0 + 2.5 + 0.1) / 3
        assert stats.locked_fraction == 0.75
        assert stats.unresolved_rate == 3 / 12

    def test_no_locked_run(self):
        stats = RunStats((self.RUNS[1],))
        assert stats.mean_lock_period is None
        assert stats.locked_fraction == 0.0
        assert (stats.success_rate, stats.unresolved_rate) == (0.0, 2 / 3)

    def test_histogram_edits_leave_the_stats_unchanged(self):
        stats = RunStats(self.RUNS)
        histogram = stats.histogram
        histogram["000"] = 99
        histogram["111"] = 1
        assert stats.histogram == {"000": 2, "011": 1, "001": 1}
        assert stats == RunStats(self.RUNS)

    def test_needs_a_run(self):
        # every aggregate divides by the run count or reads the first run
        with pytest.raises(ValueError, match="at least one run"):
            RunStats(())

    def test_run_records_keep_no_instance_dict(self):
        assert not hasattr(self.RUNS[0], "__dict__")

    @pytest.mark.parametrize("bitstring", ["1", "10", "111"])
    def test_run_must_be_reference_normalized(self, bitstring):
        with pytest.raises(ValueError, match="reference-normalized"):
            RunResult(bitstring, 1.0, True, None, 0)


class TestSchedule:
    @pytest.mark.parametrize("field", ["free_run_periods", "settle_periods"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RunSchedule(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, -1e-300])
    def test_negative_free_run_rejected(self, value):
        with pytest.raises(ValueError, match="nonnegative"):
            RunSchedule(free_run_periods=value)


class TestSweep:
    def test_rows_and_determinism(self):
        m = build_machine(TRIANGLE)
        rows1 = sweep_coupling(TRIANGLE, m, scales=(0.1, 0.2), runs_per_point=10, seed=3)
        rows2 = sweep_coupling(TRIANGLE, m, scales=(0.1, 0.2), runs_per_point=10, seed=3)
        assert rows1 == rows2
        assert [scale for scale, _ in rows1] == [0.1, 0.2]

    def test_row_i_is_run_many_at_scale_i(self):
        scales = (0.1, 0.25, 0.4)
        m = build_machine(TRIANGLE, noise_sigma=0.05)
        rows = sweep_coupling(TRIANGLE, m, scales=scales, runs_per_point=6, seed=19)
        for i, (scale, stats) in enumerate(rows):
            child = np.random.SeedSequence(19).spawn(len(scales))[i]
            scaled = dataclasses.replace(m, global_scale=scales[i])
            assert type(scale) is float and scale == scales[i]
            assert stats == run_many(TRIANGLE, scaled, runs=6, seed=child)

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
        baseline = len(oracle_max_cut(g)[1]) / 2 ** (g.n - 1)
        assert rows[0][1].success_rate == pytest.approx(baseline, abs=0.1)

    def test_best_operating_point_prefers_clean(self):
        # success 0.95 with no unresolved spin against 0.99 with half unresolved
        clean = RunStats(tuple(RunResult("01", 1.0, k > 0, 5.0, 0) for k in range(20)))
        ambiguous = RunStats(tuple(RunResult("01", 1.0, k > 0, None, 1) for k in range(100)))
        assert best_operating_point([(0.1, clean), (0.2, ambiguous)]) == (0.1, clean)


class TestOptimalBitstrings:
    def test_single_edge(self):
        assert oracle_max_cut(EDGE)[1] == ("01",)

    def test_triangle_has_three(self):
        assert oracle_max_cut(TRIANGLE)[1] == ("001", "010", "011")

    def test_cache_keeps_the_last_graph_only(self):
        oracle_max_cut(EDGE)
        oracle_max_cut(TRIANGLE)
        assert oracle_max_cut.cache_info().currsize == 1
