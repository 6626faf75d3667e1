"""Circuit backend: startup, calibration, amplitude, sync response, locking."""

import numpy as np
import pytest

from oscim import readout
from oscim.circuit_dynamics import (
    CircuitTrace,
    OscParams,
    _integrate_network,
    _make_output_solver,
    _protocol_run,
    calibrate,
    calibrated_params,
    free_run_trace,
    measure_free_run_frequency,
    phases_to_network_state,
    run_trace,
    steady_amplitude,
)
from oscim.harness import RunSchedule, run_many, run_seeds
from oscim.machine import build_machine
from oscim.problems import Graph

TWO_PI = 2 * np.pi
F0 = 3800.0
TRIANGLE = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 0.8), (1, 3, 0.6)))


@pytest.fixture(scope="module")
def params():
    return calibrated_params(F0)


def loop_matrix(gain):
    # linearized free oscillator in capacitor-charge coordinates, units 1/RC
    a = gain / (1.0 + gain)
    return np.array([
        [3 * a - 3, 3 * a - 2, 3 * a - 1],
        [2 * a - 2, 2 * a - 2, 2 * a - 1],
        [a - 1, a - 1, a - 1],
    ])


class TestOscillationCondition:
    def test_threshold_at_gain_29(self):
        assert np.linalg.eigvals(loop_matrix(28.0)).real.max() < 0
        assert np.linalg.eigvals(loop_matrix(29.0)).real.max() == pytest.approx(0, abs=1e-9)
        assert np.linalg.eigvals(loop_matrix(30.0)).real.max() > 0

    def test_small_perturbation_grows(self, params):
        q0 = np.full((1, 3), 1e-3)
        times, outputs, _ = _integrate_network(
            q0, np.zeros(1), np.zeros((1, 1)), 0.0, F0, False, params, 1.0,
            25.0 / F0, 400, 4, F0,
        )
        early = np.abs(outputs[: len(times) // 10, 0]).max()
        late = np.abs(outputs[-len(times) // 10:, 0]).max()
        assert late > 3 * early

    def test_gain_must_exceed_threshold(self):
        with pytest.raises(ValueError, match="gain"):
            OscParams(gain=25.0)


class TestOscillatorDerivative:
    def test_quiescent_point(self):
        # zero charges and zero sync drive: the output solves to 0 from any guess
        u = _make_output_solver(OscParams())(np.zeros(3), np.full(3, 0.7))
        assert np.allclose(u, 0.0, atol=1e-12)

    def test_dc_sync_inverts(self):
        # a positive DC sync offset settles the output negative
        p = OscParams()
        solve = _make_output_solver(p)
        assert float(solve(np.array(-p.sync_gain * 0.5), np.zeros(()))) < 0
        assert float(solve(np.array(-p.sync_gain * -0.5), np.zeros(()))) > 0


class TestSolver:
    def test_residuals_from_random_starts(self):
        p = OscParams()
        rng = np.random.default_rng(3)
        c = rng.normal(0, 2.0, 500)
        guess = rng.normal(0, 2.0, 500)
        u = _make_output_solver(p)(c, guess)
        sat_level = p.sat_level
        x = p.gain * (c - u)
        res = u - np.where(x >= 0, sat_level * np.tanh(x / sat_level),
                           sat_level * np.tanh(x / sat_level))
        assert np.max(np.abs(res)) < 1e-9

    def test_batch_equals_elementwise(self):
        # convergence is judged per element, so batch-mates cannot move a result
        solve = _make_output_solver(OscParams())
        rng = np.random.default_rng(3)
        c = rng.normal(0, 2.0, 500)
        guess = rng.normal(0, 2.0, 500)
        batch = solve(c, guess)
        alone = np.array([solve(c[i:i + 1], guess[i:i + 1])[0] for i in range(500)])
        assert np.array_equal(batch, alone)


class TestFrequencyMeasurement:
    def test_synthetic_sine(self):
        t = np.arange(0, 30 / F0, 1 / (F0 * 400))
        u = np.sin(TWO_PI * F0 * t)
        trace = CircuitTrace(times=t, outputs=u[:, None],
                             sync_flags=np.zeros(len(t), bool))
        assert measure_free_run_frequency(trace) == pytest.approx(F0, abs=1.0)

    def test_dc_trace_raises(self):
        t = np.arange(0, 30 / F0, 1 / (F0 * 400))
        trace = CircuitTrace(times=t, outputs=np.full((len(t), 1), 0.7),
                             sync_flags=np.zeros(len(t), bool))
        with pytest.raises(RuntimeError, match="no oscillation"):
            measure_free_run_frequency(trace)

    def test_calibrated_frequency(self, params):
        f = measure_free_run_frequency(free_run_trace(params, 40.0, F0))
        assert abs(f - F0) / F0 < 0.05


class TestCalibration:
    def test_analytic_seed_for_3800(self):
        rc = 1.0 / (TWO_PI * 3800.0 * np.sqrt(6.0))
        assert rc == pytest.approx(1.709e-5, rel=1e-3)
        p = calibrate(OscParams(), 3800.0)
        assert p.rc == pytest.approx(rc, rel=0.05)

    def test_half_frequency_doubles_rc(self):
        hi = calibrate(OscParams(), 3800.0)
        lo = calibrate(OscParams(), 1900.0)
        assert lo.rc / hi.rc == pytest.approx(2.0, rel=0.05)

    def test_already_calibrated_fixed_point(self, params):
        again = calibrate(params, F0)
        assert again.rc == pytest.approx(params.rc, rel=0.01)


class TestAmplitude:
    def test_regulated_within_two_percent(self, params):
        vpps = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            q0 = rng.normal(0, 0.2 * params.sat_level * (seed), (1, 3))
            times, outputs, _ = _integrate_network(
                q0, np.zeros(1), np.zeros((1, 1)), 0.0, F0, False, params, 1.0,
                35.0 / F0, 400, 4, F0,
            )
            trace = CircuitTrace(times=times, outputs=outputs[:, :],
                                 sync_flags=np.zeros(len(times), bool))
            vpps.append(steady_amplitude(trace))
        assert abs(vpps[0] - vpps[1]) / vpps[0] < 0.02

    def test_four_volts_peak_to_peak(self, params):
        vpp = steady_amplitude(free_run_trace(params, 35.0, F0))
        assert abs(vpp - 4.0) / 4.0 < 0.10


@pytest.fixture(scope="module")
def locked_pair(params):
    w = 0.25
    W = np.array([[0.0, w], [w, 0.0]])
    theta0 = np.array([0.8, 2.1])
    q0, s0 = phases_to_network_state(theta0, params, F0)
    times, outputs, _ = _integrate_network(
        q0[None], s0[None], W, 0.25 * params.sat_level, 2 * F0, True, params,
        np.ones((1, 2)), 30.0 / F0, 400, 4, F0,
    )
    return times, outputs[:, 0, :], w


class TestCoupledPair:

    def test_antiphase_outputs(self, locked_pair):
        times, outputs, _ = locked_pair
        i0 = int(len(times) * 0.7)
        u1, u2 = outputs[i0:, 0], outputs[i0:, 1]
        corr = np.mean(u1 * u2) / np.sqrt(np.mean(u1**2) * np.mean(u2**2))
        assert corr < -0.9

    def test_sync_to_output_phase_is_pi(self, locked_pair):
        times, outputs, w = locked_pair
        i0 = int(len(times) * 0.7)
        t = times[i0:]
        sync_drive = w * outputs[i0:, 1]  # what oscillator 1 receives
        out = outputs[i0:, 0]

        def phase_of(x):
            return np.arctan2(2 * np.mean(x * np.cos(TWO_PI * F0 * t)),
                              2 * np.mean(x * np.sin(TWO_PI * F0 * t)))

        dphi = np.degrees((phase_of(out) - phase_of(sync_drive) + np.pi) % TWO_PI - np.pi)
        assert abs(abs(dphi) - 180.0) < 10.0


@pytest.fixture(scope="module")
def edge_trace(params):
    m = build_machine(Graph(n=2, edges=((1, 2, 1.0),)), global_scale=0.2, f0=F0)
    return run_trace(m, RunSchedule(free_run_periods=20.0, settle_periods=5.0), seed=4)


class TestSimulateCircuit:
    def test_free_running_machine_trace(self, edge_trace):
        assert edge_trace.n == 2
        # sync off for the free interval: 100 samples per period over 20 periods
        assert abs(int((~edge_trace.sync_flags).sum()) - 2000) <= 2
        assert not edge_trace.sync_flags[:2000].any()

    def test_divergence_guard_is_quiet_on_normal_runs(self, edge_trace):
        assert np.isfinite(edge_trace.outputs).all()
        assert edge_trace.sync_flags[-500:].all()

    def test_trace_is_run_zero_of_the_batch(self, params):
        # after 5.25 free periods a SHIL clock carried on from the free interval
        # would be half a cycle off the one every batch run restarts at gate-on
        m = build_machine(TRIANGLE, global_scale=0.2, f0=F0)
        sched = RunSchedule(free_run_periods=5.25, settle_periods=10.0)
        trace = run_trace(m, sched, seed=3)
        _, u_free, _, u_on = _protocol_run(m, sched, run_seeds(3, 2))
        assert np.array_equal(trace.outputs, np.concatenate([u_free[:, 0], u_on[:, 0]]))


class TestGateIndependence:
    def test_gated_network_equals_isolated_runs(self, params):
        W = np.array([[0.0, 0.3], [0.3, 0.0]])
        rng = np.random.default_rng(8)
        q0 = rng.normal(0, 0.3, (1, 2, 3))
        s0 = np.zeros((1, 2))
        _, joint, _ = _integrate_network(
            q0, s0, W, 0.5, 2 * F0, False, params, 1.0, 10.0 / F0, 400, 4, F0,
        )
        for k in range(2):
            _, alone, _ = _integrate_network(
                q0[:, k:k + 1, :], s0[:, k:k + 1], np.zeros((1, 1)), 0.0, 2 * F0,
                False, params, 1.0, 10.0 / F0, 400, 4, F0,
            )
            assert np.allclose(joint[:, 0, k], alone[:, 0, 0], atol=1e-12)


class TestBatchIndependence:
    def test_batched_runs_equal_runs_alone(self, params, monkeypatch):
        # record the detector values behind run_many: one batch of
        # run_seeds(712, 4), then each of those seeds alone
        values = []
        real = readout.phase_detector

        def recording(*args):
            out = real(*args)
            values.append(out)
            return out

        monkeypatch.setattr(readout, "phase_detector", recording)
        m = build_machine(TRIANGLE, global_scale=0.2, f0=F0)
        sched = RunSchedule(free_run_periods=5.0, settle_periods=15.0)
        batched = run_many(TRIANGLE, m, "circuit", sched, runs=4, seed=712)
        alone = run_many(TRIANGLE, m, "circuit", sched, runs=4, seed=712, parallel=False)
        assert [v.shape for v in values] == [(4, 2)] + [(1, 2)] * 4
        assert np.array_equal(values[0], np.concatenate(values[1:]))  # bit for bit
        assert batched.run_results == alone.run_results
