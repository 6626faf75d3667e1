"""Circuit backend: startup, calibration, amplitude, sync response, locking."""

import re
import warnings

import numpy as np
import pytest

from oscim import circuit_dynamics, readout
from oscim.circuit_dynamics import (
    GAIN,
    GAIN_THRESHOLD,
    SAT_LEVEL,
    SYNC_GAIN,
    CircuitTrace,
    OscParams,
    _free_run_single,
    _integrate_network,
    _protocol_run,
    _seeded_settle,
    _solve_output,
    calibrated_params,
    free_run_trace,
    measure_free_run_frequency,
    phases_to_network_state,
    run_trace,
    steady_amplitude,
)
from oscim.errors import SimulationDiverged
from oscim.harness import RunSchedule, run_many, run_seeds
from oscim.machine import build_machine, effective_weights
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
        state0 = np.array([[1e-3, 1e-3, 1e-3, 0.0]])
        times, outputs, _ = _integrate_network(
            state0, np.zeros((1, 1)), 0.0, False, params.rc * F0, 1.0, 25.0,
        )
        early = np.abs(outputs[: len(times) // 10, 0]).max()
        late = np.abs(outputs[-len(times) // 10:, 0]).max()
        assert late > 3 * early

    def test_gain_must_exceed_threshold(self):
        assert GAIN > GAIN_THRESHOLD


class TestOscillatorDerivative:
    def test_quiescent_point(self):
        # zero charges and zero sync drive: the output solves to 0 from any guess
        u = _solve_output(np.zeros(3), np.full(3, 0.7))
        assert np.allclose(u, 0.0, atol=1e-12)

    def test_dc_sync_inverts(self):
        # a positive DC sync offset settles the output negative
        assert float(_solve_output(np.array(-SYNC_GAIN * 0.5), np.zeros(()))) < 0
        assert float(_solve_output(np.array(-SYNC_GAIN * -0.5), np.zeros(()))) > 0


class TestSolver:
    def test_residuals_from_random_starts(self):
        rng = np.random.default_rng(3)
        c = rng.normal(0, 2.0, 500)
        guess = rng.normal(0, 2.0, 500)
        u = _solve_output(c, guess)
        x = GAIN * (c - u)
        res = u - SAT_LEVEL * np.tanh(x / SAT_LEVEL)
        assert np.max(np.abs(res)) < 1e-9

    def test_batch_equals_elementwise(self):
        # convergence is judged per element, so batch-mates cannot move a result
        solve = _solve_output
        rng = np.random.default_rng(3)
        c = rng.normal(0, 2.0, 500)
        guess = rng.normal(0, 2.0, 500)
        batch = solve(c, guess)
        alone = np.array([solve(c[i:i + 1], guess[i:i + 1])[0] for i in range(500)])
        assert np.array_equal(batch, alone)


class TestDivergence:
    def test_solver_nan_input_gives_nan_output(self):
        solve = _solve_output
        assert np.isnan(solve(np.array([np.nan]), np.array([0.5]))).all()
        # a NaN element leaves its batch-mates as they are alone
        u = solve(np.array([np.nan, 0.3]), np.array([0.5, 0.5]))
        assert np.isnan(u[0])
        assert u[1] == solve(np.array([0.3]), np.array([0.5]))[0]

    def test_names_first_non_finite_output_sample(self):
        state0 = np.zeros((2, 2, 4))
        state0[1, 0, 0] = np.nan  # run 1, oscillator 0, at t=0
        # the first output sample lands at 1/SAMPLES_PER_PERIOD of a period on
        # every rung: here 2 of the 200 steps per period
        with pytest.raises(SimulationDiverged,
                           match=r"t=1\.000000e-02 periods \(run 1, oscillator 0\)"):
            _integrate_network(
                state0, np.zeros((2, 2)), 0.0, False, OscParams().rc * F0, 1.0, 0.1,
            )

    def test_end_state_check_names_run_and_oscillator(self):
        # fewer steps than one sample stride store no sample, so only the
        # end-state check sees it
        stride = circuit_dynamics.DEFAULT_STEPS_PER_PERIOD // circuit_dynamics.SAMPLES_PER_PERIOD
        state0 = np.zeros((2, 2, 4))
        state0[1, 0, 0] = np.nan
        with pytest.raises(SimulationDiverged, match=r"non-finite circuit state at "
                                                     r"t=.* periods \(run 1, oscillator 0\)"):
            _integrate_network(
                state0, np.zeros((2, 2)), 0.0, False, OscParams().rc * F0, 1.0,
                (stride - 1) / circuit_dynamics.DEFAULT_STEPS_PER_PERIOD,
            )

    def test_diverged_run_stops_at_its_first_sample(self, monkeypatch):
        # one NaN charge over a 50-period window: the run must stop at the
        # first stored sample (one stride of RK4 steps of 4 solves, plus that
        # sample's) instead of integrating all 10 000 steps before the check
        stride = circuit_dynamics.DEFAULT_STEPS_PER_PERIOD // circuit_dynamics.SAMPLES_PER_PERIOD
        calls = []
        real = circuit_dynamics._solve_output

        def counting(c, guess):
            calls.append(1)
            assert len(calls) <= 3 * stride * 4, "integration went on past divergence"
            return real(c, guess)

        monkeypatch.setattr(circuit_dynamics, "_solve_output", counting)
        state0 = np.zeros((2, 2, 4))
        state0[0, 1, 2] = np.nan
        with pytest.raises(SimulationDiverged, match=r"\(run 0, oscillator 1\)"):
            _integrate_network(
                state0, np.zeros((2, 2)), 0.0, False, OscParams().rc * F0, 1.0, 50.0,
            )


def reference_rk4_step(state, W, shil_volts, p, rc_scale, f0):
    """One RK4 step written out from the module docstring's ladder equations.

    state is (B, n, 4) = (q1, q2, q3, s) with sync on; each stage's output is
    solved from zero, not from the integrator's predicted warm start.
    """
    rc = p.rc * rc_scale

    def derivative(st, t):
        q1, q2, q3, s = (st[..., k] for k in range(4))
        u = _solve_output(q1 + q2 + q3 - SYNC_GAIN * s, np.zeros(q1.shape))
        v1 = u - q1
        v2 = v1 - q2
        v3 = v2 - q3
        coupled = np.einsum("ij,bj->bi", W, u)
        drive = shil_volts * np.sin(TWO_PI * 2.0 * f0 * t)
        return np.stack([
            (v1 + v2 + v3) / rc,
            (v2 + v3) / rc,
            v3 / rc,
            (coupled + drive - s) * circuit_dynamics.SUMMER_RATIO / p.rc,
        ], axis=-1)

    dt = 1.0 / (f0 * circuit_dynamics.DEFAULT_STEPS_PER_PERIOD)
    k1 = derivative(state, 0.0)
    k2 = derivative(state + 0.5 * dt * k1, 0.5 * dt)
    k3 = derivative(state + 0.5 * dt * k2, 0.5 * dt)
    k4 = derivative(state + dt * k3, dt)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestFusedStage:
    def test_one_step_equals_the_ladder_equations(self):
        # sync on, coupling, SHIL and a distinct RC per oscillator and run, so a
        # derivative landing on the wrong capacitor or scaled by the wrong
        # oscillator's RC moves the state by millivolts, not 1e-12 V
        p = OscParams()
        rng = np.random.default_rng(21)
        state0 = np.concatenate([rng.normal(0.0, 1.0, (2, 3, 3)),
                                 rng.normal(0.0, 0.3, (2, 3))[..., None]], axis=-1)
        W = np.array([[0.0, 0.3, -0.2], [0.3, 0.0, 0.25], [-0.2, 0.25, 0.0]])
        rc_scale = np.array([[0.9, 1.0, 1.12], [1.05, 0.95, 1.2]])
        shil = 0.25 * SAT_LEVEL
        one_step = 1.0 / circuit_dynamics.DEFAULT_STEPS_PER_PERIOD  # in periods
        _, _, end = _integrate_network(state0, W, shil, True, p.rc * F0, rc_scale, one_step)
        ref = reference_rk4_step(state0, W, shil, p, rc_scale, F0)
        assert np.abs(end - ref).max() < 1e-12


def triangle_settle(spp=None, monkeypatch=None):
    """Settle (times, outputs) of the criterion-9 triangle, run_seeds(712, 4),
    5 free + 15 settle periods, at the machine's own rung or a forced spp."""
    if spp is not None:
        monkeypatch.setattr(circuit_dynamics, "steps_per_period_for", lambda m, p: spp)
    m = build_machine(TRIANGLE, global_scale=0.2, f0=F0)
    sched = RunSchedule(free_run_periods=5.0, settle_periods=15.0)
    _, _, t_on, u_on, _ = _protocol_run(m, sched, run_seeds(712, 4))
    return t_on, u_on


def detector_values(outputs):
    return readout.phase_detector(outputs[..., 1:], outputs[..., :1],
                                  circuit_dynamics.SAMPLES_PER_PERIOD)


@pytest.fixture(scope="module")
def triangle_at_its_rung(params):
    return triangle_settle()


class TestPinnedTrajectory:
    # settle outputs (V) of triangle_settle at the triangle's rung (200 steps
    # per period), at samples 0, 499, 999 and 1499 of 1500; rows are runs,
    # columns oscillators.  Most detector values saturate at +-1, so these
    # voltages are the sharp check on the kernel.
    PINNED = {
        0: [[0.299262530291, 0.207724901479, -0.708419759065],
            [1.540736919918, 1.562556570366, 1.005007665220],
            [1.133394667602, 1.153498143988, -0.322670053606],
            [1.811023185835, -1.944418713589, 0.355323538250]],
        499: [[1.043086551488, -1.122812769737, 0.956279066630],
              [0.193917196650, -0.952672563771, 1.367185649879],
              [1.484915495349, -1.051040640793, 0.513603685333],
              [1.279510291846, 0.524604295376, -1.082647177620]],
        999: [[0.851328237348, -1.361181901625, 1.664823344765],
              [-0.558344036026, 0.403794794592, 1.585489245342],
              [1.317809278327, -1.751228744567, 1.505764189350],
              [0.498454002554, 1.448329237050, -1.720536883599]],
        1499: [[0.387443351718, -0.673901025716, 1.990177131951],
               [-0.777355995743, 0.968474414506, 0.706077690881],
               [0.851777113162, -1.152046787074, 2.154599271798],
               [-0.358896707202, 2.142745460001, -2.053473882958]],
    }

    def test_settle_outputs_match_pinned_values(self, triangle_at_its_rung):
        _, u_on = triangle_at_its_rung
        assert u_on.shape == (1500, 4, 3)
        for i, values in self.PINNED.items():
            assert np.allclose(u_on[i], values, rtol=0.0, atol=1e-9), i


K8 = Graph(n=8, edges=tuple((i, j, 1.0) for i in range(1, 9) for j in range(i + 1, 9)))


class TestStepRungs:
    def test_every_rung_stores_whole_samples(self):
        assert circuit_dynamics.DEFAULT_STEPS_PER_PERIOD == circuit_dynamics.STEP_RUNGS[0]
        assert list(circuit_dynamics.STEP_RUNGS) == sorted(circuit_dynamics.STEP_RUNGS)
        for spp in circuit_dynamics.STEP_RUNGS:
            assert spp % circuit_dynamics.SAMPLES_PER_PERIOD == 0, spp

    @pytest.mark.parametrize("graph, scale, spp", [
        (TRIANGLE, 0.2, 200),  # criterion 9, and the circuit tests' triangles
        (Graph(n=2, edges=((1, 2, 1.0),)), 0.2, 200),
        (Graph(n=2, edges=((1, 2, 1.0),)), 0.25, 200),  # demo 05
        (K8, 6.0, 400),  # row sum 42: the summers are too stiff for 200
    ], ids=["triangle", "edge", "edge-0.25", "K8-scale-6"])
    def test_rule(self, params, graph, scale, spp):
        m = build_machine(graph, global_scale=scale, f0=F0)
        assert circuit_dynamics.steps_per_period_for(m, params) == spp


class TestBelowStabilityFloor:
    @staticmethod
    def run_triangle_at_100_steps(params, sync_on):
        m = build_machine(TRIANGLE, global_scale=0.2, f0=F0)
        state0 = phases_to_network_state(np.array([[0.3, 2.0, 4.1]]), params, F0)
        _integrate_network(
            state0, effective_weights(m),
            circuit_dynamics.resolve_shil_voltage(m), sync_on, params.rc * F0,
            np.ones((1, 3)), 20.0, spp=100,
        )

    def test_triangle_diverges_at_100_steps(self, params):
        # the summer lag alone puts |lambda|*h near 3.1 at 100 steps per
        # period, past RK4's real-axis limit of about 2.785
        with pytest.raises(SimulationDiverged):
            self.run_triangle_at_100_steps(params, True)

    @pytest.mark.parametrize("sync_on", [True, False], ids=["sync-on", "sync-off"])
    def test_divergence_raises_without_numpy_warnings(self, params, sync_on):
        # with sync off the outputs stay finite and the end-state check raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDiverged):
                self.run_triangle_at_100_steps(params, sync_on)

    def test_k8_at_scale_6_forced_to_200_reads_wrong_spins(self, params, monkeypatch):
        # the rule gives this machine 400; at 200 the run stays finite but
        # silently reads every spin +1
        m = build_machine(K8, global_scale=6.0, f0=F0)
        sched = RunSchedule(free_run_periods=5.0, settle_periods=5.0)
        seeds = run_seeds(712, 2)[1:]
        spins, resolved = circuit_dynamics.run_readout_batch(m, sched, seeds)
        monkeypatch.setattr(circuit_dynamics, "steps_per_period_for", lambda m, p: 200)
        forced, forced_resolved = circuit_dynamics.run_readout_batch(m, sched, seeds)
        assert resolved.all() and forced_resolved.all()
        assert (forced == 1).all()
        assert not np.array_equal(spins, forced)


class TestStepAccuracy:
    def test_triangle_rung_matches_an_800_step_reference(self, triangle_at_its_rung,
                                                         monkeypatch):
        # RK4's error at 800 steps per period is 4^4 = 256 times smaller than
        # at 200, so the 800-step run stands in for the exact trajectory.
        # Run 1's second detector value (about 0.196) is unsaturated, so it
        # shows the step error that the saturated +-1 values hide.
        # Tolerances: 1e-5 on detector values, 1e-4 of the 0.1 dead-zone
        # edge, and 2e-5 V on outputs; measured 2.2e-6 and 5.7e-6 V.
        times, outputs = triangle_at_its_rung
        values = detector_values(outputs)
        ref_times, ref_outputs = triangle_settle(800, monkeypatch)
        ref_values = detector_values(ref_outputs)
        assert np.array_equal(times, ref_times)
        assert 0.15 < abs(values[1, 1]) < 0.25
        assert np.abs(values - ref_values).max() < 1e-5
        assert np.abs(outputs - ref_outputs).max() < 2e-5


class TestFrequencyMeasurement:
    def test_synthetic_sine(self):
        t = np.arange(0, 30, 1 / 400)  # periods
        u = np.sin(TWO_PI * t)
        trace = CircuitTrace(times=t, outputs=u[:, None],
                             sync_flags=np.zeros(len(t), bool))
        assert measure_free_run_frequency(trace) * F0 == pytest.approx(F0, abs=1.0)

    def test_dc_trace_raises(self):
        t = np.arange(0, 30, 1 / 400)
        trace = CircuitTrace(times=t, outputs=np.full((len(t), 1), 0.7),
                             sync_flags=np.zeros(len(t), bool))
        with pytest.raises(RuntimeError, match="no oscillation"):
            measure_free_run_frequency(trace)

    def test_calibrated_frequency(self, params):
        f = measure_free_run_frequency(free_run_trace(params, 40.0, F0)) * F0
        assert abs(f - F0) / F0 < 0.05

    def test_flat_trace_raises(self):
        t = np.arange(0, 30, 1 / 400)
        trace = CircuitTrace(times=t, outputs=np.zeros((len(t), 1)),
                             sync_flags=np.zeros(len(t), bool))
        with pytest.raises(RuntimeError, match="flat trace"):
            measure_free_run_frequency(trace)


class TestCalibration:
    def test_analytic_seed_for_3800(self):
        rc = 1.0 / (TWO_PI * 3800.0 * np.sqrt(6.0))
        assert rc == pytest.approx(1.709e-5, rel=1e-3)
        p = calibrated_params(3800.0)
        assert p.rc == pytest.approx(rc, rel=0.05)

    @pytest.mark.parametrize("f0", [1e-310, 3e-308, 1e308])
    def test_f0_without_a_finite_resistor_is_refused(self, f0):
        with pytest.raises(ValueError, match=re.escape(f"f0={f0:g} Hz is out of range")):
            calibrated_params(f0)

    @pytest.mark.parametrize("f0", [0.0, -3800.0])
    def test_non_positive_f0_is_refused(self, f0):
        with pytest.raises(ValueError, match="target frequency must be positive"):
            calibrated_params(f0)

    def test_half_frequency_doubles_rc(self):
        hi = calibrated_params(3800.0)
        lo = calibrated_params(1900.0)
        assert lo.rc / hi.rc == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("f0", [1.0, 100.0, 3801.7, 1e7, 1e-300, 1e306, 1e307])
    def test_measured_fraction_is_the_same_at_every_f0(self, params, f0):
        # the circuit scales in time with RC and the seeded run takes the same
        # steps per period at every f0, so one check suffices for calibration:
        # the measured frequency, in cycles per period, is one fixed fraction
        f_ref, _ = _seeded_settle(params.rc * F0)
        f_meas, _ = _seeded_settle(calibrated_params(f0).rc * f0)
        assert f_meas == pytest.approx(f_ref, rel=1e-12, abs=0)
        assert f_ref == pytest.approx(0.998918810510049, rel=1e-12, abs=0)

    def test_off_target_measurement_raises(self, monkeypatch):
        monkeypatch.setattr(circuit_dynamics, "_seeded_settle",
                            lambda tau: (0.99, None))
        with pytest.raises(RuntimeError, match="calibration off target"):
            calibrated_params(2500.0)

    def test_only_r_is_settable(self):
        with pytest.raises(TypeError):
            OscParams(R=1000.0, C=2e-8)
        with pytest.raises(ValueError, match="R must be positive"):
            OscParams(R=0.0)


class TestSettleReuse:
    def test_calibrated_resistance_unchanged(self):
        # the analytic seed is accepted at both frequencies
        assert calibrated_params(3800.0).R == 1709.8614062142021
        assert calibrated_params(1900.0).R == 3419.7228124284043

    def test_table_equals_independent_settle(self, params):
        # the table starts from the end of calibration's 40-period run; a separate
        # 40-period settle from the same seeded start must give the same bits
        settled = _free_run_single(params.rc * F0, 40.0)[1]
        _, _, _, states = _integrate_network(
            settled, np.zeros((1, 1)), 0.0, False, params.rc * F0, 1.0, 1.0, record_states=True,
        )
        assert np.array_equal(_seeded_settle(params.rc * F0)[1], states[:, 0])

    def test_one_settle_per_time_constant(self, monkeypatch):
        # the settle depends on f0 only through tau = RC * f0, which takes two
        # adjacent floats over these f0, so two seeded runs serve them all
        misses = _seeded_settle.cache_info().misses
        f0s = (1900.0, 3800.0, 1e7, 1.0, 3801.7, 1e-300)
        taus = {calibrated_params(f0).rc * f0 for f0 in f0s}
        assert _seeded_settle.cache_info().misses - misses <= 2
        lo, hi = calibrated_params(1900.0), calibrated_params(1e7)
        tables = []

        def recording(tau):
            tables.append(_seeded_settle(tau)[1])
            return _seeded_settle(tau)

        monkeypatch.setattr(circuit_dynamics, "_seeded_settle", recording)
        phases_to_network_state(np.array([0.3, 2.0]), lo, 1900.0)
        phases_to_network_state(np.array([0.3, 2.0]), hi, 1e7)
        assert tables[0] is tables[1]
        for tau in taus:
            assert _seeded_settle(tau)[0] == 0.9989188105100489  # 0.998918810510049 to 15 digits


class TestCalibrationGrid:
    def test_calibration_steps_on_the_sample_grid(self, monkeypatch):
        # a fresh settle builds its calibration and table here (3100 Hz shares
        # its time constant with other f0, so the cache is cleared first);
        # each RK4 step makes four output solves and a run ending on a sample
        # one more
        _seeded_settle.cache_clear()
        calls = []
        real = circuit_dynamics._solve_output

        def counting(c, guess):
            calls.append(1)
            return real(c, guess)

        monkeypatch.setattr(circuit_dynamics, "_solve_output", counting)
        f0 = 3100.0
        p = calibrated_params(f0)
        # one seeded run, the analytic seed accepted: 40 periods at 100 steps,
        # then the table's one period at the base rung
        spp = circuit_dynamics.DEFAULT_STEPS_PER_PERIOD
        assert (len(calls) == 4 * 40 * circuit_dynamics.SAMPLES_PER_PERIOD + 1
                + 4 * spp + 1 == 16802)
        calls.clear()
        table = _seeded_settle(p.rc * f0)[1]
        # the cached table costs no further solve
        assert len(calls) == 0
        assert table.shape == (spp, 4)

    def test_free_run_matches_an_800_step_reference(self, params):
        # calibration's seeded 40-period run at 100 steps per period against the
        # same start at 800, whose RK4 error is 8^4 = 4096 times smaller.
        # The bounds are at least 3x the measured 6.6e-5 V on outputs, 1.65e-5 V
        # on the end state and 1.4e-7 relative on the measured frequency.
        state0 = np.zeros((1, 4))
        state0[:, :3] = np.random.default_rng(12345).normal(0.0, 0.4 * SAT_LEVEL, (1, 3))

        def free_run(spp):
            times, outputs, state = _integrate_network(
                state0, np.zeros((1, 1)), 0.0, False, params.rc * F0, 1.0, 40.0, spp,
            )
            trace = CircuitTrace(times=times, outputs=outputs,
                                 sync_flags=np.zeros(len(times), bool))
            return trace, state

        trace, state = free_run(circuit_dynamics.SAMPLES_PER_PERIOD)
        f_meas = _seeded_settle(params.rc * F0)[0]
        # the run above is calibration's own, bit for bit
        assert measure_free_run_frequency(trace) == f_meas
        assert np.array_equal(state, _free_run_single(params.rc * F0, 40.0)[1])
        ref_trace, ref_state = free_run(800)
        assert np.array_equal(trace.times, ref_trace.times)
        assert np.abs(trace.outputs - ref_trace.outputs).max() < 2.5e-4
        assert np.abs(state - ref_state).max() < 5e-5
        f_ref = measure_free_run_frequency(ref_trace)
        assert abs(f_meas - f_ref) / f_ref < 4.2e-7


class TestAmplitude:
    def test_regulated_within_two_percent(self, params):
        vpps = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            state0 = np.zeros((1, 4))
            state0[:, :3] = rng.normal(0, 0.2 * SAT_LEVEL * (seed), (1, 3))
            times, outputs, _ = _integrate_network(
                state0, np.zeros((1, 1)), 0.0, False, params.rc * F0, 1.0, 35.0,
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
    state0 = phases_to_network_state(theta0, params, F0)
    times, outputs, _ = _integrate_network(
        state0[None], W, 0.25 * SAT_LEVEL, True, params.rc * F0,
        np.ones((1, 2)), 30.0,
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
            return np.arctan2(2 * np.mean(x * np.cos(TWO_PI * t)),
                              2 * np.mean(x * np.sin(TWO_PI * t)))

        dphi = np.degrees((phase_of(out) - phase_of(sync_drive) + np.pi) % TWO_PI - np.pi)
        assert abs(abs(dphi) - 180.0) < 10.0


@pytest.fixture(scope="module")
def edge_trace(params):
    m = build_machine(Graph(n=2, edges=((1, 2, 1.0),)), global_scale=0.2, f0=F0)
    return run_trace(m, RunSchedule(free_run_periods=20.0, settle_periods=5.0), seed=4)


class TestSimulateCircuit:
    def test_free_running_machine_trace(self, edge_trace):
        assert edge_trace.outputs.shape[1] == 2
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
        _, u_free, _, u_on, _ = _protocol_run(m, sched, run_seeds(3, 2))
        assert np.array_equal(trace.outputs, np.concatenate([u_free[:, 0], u_on[:, 0]]))

    @pytest.mark.parametrize("whole_periods", [1, 0])
    def test_settle_times_continue_from_the_end_of_the_free_interval(
            self, params, whole_periods):
        # a free interval one step past whole periods ends between samples
        # (every stride-th step); the one-step one has no free sample at all
        m = build_machine(Graph(n=2, edges=((1, 2, 1.0),)), global_scale=0.2, f0=F0)
        spp = circuit_dynamics.steps_per_period_for(m, params)
        stride = spp // circuit_dynamics.SAMPLES_PER_PERIOD
        assert stride > 1
        free_steps = whole_periods * spp + 1
        trace = run_trace(m, RunSchedule(free_run_periods=free_steps / spp,
                                         settle_periods=5.0), seed=2)
        dt = 1.0 / spp  # periods
        assert int((~trace.sync_flags).sum()) == free_steps // stride
        settle_times = trace.times[trace.sync_flags]
        expected = (free_steps + stride * np.arange(1, len(settle_times) + 1)) * dt
        np.testing.assert_allclose(settle_times, expected, rtol=1e-12, atol=0)


class TestGateIndependence:
    def test_gated_network_equals_isolated_runs(self, params):
        W = np.array([[0.0, 0.3], [0.3, 0.0]])
        rng = np.random.default_rng(8)
        state0 = np.zeros((1, 2, 4))
        state0[..., :3] = rng.normal(0, 0.3, (1, 2, 3))
        _, joint, _ = _integrate_network(
            state0, W, 0.5, False, params.rc * F0, 1.0, 10.0,
        )
        for k in range(2):
            _, alone, _ = _integrate_network(
                state0[:, k:k + 1, :], np.zeros((1, 1)), 0.0,
                False, params.rc * F0, 1.0, 10.0,
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
