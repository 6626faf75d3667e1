"""Phase backend: derivative law, integrator, energy descent, locking."""

import numpy as np
import pytest

from oscim.errors import SimulationDiverged
from oscim.machine import ShilConfig, build_machine, set_sync
from oscim.phase_dynamics import (
    PhaseState,
    _rhs,
    binary_distance,
    coupling_terms,
    integrate_batch,
    network_energy,
    phase_derivative,
    random_initial_phases,
    simulate,
    wrap_phase,
)
from oscim.problems import Graph

TWO_PI = 2 * np.pi
EDGE = Graph(n=2, edges=((1, 2, 1.0),))


def machine_on(g=EDGE, **kw):
    return set_sync(build_machine(g, **kw), True)


class TestPhaseDerivative:
    def test_antiphase_pair_is_stationary(self):
        m = machine_on(global_scale=0.25)
        d = phase_derivative(PhaseState(theta=np.array([0.0, np.pi])), m)
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_sync_off_gives_detuning_only(self):
        m = build_machine(EDGE, detuning=(0.01, -0.02))
        d = phase_derivative(PhaseState(theta=np.array([0.3, 1.1])), m)
        assert np.allclose(d, [0.01, -0.02])

    def test_quarter_phase_magnitude(self):
        # theta = (0, pi/2), weight 0.2: coupling term magnitude 0.2 per
        # radian time; sign pushes the pair apart (antiphase stabilizing).
        m = machine_on(global_scale=0.2, shil=ShilConfig(amplitude=0.0))
        d = phase_derivative(PhaseState(theta=np.array([0.0, np.pi / 2])), m)
        assert d[0] == pytest.approx(-0.2, abs=1e-12)
        assert d[1] == pytest.approx(0.2, abs=1e-12)

    def test_positive_weight_destabilizes_in_phase(self):
        m = machine_on(global_scale=0.2, shil=ShilConfig(amplitude=0.0))
        eps = 0.01
        d = phase_derivative(PhaseState(theta=np.array([0.0, eps])), m)
        # the small phase gap must widen
        assert d[1] - d[0] > 0

    def test_matches_negative_energy_gradient(self):
        rng = np.random.default_rng(42)
        g = Graph(n=5, edges=tuple(
            (u, v, float(rng.uniform(-1, 1)))
            for u in range(1, 6) for v in range(u + 1, 6) if rng.random() < 0.7
        ))
        m = machine_on(g, global_scale=0.3)
        h = 1e-6
        for _ in range(20):
            theta = rng.uniform(0, TWO_PI, 5)
            grad = np.zeros(5)
            for i in range(5):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                grad[i] = (network_energy(tp, m) - network_energy(tm, m)) / (2 * h)
            d = phase_derivative(PhaseState(theta=theta), m)
            assert np.allclose(d, -grad, atol=1e-6)


def rk4_run(m, theta0, steps_per_period, duration_periods=1.0):
    """Noise-free integrate_batch of one run; returns (times, final phases)."""
    K, Ks = coupling_terms(m)
    times, thetas = integrate_batch(
        np.asarray(theta0, float)[None, :], K, Ks, np.asarray(m.detuning),
        duration_periods, steps_per_period=steps_per_period,
    )
    return times, thetas[-1, 0]


class TestStep:
    def test_zero_derivative_keeps_state(self):
        m = machine_on()
        times, theta = rk4_run(m, [0.0, np.pi], steps_per_period=100, duration_periods=0.01)
        assert np.allclose(theta, [0.0, np.pi], atol=1e-14)
        assert times[-1] == pytest.approx(0.01)

    def test_deterministic_without_noise(self):
        m = machine_on(global_scale=0.25)
        _, a = rk4_run(m, [0.2, 2.3], steps_per_period=200, duration_periods=0.005)
        _, b = rk4_run(m, [0.2, 2.3], steps_per_period=200, duration_periods=0.005)
        assert np.array_equal(a, b)

    def test_rk4_convergence_order(self):
        # halving dt should shrink the global error ~16x over a fixed horizon
        m = machine_on(global_scale=0.3, shil=ShilConfig(amplitude=0.2))
        theta0 = [0.7, 2.9]
        _, ref = rk4_run(m, theta0, steps_per_period=3200)
        err1 = np.abs(rk4_run(m, theta0, steps_per_period=100)[1] - ref).max()
        err2 = np.abs(rk4_run(m, theta0, steps_per_period=200)[1] - ref).max()
        order = np.log2(err1 / err2)
        assert 3.5 < order < 4.5

    def test_noise_requires_rng(self):
        m = machine_on(noise_sigma=0.1)
        with pytest.raises(ValueError, match="rng"):
            simulate(m, PhaseState(theta=np.zeros(2)), duration_periods=0.01)

    def test_divergence_names_first_bad_sample(self):
        m = machine_on()
        K, Ks = coupling_terms(m)
        theta0 = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(SimulationDiverged, match=r"t=0\.000 periods \(run 1, oscillator 0\)"):
            integrate_batch(theta0, K, Ks, np.zeros(2), 3.0)


class TestRandomInitialPhases:
    def test_same_seed_same_phases(self):
        a = random_initial_phases(8, np.random.default_rng(5))
        b = random_initial_phases(8, np.random.default_rng(5))
        assert np.array_equal(a.theta, b.theta)

    def test_different_seeds_differ(self):
        a = random_initial_phases(8, np.random.default_rng(5))
        b = random_initial_phases(8, np.random.default_rng(6))
        assert not np.array_equal(a.theta, b.theta)

    def test_uniform_distribution(self):
        from scipy import stats

        draws = random_initial_phases(10_000, np.random.default_rng(123)).theta
        _, p_value = stats.kstest(draws / TWO_PI, "uniform")
        assert p_value > 0.01


class TestSimulate:
    def test_constant_without_coupling_or_shil(self):
        g = Graph(n=2, edges=())
        m = set_sync(build_machine(g, shil=ShilConfig(amplitude=0.0)), True)
        init = PhaseState(theta=np.array([0.4, 1.9]))
        trace = simulate(m, init, duration_periods=3.0)
        assert np.allclose(trace.thetas[-1], init.theta, atol=1e-12)

    def test_two_oscillator_antiphase_lock(self):
        m = machine_on(global_scale=0.2)
        rng = np.random.default_rng(17)
        trace = simulate(m, random_initial_phases(2, rng), duration_periods=12.0)
        mask = trace.times >= 10.0
        dpsi = np.abs(wrap_phase(trace.thetas[mask, 0] - trace.thetas[mask, 1]) - np.pi)
        assert np.all(dpsi < 0.05)

    def test_energy_non_increasing(self):
        g = Graph(n=4, edges=((1, 2, 1.0), (2, 3, 0.5), (3, 4, 1.0), (1, 4, 0.75)))
        m = machine_on(g, global_scale=0.3)
        rng = np.random.default_rng(23)
        trace = simulate(m, random_initial_phases(4, rng), duration_periods=10.0)
        energies = [network_energy(th, m) for th in trace.thetas]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-8)

    def test_global_flip_symmetry(self):
        m = machine_on(global_scale=0.25)
        rng = np.random.default_rng(31)
        init = random_initial_phases(2, rng)
        shifted = PhaseState(theta=wrap_phase(init.theta + np.pi))
        t1 = simulate(m, init, duration_periods=5.0)
        t2 = simulate(m, shifted, duration_periods=5.0)
        assert np.allclose(
            wrap_phase(t2.thetas[-1]), wrap_phase(t1.thetas[-1] + np.pi), atol=1e-9
        )

    def test_binarization_with_shil(self):
        m = machine_on(global_scale=0.2)
        rng = np.random.default_rng(41)
        trace = simulate(m, random_initial_phases(2, rng), duration_periods=20.0)
        assert np.all(binary_distance(trace.thetas[-1]) < np.deg2rad(15))


class TestBatchConsistency:
    def test_batched_equals_sequential_bitwise(self):
        g = Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))
        m = machine_on(g, global_scale=0.25)
        K, Ks = coupling_terms(m)
        rng = np.random.default_rng(9)
        theta0 = rng.uniform(0, TWO_PI, (4, 3))
        _, batch = integrate_batch(theta0, K, Ks, np.zeros(3), 5.0)
        for b in range(4):
            _, single = integrate_batch(theta0[b:b + 1], K, Ks, np.zeros(3), 5.0)
            assert np.array_equal(batch[:, b, :], single[:, 0, :])


def pairwise_rhs(theta, K, Ks, delta):
    """Reference derivative with the coupling summed over explicit pairs."""
    diff = theta[..., :, None] - theta[..., None, :]
    return delta - (K * np.sin(diff)).sum(axis=-1) - Ks * np.sin(2.0 * theta)


def random_coupling(rng, n, batch=()):
    K = rng.uniform(-1.0, 1.0, batch + (n, n))
    K = K + np.swapaxes(K, -1, -2)
    K[..., np.arange(n), np.arange(n)] = 0.0
    return K


class TestKernel:
    """The factored coupling sum: one row's bits whatever the batch, and the pairwise value."""

    @pytest.mark.parametrize("n", [3, 8, 20, 64])
    @pytest.mark.parametrize("per_run_K", [False, True], ids=["shared_K", "per_run_K"])
    def test_batch_equals_rows_and_pairwise_reference(self, n, per_run_K):
        B = 100
        rng = np.random.default_rng(n)
        theta = rng.uniform(0, TWO_PI, (B, n))
        K = random_coupling(rng, n, (B,) if per_run_K else ())
        delta = rng.normal(0, 0.01, n)
        batch = _rhs(theta, K, 0.3, delta)
        for b in range(B):
            Kb = K[b:b + 1] if per_run_K else K
            assert np.array_equal(batch[b:b + 1], _rhs(theta[b:b + 1], Kb, 0.3, delta))
        assert np.abs(batch - pairwise_rhs(theta, K, 0.3, delta)).max() < 1e-12


class TestNoiseShape:
    """Bad pre-drawn noise is rejected before the first RK4 step."""

    def setup_method(self):
        m = machine_on(global_scale=0.25)
        self.K, self.Ks = coupling_terms(m)
        self.theta0 = np.random.default_rng(4).uniform(0, TWO_PI, (3, 2))

    def expect_rejected(self, noise, monkeypatch):
        def no_step(*args):
            raise AssertionError("integration started before the noise check")

        monkeypatch.setattr("oscim.phase_dynamics._rk4", no_step)
        with pytest.raises(ValueError, match=r"noise must have shape \(steps, B, n\)"):
            integrate_batch(
                self.theta0, self.K, self.Ks, np.zeros(2), 1.0,
                noise_sigma=0.05, noise=noise,
            )

    def test_missing_noise(self, monkeypatch):
        self.expect_rejected(None, monkeypatch)

    def test_too_few_steps(self, monkeypatch):
        self.expect_rejected(np.zeros((199, 3, 2)), monkeypatch)

    def test_one_row_shared_by_the_batch(self, monkeypatch):
        self.expect_rejected(np.zeros((200, 1, 2)), monkeypatch)
