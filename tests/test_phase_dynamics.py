"""Phase backend: derivative law, integrator, energy descent, locking."""

import numpy as np
import pytest

from oscim.errors import SimulationDiverged
from oscim.machine import build_machine
from oscim.phase_dynamics import (
    DEFAULT_STEPS_PER_PERIOD,
    STEP_RUNGS,
    _rhs,
    binary_distance,
    coupling_terms,
    integrate_batch,
    network_energy,
    phase_derivative,
    random_initial_phases,
    simulate,
    steps_per_period_for,
    wrap_phase,
)
from oscim.harness import RunSchedule, phase_protocol_run, run_seeds
from oscim.problems import Graph
from oscim.readout import lock_period, spins_from_phases

TWO_PI = 2 * np.pi
EDGE = Graph(n=2, edges=((1, 2, 1.0),))


def machine_on(g=EDGE, **kw):
    return build_machine(g, **kw)


class TestPhaseDerivative:
    def test_antiphase_pair_is_stationary(self):
        m = machine_on(global_scale=0.25)
        d = phase_derivative(np.array([0.0, np.pi]), m)
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_sync_off_gives_detuning_only(self):
        m = build_machine(EDGE, global_scale=0.0, shil_amplitude=0.0, detuning=(0.01, -0.02))
        d = phase_derivative(np.array([0.3, 1.1]), m)
        assert np.allclose(d, [0.01, -0.02])

    def test_quarter_phase_magnitude(self):
        # theta = (0, pi/2), weight 0.2: coupling term magnitude 0.2 per
        # radian time; sign pushes the pair apart (antiphase stabilizing).
        m = machine_on(global_scale=0.2, shil_amplitude=0.0)
        d = phase_derivative(np.array([0.0, np.pi / 2]), m)
        assert d[0] == pytest.approx(-0.2, abs=1e-12)
        assert d[1] == pytest.approx(0.2, abs=1e-12)

    def test_positive_weight_destabilizes_in_phase(self):
        m = machine_on(global_scale=0.2, shil_amplitude=0.0)
        eps = 0.01
        d = phase_derivative(np.array([0.0, eps]), m)
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
            d = phase_derivative(theta, m)
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
        m = machine_on(global_scale=0.3, shil_amplitude=0.2)
        theta0 = [0.7, 2.9]
        _, ref = rk4_run(m, theta0, steps_per_period=3200)
        err1 = np.abs(rk4_run(m, theta0, steps_per_period=100)[1] - ref).max()
        err2 = np.abs(rk4_run(m, theta0, steps_per_period=200)[1] - ref).max()
        order = np.log2(err1 / err2)
        assert 3.5 < order < 4.5

    def test_simulate_rejects_noise(self, monkeypatch):
        # noisy runs belong to the run protocol, whose seeds fix the path
        def no_work(*args, **kwargs):
            raise AssertionError("integration started before the noise check")

        monkeypatch.setattr("oscim.phase_dynamics.integrate_batch", no_work)
        m = machine_on(noise_sigma=0.1)
        with pytest.raises(ValueError, match="simulate is noise-free"):
            simulate(m, np.zeros(2), duration_periods=0.01)

    def test_duration_shorter_than_one_step_rejected(self):
        # 0.001 periods round to zero steps at 200 per period; the call used
        # to return the initial sample alone, unintegrated
        m = machine_on()
        K, Ks = coupling_terms(m)
        with pytest.raises(ValueError, match=r"duration_periods=0\.001 is shorter "
                                             r"than one RK4 step \(1/200 period\)"):
            integrate_batch(np.array([[0.1, 0.2]]), K, Ks, np.zeros(2), 0.001)
        with pytest.raises(ValueError, match=r"\(1/100 period\)"):
            integrate_batch(np.array([[0.1, 0.2]]), K, Ks, np.zeros(2), 0.004,
                            steps_per_period=100)

    @pytest.mark.parametrize("spp", [1, 3, 7, 25, 40, 200])
    @pytest.mark.parametrize("duration", [0.3, 1.0, 2.5, 15.0])
    def test_last_step_is_the_last_sample(self, spp, duration):
        # the sample grid's last point lands on the last step, and a step is
        # stored at most once however coarse or fine the rung
        n_steps = round(duration * spp)
        args = (np.array([[0.1, 0.2]]), *coupling_terms(machine_on())[:2], np.zeros(2),
                duration)
        if n_steps < 1:
            with pytest.raises(ValueError, match="shorter than one RK4 step"):
                integrate_batch(*args, steps_per_period=spp)
            return
        times, thetas = integrate_batch(*args, steps_per_period=spp)
        assert times[-1] == n_steps * (1.0 / spp)
        assert np.all(np.diff(times) > 0)
        assert len(thetas) == len(times)

    def test_simulate_shorter_than_one_step_rejected(self):
        with pytest.raises(ValueError, match=r"duration_periods=0\.001 is shorter "
                                             r"than one RK4 step"):
            simulate(machine_on(), [0.1, 0.2], duration_periods=0.001)

    def test_diverged_run_stops_at_its_first_sample(self, monkeypatch):
        # a NaN coupling poisons the first step; the run must stop at the
        # first stored sample (step 12 of 200 per period), not after 50 periods
        import oscim.phase_dynamics as pd

        calls = []
        real_rk4 = pd._rk4

        def counting_rk4(*args):
            calls.append(1)
            return real_rk4(*args)

        monkeypatch.setattr(pd, "_rk4", counting_rk4)
        K = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(SimulationDiverged, match=r"t=0\.060 periods \(run 0, oscillator 0\)"):
            integrate_batch(np.array([[0.0, 1.0]]), K, 0.1, np.zeros(2), 50.0)
        assert len(calls) == 12

    def test_divergence_names_first_bad_sample(self):
        m = machine_on()
        K, Ks = coupling_terms(m)
        theta0 = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(SimulationDiverged, match=r"t=0\.000 periods \(run 1, oscillator 0\)"):
            integrate_batch(theta0, K, Ks, np.zeros(2), 3.0)


class TestOutsideInputChecks:
    @pytest.mark.parametrize("theta, message", [
        (np.zeros((1, 2)), "shape"),
        (np.zeros(3), "shape"),
        (np.array([0.1, np.nan]), "finite"),
    ], ids=["two-dimensional", "wrong-length", "nan"])
    def test_bad_phases_rejected_before_any_work(self, monkeypatch, theta, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the phases were checked")

        monkeypatch.setattr("oscim.phase_dynamics.integrate_batch", no_work)
        monkeypatch.setattr("oscim.phase_dynamics._rhs", no_work)
        m = machine_on()
        with pytest.raises(ValueError, match=message):
            simulate(m, theta, duration_periods=1.0)
        with pytest.raises(ValueError, match=message):
            phase_derivative(theta, m)


class TestRandomInitialPhases:
    def test_same_seed_same_phases(self):
        a = random_initial_phases(8, np.random.default_rng(5))
        b = random_initial_phases(8, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_initial_phases(8, np.random.default_rng(5))
        b = random_initial_phases(8, np.random.default_rng(6))
        assert not np.array_equal(a, b)

    def test_uniform_distribution(self):
        from scipy import stats

        draws = random_initial_phases(10_000, np.random.default_rng(123))
        _, p_value = stats.kstest(draws / TWO_PI, "uniform")
        assert p_value > 0.01


class TestSimulate:
    def test_constant_without_coupling_or_shil(self):
        g = Graph(n=2, edges=())
        m = build_machine(g, shil_amplitude=0.0)
        init = np.array([0.4, 1.9])
        _, thetas = simulate(m, init, duration_periods=3.0)
        assert np.allclose(thetas[-1], init, atol=1e-12)

    def test_two_oscillator_antiphase_lock(self):
        m = machine_on(global_scale=0.2)
        rng = np.random.default_rng(17)
        times, thetas = simulate(m, random_initial_phases(2, rng), duration_periods=12.0)
        mask = times >= 10.0
        dpsi = np.abs(wrap_phase(thetas[mask, 0] - thetas[mask, 1]) - np.pi)
        assert np.all(dpsi < 0.05)

    def test_energy_non_increasing(self):
        g = Graph(n=4, edges=((1, 2, 1.0), (2, 3, 0.5), (3, 4, 1.0), (1, 4, 0.75)))
        m = machine_on(g, global_scale=0.3)
        rng = np.random.default_rng(23)
        _, thetas = simulate(m, random_initial_phases(4, rng), duration_periods=10.0)
        energies = [network_energy(th, m) for th in thetas]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-8)

    def test_global_flip_symmetry(self):
        m = machine_on(global_scale=0.25)
        rng = np.random.default_rng(31)
        init = random_initial_phases(2, rng)
        shifted = wrap_phase(init + np.pi)
        _, thetas1 = simulate(m, init, duration_periods=5.0)
        _, thetas2 = simulate(m, shifted, duration_periods=5.0)
        assert np.allclose(
            wrap_phase(thetas2[-1]), wrap_phase(thetas1[-1] + np.pi), atol=1e-9
        )

    def test_binarization_with_shil(self):
        m = machine_on(global_scale=0.2)
        rng = np.random.default_rng(41)
        _, thetas = simulate(m, random_initial_phases(2, rng), duration_periods=20.0)
        assert np.all(binary_distance(thetas[-1]) < np.deg2rad(15))


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

    def test_noisy_protocol_run_at_benchmark_shape(self):
        """32 noisy seeded runs on a 20-vertex dyadic-weight graph: each row is its seed alone."""
        rng = np.random.default_rng(20)
        edges = tuple((i + 1, j + 1, float(rng.integers(1, 9)) / 4.0)
                      for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3)
        m = build_machine(Graph(n=20, edges=edges), noise_sigma=0.05)
        sched = RunSchedule()
        seeds = run_seeds(16, 32)
        times, batch = phase_protocol_run(m, sched, seeds)
        for b, seed in enumerate(seeds):
            t, single = phase_protocol_run(m, sched, [seed])
            assert np.array_equal(t, times)
            assert np.array_equal(single[:, 0, :], batch[:, b, :])


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

    def test_layout_does_not_change_bits(self):
        n, B = 20, 8
        rng = np.random.default_rng(7)
        K = 0.1 * random_coupling(rng, n)
        theta0 = rng.uniform(0, TWO_PI, (B, n))
        delta = rng.normal(0, 0.01, n)
        layouts = {
            "C": K,
            "Fortran": np.asfortranarray(K),
            "broadcast view": np.broadcast_to(K, (B, n, n)),
            "stacked copies": np.stack([K.copy() for _ in range(B)]),
        }
        runs = {name: integrate_batch(theta0, Kx, 0.2, delta, 10.0, steps_per_period=25)[1]
                for name, Kx in layouts.items()}
        for name, thetas in runs.items():
            assert np.array_equal(thetas, runs["C"]), name


class TestNoiseShape:
    """Pre-drawn noise: added as given after each step, rejected early if misshapen."""

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
                self.theta0, self.K, self.Ks, np.zeros(2), 1.0, noise=noise,
            )

    def test_too_few_steps(self, monkeypatch):
        self.expect_rejected(np.zeros((199, 3, 2)), monkeypatch)

    def test_one_row_shared_by_the_batch(self, monkeypatch):
        self.expect_rejected(np.zeros((200, 1, 2)), monkeypatch)

    def test_uncoupled_run_is_the_sum_of_its_noise(self):
        # with no coupling, SHIL or detuning an RK4 step leaves theta as it
        # is, so the run is theta0 plus the increments, summed in step order
        noise = np.random.default_rng(8).normal(0.0, 0.1, (40, 3, 2))
        _, thetas = integrate_batch(self.theta0, np.zeros((2, 2)), 0.0, np.zeros(2), 1.0,
                                    steps_per_period=40, noise=noise)
        expected = np.cumsum(np.concatenate([self.theta0[None], noise]), axis=0)[-1]
        assert np.array_equal(thetas[-1], expected)

    def test_every_rung_divides_the_noise_grid(self):
        # a coarse step's noise sums whole increments of the fine-grid path
        for spp in STEP_RUNGS:
            assert DEFAULT_STEPS_PER_PERIOD % spp == 0, spp


def bench_style_graph(rng, n=20, p=0.3):
    """Connected G(n, p) with dyadic weights in {1/4, ..., 2}."""
    while True:
        edges = [(u, v, float(rng.integers(1, 9) / 4.0))
                 for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        reach, frontier = {1}, [1]
        while frontier:
            x = frontier.pop()
            for u, v, _ in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reach:
                        reach.add(b)
                        frontier.append(b)
        if len(reach) == n:
            return Graph(n=n, edges=tuple(edges))


class TestStepRule:
    """The protocol run's step count follows the coupling's stiffness."""

    def test_sparse_weighted_graph_gets_the_coarsest_rung(self):
        rng = np.random.default_rng(20)
        for _ in range(4):
            m = build_machine(bench_style_graph(rng))
            assert steps_per_period_for(*coupling_terms(m)) == 25

    def test_no_coupling_gets_the_coarsest_rung(self):
        assert steps_per_period_for(np.zeros((3, 3)), 0.0) == 25

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_dense_graph_matches_a_finer_reference(self, scale):
        # K_24 at these scales reads wrong spins at 25 (and, at 1.0, 50)
        # steps per period; the rule must pick a step that agrees with 400
        n = 24
        k24 = Graph(n=n, edges=tuple(
            (u, v, 1.0) for u in range(1, n + 1) for v in range(u + 1, n + 1)))
        m = build_machine(k24, global_scale=scale)
        seeds = run_seeds(3, 8)
        times, thetas = phase_protocol_run(m, RunSchedule(settle_periods=10.0), seeds)
        theta0 = np.stack([random_initial_phases(n, np.random.default_rng(s))
                           for s in seeds])
        K, Ks = coupling_terms(m)
        ref_times, ref = integrate_batch(theta0, K, Ks, np.zeros(n), 10.0,
                                         steps_per_period=400)
        spins, resolved = spins_from_phases(thetas[-1])
        ref_spins, ref_resolved = spins_from_phases(ref[-1])
        assert np.array_equal(spins, ref_spins)
        assert np.array_equal(resolved, ref_resolved)
        locked = [t is not None for t in lock_period(times, thetas)]
        assert locked == [t is not None for t in lock_period(ref_times, ref)]
