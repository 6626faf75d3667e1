"""Phase-reduced dynamics of the coupled oscillator network with SHIL.

Model
-----
Identical oscillators are simulated in the rotating frame at zero nominal
frequency; the resonance frequency f0 only fixes the time unit (one period
= 1/f0).  With tau denoting *radian* time (tau = 2*pi*f0*t_seconds), each
phase obeys

    dtheta_i/dtau = delta_i - sum_j K_ij sin(theta_i - theta_j)
                            - Ks * sin(2 theta_i)

where K = -(effective machine weights) is the coupling in the Ising
J-convention (a positive edge weight therefore *destabilizes* the in-phase
state and locks the pair in antiphase), delta_i are relative frequency
offsets and Ks is the SHIL injection strength pinning each phase to
{0, pi}.  K and Ks are the drives with the sync gate on; the gate-off
free run of the protocol is the draw of random initial phases.

The coupling sum is evaluated in the factored (mean-field) form

    sum_j K_ij sin(theta_i - theta_j)
        = sin(theta_i) (K cos theta)_i - cos(theta_i) (K sin theta)_i

so a run costs n sines and n cosines (which also give sin 2theta) and two
stacked ``np.matmul`` products, each one BLAS matrix-vector product per run
on a C-contiguous (n, n) block of K: no run's sums depend on the batch or on
K's layout, as one batch-wide GEMM's would (BLAS blocks it by batch size).

All user-facing times are measured in periods; rates returned by
``phase_derivative`` are per radian time, i.e. multiply by 2*pi to get
radians per period.

The flow with ``delta = 0`` is gradient descent of

    E(theta) = -sum_{i<j} K_ij cos(theta_i - theta_j)
               - (Ks/2) sum_i cos(2 theta_i)

so E is non-increasing along noise-free trajectories, and at binarized
states it coincides (up to a constant) with the programmed Ising energy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_finite
from .machine import MachineConfig, effective_weights, resolve_shil_strength

TWO_PI = 2.0 * np.pi

SAMPLES_PER_PERIOD = 16.0

# Step counts a protocol run may use.  Each divides a grid the Brownian bridge
# reaches, 25 * 2**k steps per period, so a step's noise is a sum of whole
# bridge increments and a seeded run keeps one Brownian path whatever its step.
STEP_RUNGS = (25, 40, 50, 100, 200)
DEFAULT_STEPS_PER_PERIOD = STEP_RUNGS[-1]

# A seed's phase noise is one Brownian path, in units of a grid of _NOISE_GRID
# steps per period (one unit of variance per grid step), drawn coarse-to-fine
# by Levy's construction: first one increment per 1/25-period step, variance
# _NOISE_GRID / 25, then, per halving, each increment w splits into
# w/2 + sd*Z and w/2 - sd*Z, sd being half the standard deviation of w.
_BRIDGE_STEPS_PER_PERIOD = 25
_NOISE_GRID = 200

_DIVERGED = "phase at t={t:.3f} periods"


def wrap_phase(theta):
    """Reduce phases to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def binary_distance(theta):
    """Distance in radians to the nearest multiple of pi.

    Computed in one new buffer of theta's shape, so a trajectory of samples
    costs one float copy; 0-d input gives a numpy scalar.
    """
    d = np.add(theta, np.pi / 2, out=np.empty(np.shape(theta)))
    np.mod(d, np.pi, out=d)
    np.subtract(d, np.pi / 2, out=d)
    return np.abs(d, out=d)[()]


def coupling_terms(m: MachineConfig) -> tuple[np.ndarray, float]:
    """(K, Ks) as seen by the dynamics with the sync gate on."""
    return -effective_weights(m), resolve_shil_strength(m)


def _rhs(theta, K, Ks, delta):
    # theta (..., n); K (..., n, n); Ks, delta broadcastable
    s, c = np.sin(theta), np.cos(theta)
    coup = s * np.matmul(K, c[..., None])[..., 0] - c * np.matmul(K, s[..., None])[..., 0]
    return delta - coup - (2.0 * Ks) * (s * c)


def _checked_phases(theta, m: MachineConfig) -> np.ndarray:
    """theta as a float array, checked to be (m.n,) and finite."""
    th = np.array(theta, dtype=float)
    if th.shape != (m.n,):
        raise ValueError(f"theta must have shape ({m.n},) for this machine, got {th.shape}")
    if not np.isfinite(th).all():
        raise ValueError("phases must be finite")
    return th


def phase_derivative(theta, m: MachineConfig) -> np.ndarray:
    """Rates dtheta/dtau per radian time (2*pi*f0*t_seconds) at phases theta (n,)."""
    K, Ks = coupling_terms(m)
    return _rhs(_checked_phases(theta, m), K, Ks, np.asarray(m.detuning))


def network_energy(theta, m: MachineConfig) -> float:
    """Lyapunov function of the noise-free, detuning-free flow.

    ``phase_derivative`` equals minus its gradient (per radian time); it is
    non-increasing along trajectories and, at binarized states, matches the
    programmed Ising energy up to the constant -n*Ks/2.
    """
    th = np.asarray(theta, dtype=float)
    K, Ks = coupling_terms(m)
    s, c = np.sin(th), np.cos(th)
    pair = -0.5 * float(c @ K @ c + s @ K @ s)  # each pair counted once
    return pair - 0.5 * Ks * float(np.cos(2.0 * th).sum())


def random_initial_phases(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform phases (n,) on [0, 2*pi): the free-run step of both backends' runs."""
    return rng.uniform(0.0, TWO_PI, n)


def steps_per_period_for(K, Ks) -> int:
    """Smallest STEP_RUNGS entry whose RK4 step resolves the coupling's stiffness.

    The Jacobian of the right-hand side has, by Gershgorin, every eigenvalue
    within L = 2 max_i sum_j |K_ij| + 2|Ks| of zero (per radian time); the
    step h = 2*pi/steps_per_period must keep h*L <= 1.  Couplings too stiff
    for every rung get the last, DEFAULT_STEPS_PER_PERIOD.
    """
    stiffness = 2.0 * float(np.abs(K).sum(axis=-1).max()) + 2.0 * abs(Ks)
    for spp in STEP_RUNGS:
        if TWO_PI / spp * stiffness <= 1.0:
            return spp
    return STEP_RUNGS[-1]


def _rk4(theta, K, Ks, delta, dt):
    # time in periods; rhs is per radian time
    h = TWO_PI * dt
    k1 = _rhs(theta, K, Ks, delta)
    k2 = _rhs(theta + 0.5 * h * k1, K, Ks, delta)
    k3 = _rhs(theta + 0.5 * h * k2, K, Ks, delta)
    k4 = _rhs(theta + h * k3, K, Ks, delta)
    return theta + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate_batch(
    theta0: np.ndarray,
    K: np.ndarray,
    Ks,
    delta,
    duration_periods: float,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over a batch of independent runs.

    theta0 has shape (B, n); K is (n, n) or (B, n, n); Ks and delta
    broadcast against (B, n).  Returns (times (S,), thetas (S, B, n)) with
    the initial sample included and SAMPLES_PER_PERIOD samples per period,
    or one per step when a step is longer than a sample interval.  The
    samples fill one block allocated before the first step, so the run
    holds S * B * n floats of trajectory and no per-sample copies.
    ``noise``, if given, has shape (steps, B, n): phase increments in
    radians, noise[k] added after RK4 step k.  A duration shorter than one
    step, or misshapen noise, raises ValueError before the first step.  A
    non-finite sample raises SimulationDiverged as soon as it is stored.

    K is made C-contiguous, so each run's product is one row-major BLAS
    matrix-vector product: runs together or one at a time, with K shared,
    stacked or in any layout, give bit-identical trajectories.
    """
    n_steps = int(round(duration_periods * steps_per_period))
    if n_steps < 1:
        raise ValueError(f"duration_periods={duration_periods:g} is shorter than "
                         f"one RK4 step (1/{steps_per_period} period)")
    theta = np.array(theta0, dtype=float)
    want = (n_steps,) + theta.shape
    if noise is not None and np.shape(noise) != want:
        raise ValueError(f"noise must have shape (steps, B, n) = {want}, got {np.shape(noise)}")
    # exact sample count: duration * SAMPLES_PER_PERIOD, spread uniformly over steps
    n_samples = max(1, int(round(duration_periods * SAMPLES_PER_PERIOD)))
    sample_at = np.zeros(n_steps + 1, dtype=bool)
    # k = n_samples gives n_samples * n_steps / n_samples = n_steps exactly,
    # so the last step is always a sample
    sample_at[np.round(np.arange(1, n_samples + 1) * n_steps / n_samples).astype(int)] = True
    dt = 1.0 / steps_per_period
    K = np.ascontiguousarray(K, dtype=float)
    check_finite(theta, _DIVERGED, 0.0)
    # sample_at[0] may be set at coarse steps; the initial sample is always taken
    times = np.zeros(1 + np.count_nonzero(sample_at[1:]))
    thetas = np.empty(times.shape + theta.shape)
    thetas[0] = theta
    s = 1
    for k in range(n_steps):
        theta = _rk4(theta, K, Ks, delta, dt)
        if noise is not None:
            theta = theta + noise[k]
        if sample_at[k + 1]:
            check_finite(theta, _DIVERGED, (k + 1) * dt)
            times[s] = (k + 1) * dt
            thetas[s] = theta
            s += 1
    return times, thetas


def simulate(m: MachineConfig, theta0, duration_periods: float) -> tuple[np.ndarray, np.ndarray]:
    """One noise-free run from phases theta0 (n,): (times (S,), thetas (S, n)).

    Times are in periods.  Noisy runs follow the run protocol
    (``harness.run_many``), whose seeds fix each run's Brownian path.
    """
    if m.noise_sigma > 0:
        raise ValueError("simulate is noise-free; noisy runs go through harness.run_many")
    theta = _checked_phases(theta0, m)[None, :]
    K, Ks = coupling_terms(m)
    times, thetas = integrate_batch(
        theta, K, Ks, np.asarray(m.detuning), duration_periods)
    return times, thetas[:, 0, :]


def _brownian_increments(rngs, n_steps: int, spp: int, n: int) -> np.ndarray:
    """Brownian increments per step, (n_steps, B, n): run b's path from rngs[b].

    Each generator draws the 1/25-period increments, then one block of
    normals per halving, stopping at the first grid (25, 50, 100, 200, ...
    per period) that spp divides; a step sums the increments it covers (5 at
    spp = 40).  A settle that ends inside a 1/25-period step draws the whole
    step and drops the rest.  Entries are in units of the _NOISE_GRID grid,
    and a run's sums agree whatever spp.
    """
    finest = math.lcm(_BRIDGE_STEPS_PER_PERIOD, spp)  # 25 * 2**levels
    levels = (finest // _BRIDGE_STEPS_PER_PERIOD).bit_length() - 1
    group = finest // spp
    coarse = -(-(n_steps * group) >> levels)  # 1/25-period steps, rounded up
    var = _NOISE_GRID / _BRIDGE_STEPS_PER_PERIOD  # of a 1/25-period increment
    noise = np.empty((n_steps, len(rngs), n))
    for b, rng in enumerate(rngs):
        w = rng.standard_normal((coarse, n)) * np.sqrt(var)
        for k in range(levels):
            dev = rng.standard_normal(w.shape) * (np.sqrt(var / 2**k) / 2)
            w = np.stack([0.5 * w + dev, 0.5 * w - dev], axis=1).reshape(-1, n)
        steps = w[:n_steps * group].reshape(n_steps, group, n)
        np.einsum("kgi->ki", steps, out=noise[:, b])
    return noise


def phase_protocol_run(m: MachineConfig, sched, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Seeded protocol runs on the phase backend: (times (S,), thetas (S, B, n)).

    sched is a ``harness.RunSchedule`` and seeds a list of SeedSequences, one
    per run.  The step count per period comes from the coupling
    (``steps_per_period_for``).  Each run's generator draws its initial
    phases, then, with noise, its Brownian path coarse-to-fine
    (``_brownian_increments``): the 1/25-period increments first, then one
    halving level at a time, only as far as the step needs.  A seed so keeps
    one path whatever the step; a step's noise is the sum of that path's
    increments that the step covers, times noise_sigma * sqrt(1/_NOISE_GRID).
    All runs share one integration loop, which keeps run b identical to a
    batch of seeds[b] alone.
    """
    n = m.n
    K, Ks = coupling_terms(m)
    spp = steps_per_period_for(K, Ks)
    n_steps = int(round(sched.settle_periods * spp))
    if n_steps < 1:
        raise ValueError(
            f"settle_periods={sched.settle_periods} is shorter than one RK4 step "
            f"(1/{spp} period at this coupling)"
        )
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.stack([random_initial_phases(n, r) for r in rngs])
    noise = None
    if m.noise_sigma > 0:
        noise = _brownian_increments(rngs, n_steps, spp, n)
        noise *= m.noise_sigma * np.sqrt(1.0 / _NOISE_GRID)
    return integrate_batch(
        theta0, K, Ks, np.asarray(m.detuning), sched.settle_periods,
        steps_per_period=spp, noise=noise,
    )
