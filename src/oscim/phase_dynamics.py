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
{0, pi}.  With the sync gate open the drive terms vanish and only the
detuning remains.

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

from dataclasses import dataclass

import numpy as np

from .errors import SimulationDiverged
from .machine import MachineConfig, effective_weights, resolve_shil_strength

TWO_PI = 2.0 * np.pi

DEFAULT_STEPS_PER_PERIOD = 200
DEFAULT_SAMPLE_RATE = 16.0  # samples per period


@dataclass(frozen=True)
class PhaseState:
    """Oscillator phases (radians) at simulation time t (periods)."""

    theta: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError("theta must be one-dimensional")
        if not np.isfinite(theta).all():
            raise ValueError("phases must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled phases over one simulation segment.

    times are in periods and strictly increasing; thetas has shape
    (samples, n).  sync_events records (time, enabled) gate transitions.
    """

    times: np.ndarray
    thetas: np.ndarray
    sync_events: tuple[tuple[float, bool], ...] = ()

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        thetas = np.array(self.thetas, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        times.setflags(write=False)
        thetas.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "thetas", thetas)

    @property
    def n(self) -> int:
        return self.thetas.shape[1]

    def final_state(self) -> PhaseState:
        return PhaseState(theta=self.thetas[-1], t=float(self.times[-1]))

    def sync_on_time(self) -> float | None:
        for t, on in self.sync_events:
            if on:
                return t
        return None


def wrap_phase(theta):
    """Reduce phases to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def binary_distance(theta):
    """Distance in radians to the nearest multiple of pi."""
    return np.abs(np.mod(theta + np.pi / 2, np.pi) - np.pi / 2)


def coupling_terms(m: MachineConfig) -> tuple[np.ndarray, float]:
    """(K, Ks) as seen by the dynamics; both zero with the sync gate off."""
    if not m.sync_enabled:
        return np.zeros((m.n, m.n)), 0.0
    return -effective_weights(m), resolve_shil_strength(m)


def _rhs(theta, K, Ks, delta):
    # theta (..., n); K (..., n, n); Ks, delta broadcastable
    diff = theta[..., :, None] - theta[..., None, :]
    coup = (K * np.sin(diff)).sum(axis=-1)
    return delta - coup - Ks * np.sin(2.0 * theta)


def phase_derivative(state: PhaseState, m: MachineConfig) -> np.ndarray:
    """Rates dtheta/dtau per radian time (2*pi*f0*t_seconds).

    With sync off only the detuning terms remain.
    """
    if state.n != m.n:
        raise ValueError("state size does not match machine size")
    K, Ks = coupling_terms(m)
    return _rhs(state.theta, K, Ks, np.asarray(m.detuning))


def network_energy(theta, m: MachineConfig) -> float:
    """Lyapunov function of the noise-free, detuning-free flow.

    ``phase_derivative`` equals minus its gradient (per radian time); it is
    non-increasing along trajectories and, at binarized states, matches the
    programmed Ising energy up to the constant -n*Ks/2.
    """
    th = np.asarray(theta, dtype=float)
    K, Ks = coupling_terms(m)
    diff = th[:, None] - th[None, :]
    pair = -0.5 * float((K * np.cos(diff)).sum())  # each pair counted once
    return pair - 0.5 * Ks * float(np.cos(2.0 * th).sum())


def random_initial_phases(n: int, rng: np.random.Generator) -> PhaseState:
    """Independent uniform phases on [0, 2*pi); the free-run protocol step."""
    return PhaseState(theta=rng.uniform(0.0, TWO_PI, n), t=0.0)


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
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    noise_sigma: float = 0.0,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over a batch of independent runs.

    theta0 has shape (B, n); K is (n, n) or (B, n, n); Ks and delta
    broadcast against (B, n).  Returns (times (S,), thetas (S, B, n)) with
    the initial sample included.  ``noise`` supplies pre-drawn standard
    normal increments of shape (steps, B, n) when noise_sigma > 0.

    The per-run arithmetic is identical whatever the batch size, so runs
    executed together or one at a time produce bit-identical trajectories.
    """
    if duration_periods <= 0:
        raise ValueError("duration must be positive")
    n_steps = int(round(duration_periods * steps_per_period))
    # exact sample count: duration * sample_rate, spread uniformly over steps
    n_samples = max(1, int(round(duration_periods * sample_rate)))
    sample_at = np.zeros(n_steps + 1, dtype=bool)
    sample_at[np.round(np.arange(1, n_samples + 1) * n_steps / n_samples).astype(int)] = True
    sample_at[n_steps] = True
    theta = np.array(theta0, dtype=float)
    sqrt_dt = np.sqrt(1.0 / steps_per_period)
    times = [0.0]
    samples = [theta.copy()]
    dt = 1.0 / steps_per_period
    for k in range(n_steps):
        theta = _rk4(theta, K, Ks, delta, dt)
        if noise_sigma > 0.0:
            theta = theta + noise_sigma * sqrt_dt * noise[k]
        if sample_at[k + 1]:
            times.append((k + 1) * dt)
            samples.append(theta.copy())
    thetas = np.stack(samples)
    finite = np.isfinite(thetas)
    if not finite.all():
        s, b, i = (int(x) for x in np.argwhere(~finite)[0])
        raise SimulationDiverged(
            f"non-finite phase at t={times[s]:.3f} periods (run {b}, oscillator {i})"
        )
    return np.array(times), thetas


def simulate(
    m: MachineConfig,
    init: PhaseState,
    duration_periods: float,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    rng: np.random.Generator | None = None,
) -> PhaseTrace:
    """Integrate one run under a fixed machine configuration.

    Mid-run sync toggling is composed by the harness from piecewise
    segments; within a segment the gate state is constant.
    """
    if sample_rate < 2:
        raise ValueError("sample_rate must be at least 2 samples per period")
    if init.n != m.n:
        raise ValueError("initial state size does not match machine size")
    K, Ks = coupling_terms(m)
    n_steps = int(round(duration_periods * DEFAULT_STEPS_PER_PERIOD))
    noise = None
    if m.noise_sigma > 0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        noise = rng.standard_normal((n_steps, 1, m.n))
    times, thetas = integrate_batch(
        init.theta[None, :],
        K,
        Ks,
        np.asarray(m.detuning),
        duration_periods,
        sample_rate=sample_rate,
        noise_sigma=m.noise_sigma,
        noise=noise,
    )
    return PhaseTrace(
        times=times + init.t,
        thetas=thetas[:, 0, :],
        sync_events=((init.t, m.sync_enabled),),
    )
