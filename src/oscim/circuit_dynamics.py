"""Behavioral circuit backend: RC phase-shift oscillators at waveform level.

Each oscillator is a saturating inverting amplifier closing a loop around a
three-stage series-C / shunt-R high-pass ladder.  The amplifier output

    u = sat(gain * (-sync_gain * sync_in - v3))

is resolved algebraically each evaluation (the residual is strictly
monotone in u, so a safeguarded Newton iteration converges to the unique
root); the minus sign on the sync path realizes the pi response between
sync input and output that makes positive coupling weights
antiphase-locking.  The integrated states per oscillator are the three
capacitor voltages q_k plus the sync-summer output s (a first-order lag
standing in for the summer chain's finite bandwidth, which also decouples
the per-oscillator algebraic solves).  Node voltages follow as
v1 = u - q1, v2 = v1 - q2, v3 = v2 - q3, and the ladder's KCL gives

    dq3/dt = v3/(RC)   dq2/dt = (v2 + v3)/(RC)   dq1/dt = (v1 + v2 + v3)/(RC)

Small-signal analysis of the closed loop reproduces the textbook results:
oscillation starts above gain 29 at frequency 1/(2*pi*RC*sqrt(6)).

The second-harmonic source acts on the oscillation parametrically: mixed
through the odd saturation it modulates the effective loop gain, which
amplifies one quadrature of the fundamental and damps the other, so every
oscillator's phase is pulled onto a common line (two admissible phases a
half cycle apart).  Couplings then pick signs along that line.  The SHIL
amplitude must stay well below the level that quenches the oscillation
outright, at which point the network just follows the forcing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import readout
from .errors import SimulationDiverged
from .machine import MachineConfig, effective_weights

TWO_PI = 2.0 * np.pi

DEFAULT_STEPS_PER_PERIOD = 400
GAIN_THRESHOLD = 29.0

# Summer-lag corner sits SUMMER_RATIO times above the ladder corner 1/(RC).
SUMMER_RATIO = 20.0
# Per-oscillator free-run frequency jitter (relative), applied per run so
# waveform phases decorrelate during the free interval.
FREERUN_JITTER = 0.002
# Circuit SHIL source amplitude in units of sat_level when the machine's
# shil amplitude is left unset; large enough to binarize relative phases
# within the settle window, small enough not to quench the oscillation.
DEFAULT_SHIL_UNITS = 0.25

_NEWTON_ITERS = 8
_BISECT_ITERS = 45
_RESIDUAL_TOL = 1e-11

# calibrate: relative frequency tolerance and number of R*C refinements
_CAL_TOLERANCE = 0.005
_CAL_MAX_ITERS = 5


def _make_output_solver(p: "OscParams"):
    """Solver for u = sat(gain*(c - u)) with c = drive + Q, sat(x) = L*tanh(x/L).

    The residual u - sat(...) is strictly increasing in u, so the root is
    unique and bracketed by the saturation rails.  A few warm-started
    Newton steps handle the common case; elements still unconverged fall
    back to bisection, which cannot fail on a monotone residual.  An element
    stops once its own residual is within tolerance, so each element's
    result is independent of the others in the batch.
    """
    G = p.gain
    L = p.sat_level

    def solve(c, guess):
        lo = np.full(c.shape, -L)
        hi = np.full(c.shape, L)
        u = np.clip(guess, lo, hi)
        for it in range(_NEWTON_ITERS + 1):
            t = np.tanh(G * (c - u) / L)
            fu = u - L * t
            live = np.abs(fu) >= _RESIDUAL_TOL
            if not live.any():
                return u
            hi = np.where(fu > 0, u, hi)
            lo = np.where(fu <= 0, u, lo)
            if it == _NEWTON_ITERS:
                break
            un = u - fu / (1.0 + G * (1.0 - t * t))
            outside = (un <= lo) | (un >= hi)
            u = np.where(live, np.where(outside, 0.5 * (lo + hi), un), u)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            fm = mid - L * np.tanh(G * (c - mid) / L)
            hi = np.where(fm > 0, mid, hi)
            lo = np.where(fm <= 0, mid, lo)
        return np.where(live, 0.5 * (lo + hi), u)

    return solve


@dataclass(frozen=True)
class OscParams:
    """Component values of one phase-shift oscillator.

    Defaults are tuned for the machine's nominal operating point: mild
    clipping (gain 33), a 4 Vpp steady swing, and a sync attenuation that
    keeps realistic coupling drives in the injection-locking regime rather
    than overdriving the amplifier.
    """

    R: float = 1709.0  # ohms
    C: float = 1.0e-8  # farads
    gain: float = 33.0
    sat_level: float = 3.08  # volts; steady output swing is ~1.3x this
    sync_gain: float = 0.03

    def __post_init__(self):
        if self.R <= 0 or self.C <= 0 or self.sat_level <= 0:
            raise ValueError("R, C, sat_level must be positive")
        if self.gain <= GAIN_THRESHOLD:
            raise ValueError(f"gain must exceed {GAIN_THRESHOLD} for oscillation")

    @property
    def rc(self) -> float:
        return self.R * self.C

    @property
    def analytic_frequency(self) -> float:
        """Small-signal oscillation frequency of the loaded ladder."""
        return 1.0 / (TWO_PI * self.rc * np.sqrt(6.0))


@dataclass(frozen=True)
class CircuitTrace:
    """Sampled amplifier outputs (volts) of a network simulation."""

    times: np.ndarray  # seconds
    outputs: np.ndarray  # (samples, n)
    sync_flags: np.ndarray  # per-sample gate state

    def __post_init__(self):
        for name in ("times", "outputs", "sync_flags"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.outputs.shape[1]


def _integrate_network(
    q0: np.ndarray,
    s0: np.ndarray,
    W: np.ndarray,
    shil_volts: float,
    f_shil: float,
    sync_on: bool,
    p: OscParams,
    rc_scale,
    duration_s: float,
    steps_per_period: int,
    sample_stride: int,
    f0: float,
    record_states: bool = False,
):
    """Fixed-step RK4 of the batched network.

    Returns (times, u_samples, end_state[, state_samples]).  States are
    (..., n, 4) = (q1, q2, q3, s); the summer state always tracks the
    coupled sum plus SHIL, while the gate decides whether the oscillator
    sees it, so closing the gate causes no summer turn-on transient.
    """
    state = np.concatenate([np.asarray(q0, float), np.asarray(s0, float)[..., None]],
                           axis=-1)
    dt = 1.0 / (f0 * steps_per_period)
    n_steps = int(round(duration_s * f0 * steps_per_period))
    inv_rc = 1.0 / (p.rc * np.asarray(rc_scale))
    tau_s_inv = SUMMER_RATIO / p.rc
    g = p.sync_gain
    shil_w = TWO_PI * f_shil
    solver = _make_output_solver(p)
    zero_drive = np.zeros(state.shape[:-1])

    def f(st, tt, ug):
        q1 = st[..., 0]
        q2 = st[..., 1]
        q3 = st[..., 2]
        s = st[..., 3]
        Q = q1 + q2 + q3
        drive = -g * s if sync_on else zero_drive
        u = solver(drive + Q, ug)
        v3 = u - Q
        v2 = v3 + q3
        v1 = v2 + q2
        d = np.empty_like(st)
        d[..., 0] = (v1 + v2 + v3) * inv_rc
        d[..., 1] = (v2 + v3) * inv_rc
        d[..., 2] = v3 * inv_rc
        summed = (W * u[..., None, :]).sum(axis=-1)
        d[..., 3] = ((summed + shil_volts * np.sin(shil_w * tt)) - s) * tau_s_inv
        return d, u

    n_samples = n_steps // sample_stride
    times = sample_stride * np.arange(1, n_samples + 1) * dt
    outputs = np.empty((n_samples,) + state.shape[:-1])
    states = np.empty((n_samples,) + state.shape) if record_states else None

    def store(i, u, st):
        outputs[i] = u
        if record_states:
            states[i] = st

    # a sample's output is the next step's first-stage solve (same state, same
    # guess); only a sample on the last step needs a solve of its own
    ug = np.zeros(state.shape[:-1])
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        t = k * dt
        k1, u1 = f(state, t, ug)
        if k and k % sample_stride == 0:
            store(k // sample_stride - 1, u1, state)
        k2, u2 = f(state + half * k1, t + half, u1)
        k3, u3 = f(state + half * k2, t + half, u2)
        k4, u4 = f(state + dt * k3, t + dt, u3)
        state = state + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        ug = u4
    t = n_steps * dt
    if n_steps and n_steps % sample_stride == 0:
        store(n_samples - 1, f(state, t, ug)[1], state)
    if not np.isfinite(state).all():
        raise SimulationDiverged(f"non-finite circuit state at t={t:.6e} s")
    if record_states:
        return times, outputs, state, states
    return times, outputs, state


def resolve_shil_voltage(m: MachineConfig, p: OscParams) -> float:
    """SHIL source amplitude in volts; unset machine amplitudes use the default."""
    if not m.shil.enabled:
        return 0.0
    units = DEFAULT_SHIL_UNITS if m.shil.amplitude is None else float(m.shil.amplitude)
    return units * p.sat_level


def measure_free_run_frequency(trace: CircuitTrace) -> float:
    """Oscillator 1's frequency from its mean rising-zero-crossing interval.

    Only the steady tail of the trace counts.
    """
    u = trace.outputs[:, 0]
    t = trace.times
    i0 = int(len(t) * 0.4)
    u_tail, t_tail = u[i0:], t[i0:]
    if np.max(np.abs(u_tail)) < 1e-6:
        raise RuntimeError("no oscillation detected (flat trace)")
    neg = np.signbit(u_tail)
    idx = np.nonzero(~neg[1:] & neg[:-1])[0]
    if len(idx) < 10:
        raise RuntimeError(
            f"no oscillation detected ({len(idx)} rising crossings; need >= 10)"
        )
    crossings = t_tail[idx] - u_tail[idx] * (t_tail[idx + 1] - t_tail[idx]) / (
        u_tail[idx + 1] - u_tail[idx]
    )
    return float(1.0 / np.mean(np.diff(crossings)))


def steady_amplitude(trace: CircuitTrace) -> float:
    """Oscillator 1's peak-to-peak output voltage over the steady tail."""
    u = trace.outputs[:, 0]
    tail = u[int(len(u) * 0.5):]
    return float(tail.max() - tail.min())


def _free_run_single(p: OscParams, periods: float, f_ref: float):
    # deterministic seeded startup of one oscillator on a reference time base
    rng = np.random.default_rng(12345)
    q0 = rng.normal(0.0, 0.4 * p.sat_level, (1, 3))
    s0 = np.zeros(1)
    return _integrate_network(
        q0, s0, np.zeros((1, 1)), 0.0, f_ref, False, p, 1.0,
        periods / f_ref, DEFAULT_STEPS_PER_PERIOD, 4, f_ref,
    )


def free_run_trace(p: OscParams, periods: float, f_ref: float) -> CircuitTrace:
    """Single free oscillator from a seeded power-on state."""
    times, outputs, _ = _free_run_single(p, periods, f_ref)
    return CircuitTrace(times=times, outputs=outputs,
                        sync_flags=np.zeros(times.shape, dtype=bool))


def calibrate(p: OscParams, target_f0: float) -> OscParams:
    """Scale R*C until the measured free-run frequency hits the target.

    The analytic small-signal frequency 1/(2*pi*RC*sqrt(6)) seeds the
    search; because the whole loop scales in time with RC, each refinement
    is an exact rescale and one pass usually suffices.  Converged means
    within _CAL_TOLERANCE (relative) of the target.
    """
    if target_f0 <= 0:
        raise ValueError("target frequency must be positive")
    rc_analytic = 1.0 / (TWO_PI * target_f0 * np.sqrt(6.0))
    cand = dataclasses.replace(p, R=rc_analytic / p.C)
    for _ in range(_CAL_MAX_ITERS + 1):
        f_meas = measure_free_run_frequency(free_run_trace(cand, 50.0, target_f0))
        if abs(f_meas - target_f0) / target_f0 <= _CAL_TOLERANCE:
            return cand
        cand = dataclasses.replace(cand, R=cand.R * f_meas / target_f0)
    raise RuntimeError(
        f"calibration failed to converge: measured {f_meas:.1f} Hz vs target {target_f0}"
    )


@functools.cache
def calibrated_params(f0: float) -> OscParams:
    """Default component values calibrated to f0, computed once per f0."""
    return calibrate(OscParams(), f0)


@functools.cache
def _limit_cycle_states(p: OscParams, f0: float) -> np.ndarray:
    """(steps_per_period, 3) capacitor voltages over one steady period."""
    # settle onto the limit cycle, then record one period at full rate
    _, _, settled = _free_run_single(p, 40.0, f0)
    _, _, _, states = _integrate_network(
        settled[..., :3], np.zeros(1), np.zeros((1, 1)), 0.0, f0, False, p, 1.0,
        1.0 / f0, DEFAULT_STEPS_PER_PERIOD, 1, f0, record_states=True,
    )
    table = states[:, 0, :3].copy()
    table.setflags(write=False)  # one cached array serves every caller
    return table


def phases_to_network_state(theta, p: OscParams, f0: float):
    """Map oscillator phases onto points of the free-running limit cycle.

    Preserves relative phases, which is what seeds the same basin as the
    phase backend for a given random draw.
    """
    table = _limit_cycle_states(p, f0)
    steps = table.shape[0]
    th = np.asarray(theta, dtype=float)
    idx = np.mod(np.rint(th / TWO_PI * steps).astype(int), steps)
    q = table[idx]  # (..., 3)
    s = np.zeros(th.shape)
    return q, s


def _protocol_run(m: MachineConfig, sched, seeds):
    """Seeded protocol runs on the circuit backend, free interval then settle.

    Each run's generator draws its initial phases, then its frequency
    jitter.  Returns (t_free, u_free, t_on, u_on) with outputs shaped
    (samples, B, n).  The settle clock, and with it the SHIL source phase,
    restarts at zero at gate-on.
    """
    window = readout.DETECTOR_PERIODS
    if sched.settle_periods < window:
        raise ValueError(
            f"settle_periods={sched.settle_periods:g} is shorter than the "
            f"{window:g}-period detector window of the circuit backend"
        )
    p = calibrated_params(m.f0)
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.stack([r.uniform(0.0, TWO_PI, m.n) for r in rngs])
    jitter = np.stack([r.uniform(-FREERUN_JITTER, FREERUN_JITTER, m.n) for r in rngs])
    q0, s0 = phases_to_network_state(theta0, p, m.f0)
    rc_scale = 1.0 / ((1.0 + np.asarray(m.detuning)) * (1.0 + jitter))
    W = effective_weights(m)
    shil = resolve_shil_voltage(m, p)
    stride = 4  # detector fidelity: 100 samples per period
    t_free, u_free, final = _integrate_network(
        q0, s0, W, shil, 2.0 * m.f0, False, p, rc_scale,
        sched.free_run_periods / m.f0, DEFAULT_STEPS_PER_PERIOD, stride, m.f0,
    )
    t_on, u_on, _ = _integrate_network(
        final[..., :3], final[..., 3], W, shil, 2.0 * m.f0, True, p, rc_scale,
        sched.settle_periods / m.f0, DEFAULT_STEPS_PER_PERIOD, stride, m.f0,
    )
    return t_free, u_free, t_on, u_on


def run_readout_batch(m: MachineConfig, sched, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Protocol steps 1-6 on the circuit backend: (spins, resolved), each (B, n).

    Free interval simulated with per-oscillator frequency jitter; readout
    through multiplier/limited-integrator detectors against oscillator 1,
    all n-1 detectors of all runs in one call.
    """
    _, _, times, outputs = _protocol_run(m, sched, seeds)
    dt = float(times[1] - times[0])
    values = readout.phase_detector(outputs[..., 1:], outputs[..., :1], dt, 1.0 / m.f0)
    return readout.spins_from_detectors(values)


def run_trace(m: MachineConfig, sched, seed) -> CircuitTrace:
    """Run 0 of run_readout_batch's seeding, recorded end to end.

    The free interval has sync flags 0 and the settle window 1; settle times
    are shown continuing from the end of the free interval.
    """
    seeds = np.random.SeedSequence(seed).spawn(1)
    t_free, u_free, t_on, u_on = _protocol_run(m, sched, seeds)
    times = np.concatenate([t_free, t_on + (t_free[-1] if len(t_free) else 0.0)])
    outputs = np.concatenate([u_free[:, 0, :], u_on[:, 0, :]], axis=0)
    flags = np.concatenate([np.zeros(len(t_free), bool), np.ones(len(t_on), bool)])
    return CircuitTrace(times=times, outputs=outputs, sync_flags=flags)
