"""Behavioral circuit backend: RC phase-shift oscillators at waveform level.

Each oscillator is a saturating inverting amplifier closing a loop around a
three-stage series-C / shunt-R high-pass ladder.  The amplifier output

    u = sat(GAIN * (-SYNC_GAIN * sync_in - v3))

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
oscillation starts above gain 29 at frequency 1/(2*pi*RC*sqrt(6)).  The
waveforms scale exactly with RC, so the kernel integrates in oscillation
periods, where every rate is fixed by one time constant, RC * f0; f0 only
names the unit.

The second-harmonic source acts on the oscillation parametrically: mixed
through the odd saturation it modulates the effective loop gain, which
amplifies one quadrature of the fundamental and damps the other, so every
oscillator's phase is pulled onto a common line (two admissible phases a
half cycle apart).  Couplings then pick signs along that line.  The SHIL
amplitude must stay well below the level that quenches the oscillation
outright, at which point the network just follows the forcing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import readout
from .errors import check_finite
from .machine import MachineConfig, effective_weights
from .phase_dynamics import TWO_PI, check_step_count, random_initial_phases

# Stored output samples per period: the phase detector's fidelity
SAMPLES_PER_PERIOD = 100
# RK4 step counts a circuit run may use, each a multiple of SAMPLES_PER_PERIOD
# so that every rung stores the same sample times.  The limit-cycle table uses
# the first, DEFAULT_STEPS_PER_PERIOD; calibration's uncoupled run, whose
# summer never leaves 0, steps on the sample grid (_free_run_single).
STEP_RUNGS = (200, 400)
DEFAULT_STEPS_PER_PERIOD = STEP_RUNGS[0]
# largest |lambda|*h a rung may reach: a margin under RK4's real-axis
# stability limit of about 2.785
_STABILITY_BOUND = 2.0
GAIN_THRESHOLD = 29.0
# Fixed parts of every oscillator: mild clipping, a 4 Vpp steady swing (about
# 1.3x SAT_LEVEL) and a sync attenuation that keeps coupling drives in the
# injection-locking regime.  Calibration sets only the ladder resistor R.
CAPACITANCE = 1.0e-8  # farads
GAIN = 33.0
SAT_LEVEL = 3.08  # volts
SYNC_GAIN = 0.03

# Summer-lag corner sits SUMMER_RATIO times above the ladder corner 1/(RC).
SUMMER_RATIO = 20.0
# Per-oscillator free-run frequency jitter (relative), applied per run so
# waveform phases decorrelate during the free interval.
FREERUN_JITTER = 0.002
# Circuit SHIL source amplitude in units of SAT_LEVEL when the machine's
# shil amplitude is left unset; large enough to binarize relative phases
# within the settle window, small enough not to quench the oscillation.
DEFAULT_SHIL_UNITS = 0.25

_NEWTON_ITERS = 8
_BISECT_ITERS = 45
_RESIDUAL_TOL = 1e-11

# calibrated_params: largest relative error of the measured frequency
_CAL_TOLERANCE = 0.005
# length of the seeded free run that calibration measures and whose end state,
# on the limit cycle, starts the state table
_SETTLE_PERIODS = 40.0


def _solve_output(c, guess):
    """Solve u = sat(GAIN*(c - u)) with c = drive + Q, sat(x) = L*tanh(x/L), L = SAT_LEVEL.

    The residual u - sat(...) is strictly increasing in u, so the root is
    unique and bracketed by the saturation rails.  _integrate_network starts
    each solve from a first-order prediction off the previous root (u_p, c_p):
    u_p + k*(c - c_p) with k = du/dc = G*(1-(u_p/L)^2) / (1 + G*(1-(u_p/L)^2)),
    so a Newton step or two usually suffices; elements still unconverged
    fall back to bisection, which cannot fail on a monotone residual.  An
    element stops once its own residual is within tolerance, so each
    element's result is independent of the others in the batch.  A NaN
    residual never counts as converged, so a NaN input gives a NaN output.
    """
    L = SAT_LEVEL
    g_over_l = GAIN / L
    u = np.minimum(np.maximum(guess, -L), L)
    for it in range(_NEWTON_ITERS + 1):
        t = np.tanh((c - u) * g_over_l)
        fu = u - L * t
        ok = np.abs(fu) < _RESIDUAL_TOL  # False on NaN
        # all converged: count_nonzero is the cheapest such test on a few elements
        if np.count_nonzero(ok) == ok.size:
            return u
        if it == _NEWTON_ITERS:
            break
        # converged elements take a zero step, so they stay put; the step
        # is a convex combination of u and L*t, so it never leaves [-L, L]
        u = u - np.where(ok, 0.0, fu) / (1.0 + GAIN - GAIN * t * t)
    # bisection on [-L, L] for the elements Newton left unconverged; the
    # brackets start as 0*fu +- L so a NaN residual carries into the result
    hi = 0.0 * fu + L
    lo = hi - 2.0 * L
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        above = mid - L * np.tanh((c - mid) * g_over_l) > 0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.where(ok, u, 0.5 * (lo + hi))


@dataclass(frozen=True)
class OscParams:
    """The ladder resistor of one phase-shift oscillator, the one component
    calibration sets; the others are the module's fixed values."""

    R: float = 1709.0  # ohms

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")

    @property
    def rc(self) -> float:
        return self.R * CAPACITANCE

    @property
    def analytic_frequency(self) -> float:
        """Small-signal oscillation frequency of the loaded ladder."""
        return 1.0 / (TWO_PI * self.rc * np.sqrt(6.0))


class CircuitTrace(NamedTuple):
    """Sampled amplifier outputs (volts) of a network simulation."""

    times: np.ndarray  # periods
    outputs: np.ndarray  # (samples, n)
    sync_flags: np.ndarray  # per-sample gate state


def steps_per_period_for(m: MachineConfig, p: OscParams) -> int:
    """Smallest STEP_RUNGS entry whose RK4 step keeps machine m stable.

    The stiffest mode is the summer lag, rate SUMMER_RATIO/RC, well above the
    ladder's rates of a few 1/(RC).  Through the outputs (|du/ds| <=
    SYNC_GAIN) each summer also feels its row of the coupling, so by
    Gershgorin the eigenvalues of the summers' block of the Jacobian lie within
    SUMMER_RATIO/RC * (1 + SYNC_GAIN * max_i sum_j |W_ij|) of zero.  Per
    period, the step 1/steps must keep |lambda| * h <= _STABILITY_BOUND.
    Machines too stiff for every rung get the last.
    """
    rowsum = float(np.abs(effective_weights(m)).sum(axis=-1).max())
    stiffness = SUMMER_RATIO / (p.rc * m.f0) * (1.0 + SYNC_GAIN * rowsum)
    for spp in STEP_RUNGS:
        if stiffness / spp <= _STABILITY_BOUND:
            return spp
    return STEP_RUNGS[-1]


def _integrate_network(
    state0: np.ndarray,
    W: np.ndarray,
    shil_volts: float,
    sync_on: bool,
    tau: float,
    rc_scale,
    periods: float,
    spp: int = DEFAULT_STEPS_PER_PERIOD,
    record_states: bool = False,
):
    """Fixed-step RK4 of the batched network over a number of periods.

    Time runs in oscillation periods: tau = RC * f0 is the ladder's time
    constant in periods, and round(periods * spp) steps of 1/spp are taken.
    spp is a multiple of SAMPLES_PER_PERIOD; outputs are stored every
    spp // SAMPLES_PER_PERIOD steps, so the sample times do not depend on it.
    Returns (times, u_samples, end_state[, step_states]), step_states holding
    the state after every step.  States, state0 among them, are
    (..., n, 4) = (q1, q2, q3, s); the summer state always tracks the coupled
    sum plus SHIL at twice the oscillation frequency, while the gate decides
    whether the oscillator sees it, so closing the gate causes no summer
    turn-on transient.  A non-finite output stops the run at the sample it
    shows in.
    """
    state = np.asarray(state0, dtype=float)
    n_steps = int(round(periods * spp))
    dt = 1.0 / spp
    sample_stride = spp // SAMPLES_PER_PERIOD
    # per-column rates per period: 1/tau on the capacitors, the summer corner on s
    rate = np.empty(state.shape)
    rate[..., :3] = (1.0 / (tau * np.asarray(rc_scale)))[..., None]
    rate[..., 3] = SUMMER_RATIO / tau
    shil_w = TWO_PI * 2.0
    one_plus_g = 1.0 + GAIN
    curv = GAIN / (SAT_LEVEL * SAT_LEVEL)

    def f(st, tt, u_p, c_p, d):
        """Write d(state)/dt at (st, tt) into d; returns the output root (u, c)."""
        cq = np.add.accumulate(st[..., :3], axis=-1)  # (q1, q1 + q2, Q)
        s = st[..., 3]
        c = cq[..., 2] - SYNC_GAIN * s if sync_on else cq[..., 2]
        # predicted warm start u_p + k*(c - c_p), k = 1 - 1/(1 + G*(1-(u_p/L)^2))
        dc = c - c_p
        u = _solve_output(c, u_p + dc - dc / (one_plus_g - curv * (u_p * u_p)))
        # v = u - cq = (v1, v2, v3); its running sums from v3 are RC*(dq3, dq2, dq1)
        np.add.accumulate((u[..., None] - cq)[..., ::-1], axis=-1, out=d[..., 2::-1])
        summed = np.add.reduce(W * u[..., None, :], axis=-1)
        np.subtract(summed + shil_volts * math.sin(shil_w * tt), s, out=d[..., 3])
        np.multiply(d, rate, out=d)
        return u, c

    n_samples = n_steps // sample_stride
    times = np.arange(1, n_samples + 1) / SAMPLES_PER_PERIOD
    outputs = np.empty((n_samples,) + state.shape[:-1])
    states = np.empty((n_steps,) + state.shape) if record_states else None

    def store(i, u):
        check_finite(u, "circuit output at t={t:.6e} periods", times[i])
        outputs[i] = u

    # a sample's output is the next step's first-stage solve (same state, same
    # previous root); only a sample on the last step needs a solve of its own.
    # (u, c) = (0, 0) is a root, so it seeds the first prediction.
    up = cp = np.zeros(state.shape[:-1])
    k1, k2, k3, k4 = (np.empty(state.shape) for _ in range(4))
    half = 0.5 * dt
    sixth = dt / 6.0
    # a diverging run overflows to inf and then NaN on its way to the finite
    # checks, which raise SimulationDiverged; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            u1, c1 = f(state, t, up, cp, k1)
            if k and k % sample_stride == 0:
                store(k // sample_stride - 1, u1)
            u2, c2 = f(state + half * k1, t + half, u1, c1, k2)
            u3, c3 = f(state + half * k2, t + half, u2, c2, k3)
            up, cp = f(state + dt * k3, t + dt, u3, c3, k4)
            state = state + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if record_states:
                states[k] = state
        t = n_steps * dt
        if n_steps and n_steps % sample_stride == 0:
            store(n_samples - 1, f(state, t, up, cp, k1)[0])
    # NaN and +-inf in any of an oscillator's four states both show in the max
    check_finite(np.abs(state).max(axis=-1), "circuit state at t={t:.6e} periods", t)
    if record_states:
        return times, outputs, state, states
    return times, outputs, state


def resolve_shil_voltage(m: MachineConfig) -> float:
    """SHIL source amplitude in volts; unset machine amplitudes use the default."""
    units = DEFAULT_SHIL_UNITS if m.shil_amplitude is None else float(m.shil_amplitude)
    return units * SAT_LEVEL


def measure_free_run_frequency(trace: CircuitTrace) -> float:
    """Oscillator 1's frequency from its mean rising-zero-crossing interval,
    in cycles per unit of trace.times: per period, a fraction of f0.

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


def _free_run_single(tau: float, periods: float):
    """Seeded power-on run of one uncoupled oscillator of time constant tau =
    RC * f0, SAMPLES_PER_PERIOD steps per period: (trace, end state).

    With no coupling, SHIL or sync, the summer state stays exactly 0, so its
    SUMMER_RATIO/RC mode, which sets the protocol rungs, is never excited.  The
    stiffest mode left is the saturated ladder at about 5/RC, |lambda|*h = 0.78
    at this step, far inside RK4's limit.
    """
    state0 = np.zeros((1, 4))
    state0[:, :3] = np.random.default_rng(12345).normal(0.0, 0.4 * SAT_LEVEL, (1, 3))
    times, outputs, state = _integrate_network(
        state0, np.zeros((1, 1)), 0.0, False, tau, 1.0, periods, SAMPLES_PER_PERIOD,
    )
    return CircuitTrace(times, outputs, np.zeros(times.shape, dtype=bool)), state


def free_run_trace(p: OscParams, periods: float, f_ref: float) -> CircuitTrace:
    """Single free oscillator from a seeded power-on state, stepped on the
    sample grid (_free_run_single)."""
    return _free_run_single(p.rc * f_ref, periods)[0]


@functools.cache
def _seeded_settle(tau: float):
    """(measured frequency as a fraction of f0, limit-cycle table) from one
    seeded free run at time constant tau = RC * f0.

    The run lasts _SETTLE_PERIODS periods; calibration measures its
    frequency, and its end state starts the table: the
    (DEFAULT_STEPS_PER_PERIOD, 4) states over one more period, recorded at
    that rung, whose summer column is exactly 0 (_free_run_single).  A process
    settles once per tau; the calibrated RC * f0 is one of two adjacent floats.
    """
    trace, settled = _free_run_single(tau, _SETTLE_PERIODS)
    _, _, _, states = _integrate_network(
        settled, np.zeros((1, 1)), 0.0, False, tau, 1.0, 1.0, record_states=True,
    )
    table = states[:, 0].copy()
    table.setflags(write=False)  # one cached array serves every caller
    return measure_free_run_frequency(trace), table


def calibrated_params(f0: float) -> OscParams:
    """The oscillator calibrated to f0: the analytic R (small-signal frequency
    1/(2*pi*RC*sqrt(6)) = f0), checked by the measured free run of
    _seeded_settle, which runs once per time constant RC * f0, so twice over
    all f0.  The circuit scales in time with RC, so that run's frequency is
    the same fraction of f0 (0.99892) at every f0; no refinement is needed.
    An f0 whose R is not finite and positive is refused."""
    if f0 <= 0:
        raise ValueError("target frequency must be positive")
    with np.errstate(over="ignore"):  # an f0 near 0 needs R = inf, refused below
        R = 1.0 / (TWO_PI * f0 * np.sqrt(6.0)) / CAPACITANCE
    if not 0.0 < R < math.inf:
        raise ValueError(f"f0={f0:g} Hz is out of range: it needs a ladder resistor of {R:g} ohm")
    p = OscParams(R=R)
    measured, _ = _seeded_settle(p.rc * f0)
    if abs(measured - 1.0) > _CAL_TOLERANCE:
        raise RuntimeError(f"calibration off target: measured {measured * f0:.1f} Hz vs {f0} Hz")
    return p


def phases_to_network_state(theta, p: OscParams, f0: float):
    """Map oscillator phases onto points of the free-running limit cycle.

    Preserves relative phases, which is what seeds the same basin as the
    phase backend for a given random draw.  Returns the (..., n, 4) states
    of theta's (..., n) phases, summers at 0.
    """
    table = _seeded_settle(p.rc * f0)[1]
    steps = table.shape[0]
    th = np.asarray(theta, dtype=float)
    return table[np.mod(np.rint(th / TWO_PI * steps).astype(int), steps)]


def _protocol_run(m: MachineConfig, sched, seeds):
    """Seeded protocol runs on the circuit backend, free interval then settle.

    Each run's generator draws its initial phases, as on the phase backend,
    then its frequency jitter.  Returns (t_free, u_free, t_on, u_on, t_gate):
    times are in periods, outputs are (samples, B, n), and t_gate ends the
    free interval on the step grid.  Both intervals step at the rung
    steps_per_period_for(m, p), which depends on no run, so batched and
    one-at-a-time runs step alike.  The settle clock, and with it the SHIL
    source phase, restarts at zero at gate-on.
    """
    window = readout.DETECTOR_PERIODS
    if sched.settle_periods < window:
        raise ValueError(
            f"settle_periods={sched.settle_periods:g} is shorter than the "
            f"{window:g}-period detector window of the circuit backend"
        )
    p = calibrated_params(m.f0)
    spp = steps_per_period_for(m, p)
    check_step_count(sched, ("free_run_periods", "settle_periods"), spp)
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.stack([random_initial_phases(m.n, r) for r in rngs])
    jitter = np.stack([r.uniform(-FREERUN_JITTER, FREERUN_JITTER, m.n) for r in rngs])
    state0 = phases_to_network_state(theta0, p, m.f0)
    rc_scale = 1.0 / ((1.0 + np.asarray(m.detuning)) * (1.0 + jitter))
    W = effective_weights(m)
    shil = resolve_shil_voltage(m)
    tau = p.rc * m.f0
    t_free, u_free, final = _integrate_network(
        state0, W, shil, False, tau, rc_scale, sched.free_run_periods, spp,
    )
    t_on, u_on, _ = _integrate_network(
        final, W, shil, True, tau, rc_scale, sched.settle_periods, spp,
    )
    return t_free, u_free, t_on, u_on, round(sched.free_run_periods * spp) / spp


def run_readout_batch(m: MachineConfig, sched, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Protocol steps 1-6 on the circuit backend: (spins, resolved), each (B, n).

    Free interval simulated with per-oscillator frequency jitter; readout
    through multiplier/limited-integrator detectors against oscillator 1,
    all n-1 detectors of all runs in one call.
    """
    outputs = _protocol_run(m, sched, seeds)[3]
    values = readout.phase_detector(outputs[..., 1:], outputs[..., :1], SAMPLES_PER_PERIOD)
    return readout.spins_from_detectors(values)


def run_trace(m: MachineConfig, sched, seed) -> CircuitTrace:
    """Run 0 of run_readout_batch's seeding, recorded end to end.

    The free interval has sync flags 0 and the settle window 1; settle times
    are shown continuing from the end of the free interval.
    """
    seeds = np.random.SeedSequence(seed).spawn(1)
    t_free, u_free, t_on, u_on, t_gate = _protocol_run(m, sched, seeds)
    times = np.concatenate([t_free, t_on + t_gate])
    outputs = np.concatenate([u_free[:, 0, :], u_on[:, 0, :]], axis=0)
    flags = np.concatenate([np.zeros(len(t_free), bool), np.ones(len(t_on), bool)])
    return CircuitTrace(times=times, outputs=outputs, sync_flags=flags)
