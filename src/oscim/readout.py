"""Spin extraction: emulated phase detectors, phase thresholding, lock timing.

The hardware reads n-1 detectors, each multiplying one oscillator against
the reference oscillator (number 1) and integrating through a limiter; the
sign of the limited integral classifies in-phase (+1) versus antiphase
(-1).  Detector values near zero fall in a dead zone and are reported as
unresolved rather than silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_dynamics import PhaseState, PhaseTrace, binary_distance, wrap_phase

DEFAULT_TOLERANCE_RAD = np.deg2rad(15.0)
DEFAULT_HOLD_PERIODS = 2.0
DEAD_ZONE_FRACTION = 0.1


@dataclass(frozen=True)
class DetectorParams:
    """Multiplier + limited integrator emulation.

    The default rate saturates the limiter for unit-amplitude waveforms
    within the 5-period settle window at the machine's nominal 3.8 kHz.
    """

    integrator_rate: float = 2000.0  # 1/seconds
    limit: float = 1.0
    settle_periods: float = 5.0

    def __post_init__(self):
        if self.integrator_rate <= 0 or self.limit <= 0 or self.settle_periods <= 0:
            raise ValueError("detector parameters must be positive")


@dataclass(frozen=True)
class ReadoutResult:
    """Spins normalized so the reference oscillator reads +1.

    detector_values holds the n-1 comparison values against oscillator 1;
    resolved flags are False wherever the value fell in the dead zone (the
    spin is then the coerced nearest class, flagged rather than trusted).
    """

    spins: tuple[int, ...]
    detector_values: tuple[float, ...]
    resolved: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.spins)

    @property
    def unresolved_count(self) -> int:
        return sum(1 for r in self.resolved if not r)

    def bitstring(self) -> str:
        """'0' for spin +1, '1' for spin -1; leftmost is the reference."""
        return "".join("0" if s > 0 else "1" for s in self.spins)


def phase_detector(
    x: np.ndarray,
    x_ref: np.ndarray,
    p: DetectorParams,
    dt: float,
    period: float,
) -> float:
    """Limited integral of the pointwise product over the final settle window.

    dt is the waveform sample spacing and period the oscillation period,
    both in the same time unit.  The sign encodes the phase class; the
    magnitude saturates at p.limit.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(x_ref, dtype=float)
    if x.shape != r.shape or x.ndim != 1:
        raise ValueError("waveforms must be equal-length 1-d arrays")
    window = int(round(p.settle_periods * period / dt))
    if window > x.size:
        raise ValueError(
            f"waveform too short: need {window} samples ({p.settle_periods} periods), "
            f"got {x.size}"
        )
    integral = float(np.sum(x[-window:] * r[-window:]) * dt)
    return float(np.clip(p.integrator_rate * integral, -p.limit, p.limit))


def _normalize_reference(spins: np.ndarray) -> np.ndarray:
    # global flip so oscillator 1 reads +1
    if spins[0] < 0:
        return -spins
    return spins


def spins_from_phases(
    state: PhaseState,
    tolerance_rad: float = DEFAULT_TOLERANCE_RAD,
) -> ReadoutResult:
    """Classify each phase as 0 (+1) or pi (-1) within tolerance.

    Phases outside both bands are coerced to the nearest class and flagged
    unresolved.  The result is renormalized by a global flip so the
    reference oscillator carries spin +1; detector_values are the cosines
    of the phase differences to the reference, mirroring the hardware
    detectors' sign convention.
    """
    theta = wrap_phase(state.theta)
    near = binary_distance(theta) <= tolerance_rad
    raw = np.where(np.cos(theta) >= 0.0, 1, -1)
    spins = _normalize_reference(raw)
    detector = np.cos(theta[1:] - theta[0])
    return ReadoutResult(
        spins=tuple(int(s) for s in spins),
        detector_values=tuple(float(d) for d in detector),
        resolved=tuple(bool(b) for b in near),
    )


def spins_from_detectors(
    values: np.ndarray,
    limit: float,
    dead_zone_fraction: float = DEAD_ZONE_FRACTION,
) -> ReadoutResult:
    """Spins from n-1 detector outputs; the reference spin is +1 by definition."""
    v = np.asarray(values, dtype=float)
    spins = np.concatenate(([1], np.where(v >= 0.0, 1, -1))).astype(int)
    resolved = np.concatenate(([True], np.abs(v) > dead_zone_fraction * limit))
    return ReadoutResult(
        spins=tuple(int(s) for s in spins),
        detector_values=tuple(float(x) for x in v),
        resolved=tuple(bool(b) for b in resolved),
    )


def lock_period(trace: PhaseTrace) -> float | None:
    """Lock time in periods after sync-on, or None if the run never locks.

    A run locks only if it ends binarized (every phase within
    DEFAULT_TOLERANCE_RAD of {0, pi}); the lock starts at its last
    binarized stretch, which must last DEFAULT_HOLD_PERIODS.  A transient
    visit to a near-binary saddle therefore does not count.
    """
    ok = (binary_distance(trace.thetas) <= DEFAULT_TOLERANCE_RAD).all(axis=1)
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    start = 0 if bad.size == 0 else bad[-1] + 1
    if trace.times[-1] - trace.times[start] < DEFAULT_HOLD_PERIODS:
        return None
    return float(trace.times[start] - (trace.sync_on_time() or 0.0))
