"""Spin extraction: emulated phase detectors, phase thresholding, lock timing.

The hardware reads n-1 detectors, each multiplying one oscillator against
the reference oscillator (number 1) and integrating through a limiter; the
sign of the limited integral classifies in-phase (+1) versus antiphase
(-1).  Detector values near zero fall in a dead zone and are reported as
unresolved rather than silently rounded.

Every function works on a batch: the run axes lead, the oscillator axis is
last, and spins come out reference-normalized (oscillator 1 reads +1).
"""

from __future__ import annotations

import numpy as np

from .phase_dynamics import binary_distance, wrap_phase

TOLERANCE_RAD = np.deg2rad(15.0)
HOLD_PERIODS = 2.0
DEAD_ZONE_FRACTION = 0.1

# Multiplier + limited integrator, integrating in oscillation periods, so the
# detector reads the same at every f0.  The rate saturates the limiter for
# unit-amplitude waveforms within the detector window.
INTEGRATOR_RATE = 2000.0 / 3800.0  # 1/periods: 2000 per second at 3.8 kHz
DETECTOR_LIMIT = 1.0
DETECTOR_PERIODS = 5.0


def phase_detector(x: np.ndarray, x_ref: np.ndarray, samples_per_period: float) -> np.ndarray:
    """Limited integral of the pointwise product over the final detector window.

    Axis 0 of x and x_ref is the sample axis, samples_per_period samples to
    an oscillation period; the axes after it broadcast, giving one value per
    trailing index.  The integral is in periods, so the value does not depend
    on f0.  The sign encodes the phase class; the magnitude saturates at
    DETECTOR_LIMIT.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(x_ref, dtype=float)
    if x.ndim == 0 or r.ndim == 0 or x.shape[0] != r.shape[0]:
        raise ValueError("waveforms must share a leading sample axis")
    window = int(round(DETECTOR_PERIODS * samples_per_period))
    if window > x.shape[0]:
        raise ValueError(
            f"waveform too short: need {window} samples ({DETECTOR_PERIODS:g} periods), "
            f"got {x.shape[0]}"
        )
    prod = x[-window:] * r[-window:]
    # summing a contiguous last axis keeps each run's summation order, so a
    # batch gives the same bits as its waveforms integrated one at a time
    integral = np.moveaxis(prod, 0, -1).copy().sum(axis=-1) / samples_per_period
    return np.clip(INTEGRATOR_RATE * integral, -DETECTOR_LIMIT, DETECTOR_LIMIT)


def spins_from_phases(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spins, resolved) from phases (..., n): 0 reads +1, pi reads -1.

    Phases farther than TOLERANCE_RAD from both classes are coerced to the
    nearest one and flagged unresolved.  A global flip per run makes the
    reference oscillator read +1.
    """
    theta = wrap_phase(np.asarray(theta, dtype=float))
    raw = np.where(np.cos(theta) >= 0.0, 1, -1)
    return raw * raw[..., :1], binary_distance(theta) <= TOLERANCE_RAD


def spins_from_detectors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spins, resolved) from detector outputs (..., n-1); the reference reads +1."""
    v = np.asarray(values, dtype=float)
    ref = np.ones(v.shape[:-1] + (1,), dtype=int)
    spins = np.concatenate((ref, np.where(v >= 0.0, 1, -1)), axis=-1)
    outside = np.abs(v) > DEAD_ZONE_FRACTION * DETECTOR_LIMIT
    return spins, np.concatenate((ref == 1, outside), axis=-1)


def lock_period(times: np.ndarray, thetas: np.ndarray) -> list[float | None]:
    """Lock time of each run in periods after sync-on, or None if it never locks.

    times (S,) are measured from sync-on; thetas is (S, B, n).  A run locks
    only if it ends binarized (every phase within TOLERANCE_RAD of {0, pi});
    the lock starts at its last binarized stretch, which must last
    HOLD_PERIODS.  A transient visit to a near-binary saddle therefore does
    not count.
    """
    ok = (binary_distance(thetas) <= TOLERANCE_RAD).all(axis=-1)
    locks = []
    for run_ok in ok.T:
        bad = np.nonzero(~run_ok)[0]
        start = 0 if bad.size == 0 else bad[-1] + 1
        held = start < len(times) and times[-1] - times[start] >= HOLD_PERIODS
        locks.append(float(times[start]) if held else None)
    return locks
