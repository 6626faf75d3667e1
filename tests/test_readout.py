"""Readout: detector emulation, phase thresholding, lock timing."""

import numpy as np
import pytest

from oscim.readout import (
    lock_period,
    phase_detector,
    spins_from_detectors,
    spins_from_phases,
)

TWO_PI = 2 * np.pi


def sine_wave(freq, phase, duration, dt):
    t = np.arange(0.0, duration, dt)
    return np.sin(TWO_PI * freq * t + phase)


class TestPhaseDetector:
    DT = 1e-6
    F = 3800.0

    def detector(self, phi, periods=8.0):
        dur = periods / self.F
        ref = sine_wave(self.F, 0.0, dur, self.DT)
        x = sine_wave(self.F, phi, dur, self.DT)
        return phase_detector(x, ref, 1.0 / (self.F * self.DT))

    def test_in_phase_saturates_positive(self):
        assert self.detector(0.0) == pytest.approx(1.0)

    def test_antiphase_saturates_negative(self):
        assert self.detector(np.pi) == pytest.approx(-1.0)

    def test_small_offset_stays_positive(self):
        assert self.detector(0.2) > 0.0

    def test_sign_tracks_cosine_away_from_quadrature(self):
        for phi in np.linspace(0, TWO_PI, 37):
            if abs(np.cos(phi)) < np.cos(np.pi / 2 - 0.1):
                continue
            v = self.detector(phi)
            assert np.sign(v) == np.sign(np.cos(phi))

    def test_window_too_short(self):
        short = sine_wave(self.F, 0.0, 2.0 / self.F, self.DT)
        with pytest.raises(ValueError, match="too short"):
            phase_detector(short, short, 1.0 / (self.F * self.DT))

    @pytest.mark.parametrize("x, ref", [
        (np.float64(1.0), np.ones(2000)),
        (np.ones(2000), np.float64(1.0)),
        (np.ones(2000), np.ones(1999)),
        (np.ones((2000, 2)), np.ones((1999, 1))),
    ], ids=["scalar-x", "scalar-ref", "lengths", "batch-lengths"])
    def test_waveforms_must_share_a_sample_axis(self, x, ref):
        with pytest.raises(ValueError, match="share a leading sample axis"):
            phase_detector(x, ref, 100)

    def test_batch_equals_one_dimensional_sums_bitwise(self):
        # (samples, runs, n-1) against the reference broadcast over n-1; each
        # value must equal the 1-d sum over that pair's window, bit for bit
        rng = np.random.default_rng(4)
        spp = 30.0  # a 150-sample window out of 160 samples
        outputs = rng.normal(0.0, 1.0, (160, 5, 4)) * 1e-3
        values = phase_detector(outputs[..., 1:], outputs[..., :1], spp)
        assert values.shape == (5, 3)
        window = int(round(5.0 * spp))
        for b in range(5):
            for i in range(1, 4):
                x, r = outputs[-window:, b, i], outputs[-window:, b, 0]
                one = np.clip(2000.0 / 3800.0 * float(np.sum(x * r) / spp), -1.0, 1.0)
                assert values[b, i - 1] == one, (b, i)


class TestSpinsFromPhases:
    def test_clean_antiphase(self):
        spins, resolved = spins_from_phases(np.array([0.05, np.pi - 0.1]))
        assert spins.tolist() == [1, -1]
        assert resolved.tolist() == [True, True]

    def test_dead_zone_flags_unresolved(self):
        # 15 degrees either side of {0, pi} is resolved
        _, resolved = spins_from_phases(np.array([0.0, np.pi / 2, np.deg2rad(14.0)]))
        assert resolved.tolist() == [True, False, True]
        assert np.count_nonzero(~resolved) == 1

    def test_reference_normalization(self):
        spins, _ = spins_from_phases(np.array([np.pi, 0.0]))
        assert spins.tolist() == [1, -1]  # global flip applied

    def test_invariant_under_global_pi_shift(self):
        theta = np.array([0.1, np.pi - 0.05, 0.2, np.pi + 0.02])
        a, _ = spins_from_phases(theta)
        b, _ = spins_from_phases((theta + np.pi) % TWO_PI)
        assert np.array_equal(a, b)


class TestSpinsFromDetectors:
    def test_signs_decode(self):
        spins, resolved = spins_from_detectors(np.array([0.8, -0.9, 0.7]))
        assert spins.tolist() == [1, 1, -1, 1]
        assert resolved.all()

    def test_dead_zone(self):
        _, resolved = spins_from_detectors(np.array([0.02, -0.9]))
        assert resolved.tolist() == [True, False, True]

    def test_batch_equals_rows(self):
        values = np.array([[0.8, -0.05], [-0.9, 0.3]])
        spins, resolved = spins_from_detectors(values)
        for b in range(2):
            row_spins, row_resolved = spins_from_detectors(values[b])
            assert np.array_equal(spins[b], row_spins)
            assert np.array_equal(resolved[b], row_resolved)


def one_run(times, thetas):
    """lock_period of a single run given as (samples, n)."""
    (lock,) = lock_period(np.asarray(times, float), np.asarray(thetas, float)[:, None, :])
    return lock


class TestLockPeriod:
    def test_constant_binarized_trace_locks_at_zero(self):
        times = np.linspace(0, 5, 51)
        thetas = np.tile([0.0, np.pi], (51, 1))
        assert one_run(times, thetas) == 0.0

    def test_never_binarized_returns_none(self):
        times = np.linspace(0, 5, 51)
        thetas = np.tile([np.pi / 2, np.pi / 3], (51, 1))
        assert one_run(times, thetas) is None

    def test_reports_start_of_held_window(self):
        times = np.linspace(0, 10, 101)
        thetas = np.where(times[:, None] >= 3.0, 0.0, np.pi / 2 * np.ones((101, 2)))
        lock = one_run(times, thetas)
        assert lock == pytest.approx(3.0, abs=0.11)

    def test_requires_hold(self):
        # binarized for only one period, then off again
        times = np.linspace(0, 10, 101)
        inside = (times >= 3.0) & (times <= 4.0)
        thetas = np.where(inside[:, None], 0.0, np.pi / 2 * np.ones((101, 2)))
        assert one_run(times, thetas) is None

    def test_measured_from_sync_on(self):
        # sampling began 2 periods before sync-on: the caller passes times
        # shifted so that sync-on is 0
        times = np.linspace(0, 10, 101)
        thetas = np.where(times[:, None] >= 3.0, 0.0, np.pi / 2 * np.ones((101, 2)))
        lock = one_run(times - 2.0, thetas)
        assert lock == pytest.approx(1.0, abs=0.11)


class TestBatchReadout:
    def test_batch_equals_each_run_alone(self):
        times = np.linspace(0, 10, 101)
        late = times[:, None] >= 3.0
        runs = [
            np.tile([0.0, np.pi, 0.1], (101, 1)),  # binarized throughout
            np.tile([np.pi / 2, np.pi / 3, 0.0], (101, 1)),  # never binarizes
            np.where(late, [np.pi, 0.0, np.pi], [np.pi / 2, 0.0, 1.0]),  # locks at 3
            np.where((times[:, None] >= 3.0) & (times[:, None] <= 8.0),
                     [0.0, np.pi, 0.0], [0.7, np.pi, 0.0]),  # binarizes, then leaves
            np.where(late, [np.pi + 0.1, 0.2, np.pi / 2], [0.0, 0.0, 0.0]),  # leaves for good
        ]
        thetas = np.stack(runs, axis=1)  # (S, B, n)
        spins, resolved = spins_from_phases(thetas[-1])
        locks = lock_period(times, thetas)
        assert locks[0] == 0.0 and locks[1] is None and locks[3] is None
        assert locks[2] == pytest.approx(3.0, abs=0.11)
        for b, run in enumerate(runs):
            run_spins, run_resolved = spins_from_phases(run[-1])
            assert np.array_equal(spins[b], run_spins)
            assert np.array_equal(resolved[b], run_resolved)
            assert locks[b] == one_run(times, run)
