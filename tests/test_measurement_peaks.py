"""Peak detection, semi-differentiation, and target assignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import constants as C
from repro.errors import AnalysisError
from repro.measurement.peaks import (
    Peak,
    assign_peaks,
    find_peaks,
    reversible_peak_offset,
    semi_derivative,
)
from repro.measurement.trace import Voltammogram


def gaussian_cv(centers, heights, width=0.04, e_start=0.0, e_end=-0.8,
                n=400, scan_rate=0.02):
    """A synthetic cathodic leg with Gaussian reduction dips."""
    potentials = np.linspace(e_start, e_end, n)
    current = np.zeros(n)
    for center, height in zip(centers, heights):
        current -= height * np.exp(-((potentials - center) / width) ** 2)
    times = np.arange(n) * abs(e_end - e_start) / (scan_rate * n)
    sweep_sign = np.full(n, -1.0)
    return Voltammogram(times=times, potentials=potentials, current=current,
                        sweep_sign=sweep_sign, scan_rate=scan_rate)


class TestSemiDerivative:
    def test_linearity(self, rng):
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)
        dt = 0.1
        lhs = semi_derivative(2.0 * a + 3.0 * b, dt)
        rhs = 2.0 * semi_derivative(a, dt) + 3.0 * semi_derivative(b, dt)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_half_derivative_of_sqrt_t_is_constant(self):
        # d^{1/2}/dt^{1/2} sqrt(t) = sqrt(pi)/2 — a classic identity.
        dt = 1e-3
        t = np.arange(1, 4000) * dt
        series = np.sqrt(t)
        out = semi_derivative(series, dt)
        assert np.median(out[2000:]) == pytest.approx(math.sqrt(math.pi) / 2,
                                                      rel=0.01)

    def test_applied_twice_is_first_derivative(self):
        # d^{1/2} d^{1/2} f = f' for smooth f (checked on a ramp).
        dt = 1e-2
        t = np.arange(4000) * dt
        ramp = 2.0 * t
        once = semi_derivative(ramp, dt)
        twice = semi_derivative(once, dt)
        assert np.median(twice[2000:]) == pytest.approx(2.0, rel=0.02)

    def test_needs_series(self):
        with pytest.raises(AnalysisError):
            semi_derivative(np.array([1.0]), 0.1)

    @staticmethod
    def _reference(series, dt):
        """The direct formula: loop-built weights through fftconvolve."""
        from scipy.signal import fftconvolve

        n = series.size
        weights = np.empty(n)
        weights[0] = 1.0
        for k in range(1, n):
            weights[k] = weights[k - 1] * (k - 1.5) / k
        return fftconvolve(series, weights, "full")[:n] / math.sqrt(dt)

    def test_bitwise_equal_to_fftconvolve(self, rng):
        # Cached weights and spectra convolve exactly as fftconvolve
        # does, so every record length gives the reference's bits.
        for n in [*range(2, 601), 1009, 1024, 2003, 4096, 7919]:
            series = rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 3)
            dt = float(rng.uniform(1e-3, 1.0))
            expected = self._reference(series, dt)
            assert semi_derivative(series, dt).tobytes() == expected.tobytes(), n
            # A second call reads the memo and must not differ either.
            assert semi_derivative(series, dt).tobytes() == expected.tobytes(), n

    def test_returns_a_fresh_writable_array(self):
        out = semi_derivative(np.ones(16), 0.1)
        out[0] = 0.0
        assert semi_derivative(np.ones(16), 0.1)[0] != 0.0


class TestFindPeaks:
    def test_single_peak_position_and_height(self):
        cv = gaussian_cv([-0.40], [1e-6])
        peaks = find_peaks(cv, cathodic=True, min_height=1e-8)
        assert len(peaks) == 1
        assert peaks[0].potential == pytest.approx(-0.40, abs=0.005)
        assert peaks[0].height == pytest.approx(1e-6, rel=0.05)

    def test_two_peaks_sorted_by_potential(self):
        cv = gaussian_cv([-0.25, -0.55], [1e-6, 2e-6])
        peaks = find_peaks(cv, cathodic=True, min_height=1e-8)
        assert len(peaks) == 2
        assert peaks[0].potential > peaks[1].potential

    def test_threshold_suppresses_small_peaks(self):
        cv = gaussian_cv([-0.25, -0.55], [1e-6, 1e-9])
        peaks = find_peaks(cv, cathodic=True, min_height=1e-7)
        assert len(peaks) == 1

    def test_close_peaks_merge(self):
        # torsemide/diclofenac at -19/-41 mV cannot be resolved.
        cv = gaussian_cv([-0.019, -0.041], [1e-6, 1e-6], width=0.05,
                         e_start=0.3, e_end=-0.5)
        peaks = find_peaks(cv, cathodic=True, min_height=1e-8,
                           min_separation=0.03)
        assert len(peaks) == 1

    def test_semiderivative_method(self):
        cv = gaussian_cv([-0.40], [1e-6])
        peaks = find_peaks(cv, cathodic=True, min_height=1e-8,
                           method="semiderivative")
        assert len(peaks) >= 1
        best = max(peaks, key=lambda p: p.height)
        assert best.potential == pytest.approx(-0.40, abs=0.02)
        assert best.method == "semiderivative"

    def test_unknown_method_rejected(self):
        cv = gaussian_cv([-0.40], [1e-6])
        with pytest.raises(AnalysisError, match="method"):
            find_peaks(cv, method="fft")

    @given(st.floats(min_value=-0.6, max_value=-0.2),
           st.floats(min_value=1e-7, max_value=1e-5))
    @settings(max_examples=20, deadline=None)
    def test_height_proportional_quantification(self, center, height):
        cv1 = gaussian_cv([center], [height])
        cv2 = gaussian_cv([center], [2.0 * height])
        h1 = find_peaks(cv1, min_height=1e-9)[0].height
        h2 = find_peaks(cv2, min_height=1e-9)[0].height
        assert h2 / h1 == pytest.approx(2.0, rel=0.05)


class TestOffsets:
    def test_reversible_offset_magnitude(self):
        # 28.5 mV for n=1, halved for n=2.
        assert reversible_peak_offset(1) == pytest.approx(
            1.109 / C.F_OVER_RT, rel=1e-9)
        assert reversible_peak_offset(2) == pytest.approx(
            reversible_peak_offset(1) / 2.0)

    def test_formal_potential_estimate(self):
        peak = Peak(potential=-0.264, current=-1e-6, height=1e-6,
                    width=0.05, cathodic=True, method="raw")
        estimate = peak.formal_potential_estimate(2)
        assert estimate == pytest.approx(-0.264 + reversible_peak_offset(2))

    def test_semiderivative_needs_no_offset(self):
        peak = Peak(potential=-0.250, current=-1e-6, height=1e-6,
                    width=0.05, cathodic=True, method="semiderivative")
        assert peak.formal_potential_estimate(2) == pytest.approx(-0.250)


class TestAssignment:
    def _peaks(self):
        cv = gaussian_cv([-0.264, -0.414], [1e-6, 2e-6])
        return find_peaks(cv, cathodic=True, min_height=1e-8)

    def test_assigns_within_tolerance(self):
        peaks = self._peaks()
        result = assign_peaks(peaks, {"benzphetamine": -0.250,
                                      "aminopyrine": -0.400})
        assert result.all_assigned
        assert result.matches["benzphetamine"].potential == pytest.approx(
            -0.264, abs=0.01)

    def test_each_peak_used_once(self):
        peaks = self._peaks()
        # Two candidates near one peak: only the closer one matches.
        result = assign_peaks(peaks, {"a": -0.250, "b": -0.260,
                                      "c": -0.400})
        matched_peaks = {id(p) for p in result.matches.values()}
        assert len(matched_peaks) == len(result.matches)

    def test_missing_target_reported(self):
        peaks = self._peaks()
        result = assign_peaks(peaks, {"benzphetamine": -0.250,
                                      "clozapine": -0.265 + 0.5})
        assert "clozapine" in result.missing_targets
        assert not result.all_assigned

    def test_unassigned_peaks_reported(self):
        peaks = self._peaks()
        result = assign_peaks(peaks, {"benzphetamine": -0.250})
        assert len(result.unassigned_peaks) == 1
