"""Calibration curves and linear-range extraction.

A calibration run measures the sensor signal at a ladder of known
concentrations; this module fits the curve, extracts the paper's Table III
columns — sensitivity, limit of detection, linear range — and exposes the
inverse map (signal -> concentration) a deployed platform would use.

The linear range follows the paper's non-linearity definition (eq. 7):
starting from the low end, the range grows while ``NLmax`` stays below a
fraction of the spanned signal; Michaelis-Menten saturation eventually
bends the curve and caps the range.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import (
    average_sensitivity,
    lod_concentration,
    max_nonlinearity,
)
from repro.errors import AnalysisError, CalibrationError
from repro.units import ensure_non_negative

__all__ = ["CalibrationPoint", "CalibrationCurve", "run_calibration"]


@dataclass(frozen=True)
class CalibrationPoint:
    """One measured ladder step: concentration, mean signal, repeat std."""

    concentration: float
    signal: float
    signal_std: float = 0.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.concentration, "concentration")
        ensure_non_negative(self.signal_std, "signal_std")


class CalibrationCurve:
    """A fitted sensor calibration.

    Parameters
    ----------
    points:
        Ladder of :class:`CalibrationPoint`, any order (sorted
        internally); concentrations must be distinct and include enough
        points (>= 3) for a meaningful fit.
    blank_mean, blank_std:
        Blank statistics (zero-concentration signal) used for the LOD.
    """

    def __init__(self, points: list[CalibrationPoint],
                 blank_mean: float = 0.0, blank_std: float = 0.0) -> None:
        if len(points) < 3:
            raise CalibrationError("a calibration needs at least 3 points")
        ordered = sorted(points, key=lambda p: p.concentration)
        concentrations = [p.concentration for p in ordered]
        if len(set(concentrations)) != len(concentrations):
            raise CalibrationError("duplicate calibration concentrations")
        self.points = ordered
        self.blank_mean = float(blank_mean)
        self.blank_std = ensure_non_negative(blank_std, "blank_std")

    # -- raw arrays -----------------------------------------------------------

    @property
    def concentrations(self) -> np.ndarray:
        return np.asarray([p.concentration for p in self.points])

    @property
    def signals(self) -> np.ndarray:
        return np.asarray([p.signal for p in self.points])

    # -- Table III metrics ------------------------------------------------------

    def sensitivity(self, c_low: float | None = None,
                    c_high: float | None = None) -> float:
        """Savg (eq. 6) over [c_low, c_high] (full ladder by default)."""
        c, v = self._window(c_low, c_high)
        return average_sensitivity(c, v)

    def limit_of_detection(self) -> float:
        """LOD as a concentration, ``3*sigma_b / S`` with S from the
        low-concentration end of the ladder (where the blank matters)."""
        low_end = min(4, len(self.points))
        c = self.concentrations[:low_end]
        v = self.signals[:low_end]
        slope = average_sensitivity(c, v)
        return lod_concentration(self.blank_std, slope)

    def linear_range(self, nl_fraction: float = 0.05,
                     min_points: int = 3,
                     noise_floor: float | None = None) -> tuple[float, float]:
        """The largest low-anchored range with bounded non-linearity.

        Grows the window upward from the lowest concentration while
        ``NLmax`` (eq. 7) stays below ``nl_fraction`` of the window's
        signal span — or below three times the measurement noise,
        whichever is larger: curvature buried under the noise floor is
        not measurable and must not shrink the range.  ``noise_floor``
        defaults to the blank standard deviation.  The lower bound is the
        larger of the lowest measured point and the LOD.
        """
        if not 0.0 < nl_fraction < 0.5:
            raise CalibrationError("nl_fraction must be in (0, 0.5)")
        c_all = self.concentrations
        v_all = self.signals
        if min_points < 3:
            raise CalibrationError("min_points must be >= 3")
        floor = self.blank_std if noise_floor is None else float(noise_floor)
        best_high = None
        for j in range(min_points - 1, c_all.size):
            c = c_all[: j + 1]
            v = v_all[: j + 1]
            span = abs(float(v[-1] - v[0]))
            if span == 0.0:
                continue
            nl = max_nonlinearity(c, v)
            if nl <= max(nl_fraction * span, 3.0 * floor):
                best_high = float(c[j])
        if best_high is None:
            raise CalibrationError(
                "no linear region found (even the smallest window bends)")
        lower = float(c_all[0])
        try:
            lower = max(lower, self.limit_of_detection())
        except AnalysisError:
            # Data-shaped LOD failures (no usable blank statistics, a
            # flat low-concentration end) fall back to the measured
            # floor.  Anything else — bad configuration, numerical
            # failure — must propagate, not silently shrink the range.
            pass
        if lower >= best_high:
            lower = float(c_all[0])
        return lower, best_high

    # -- inverse use -----------------------------------------------------------

    def fit_line(self, c_low: float | None = None,
                 c_high: float | None = None) -> tuple[float, float]:
        """Least-squares (slope, intercept) over a window."""
        c, v = self._window(c_low, c_high)
        slope, intercept = np.polyfit(c, v, deg=1)
        return float(slope), float(intercept)

    def concentration_from_signal(self, signal: float,
                                  c_low: float | None = None,
                                  c_high: float | None = None) -> float:
        """Invert the linear fit: the deployed platform's readout path."""
        slope, intercept = self.fit_line(c_low, c_high)
        c = self.concentrations
        span = float(c[-1] - c[0])
        scale = max(float(np.max(np.abs(self.signals))), 1e-30)
        if abs(slope) * span < 1.0e-9 * scale:
            raise CalibrationError(
                "flat calibration cannot be inverted (signal varies by "
                "less than 1e-9 of its magnitude across the ladder)")
        return (float(signal) - intercept) / slope

    # -- internals ------------------------------------------------------------

    def _window(self, c_low: float | None,
                c_high: float | None) -> tuple[np.ndarray, np.ndarray]:
        c = self.concentrations
        v = self.signals
        mask = np.ones(c.size, dtype=bool)
        if c_low is not None:
            mask &= c >= c_low
        if c_high is not None:
            mask &= c <= c_high
        if int(np.count_nonzero(mask)) < 2:
            raise CalibrationError("calibration window holds < 2 points")
        return c[mask], v[mask]


def run_calibration(signal_at: Callable[[float], tuple[float, float]],
                    concentrations: list[float],
                    blank_repeats: int = 5) -> CalibrationCurve:
    """Drive a measurement callable over a concentration ladder.

    ``signal_at(c)`` must return ``(mean_signal, signal_std)`` for bulk
    concentration ``c``; it is called once per ladder step plus
    ``blank_repeats`` times at zero to establish the blank statistics.
    This indirection keeps the analysis layer independent of protocols —
    benches pass closures around :class:`~repro.electronics.chain.
    AcquisitionChain` runs.
    """
    if len(concentrations) < 3:
        raise CalibrationError("need at least 3 ladder concentrations")
    if blank_repeats < 2:
        raise CalibrationError("need at least 2 blank repeats")
    blanks = [signal_at(0.0) for _ in range(blank_repeats)]
    blank_means = [b[0] for b in blanks]
    blank_mean = float(np.mean(blank_means))
    # Blank sigma: combine the repeat scatter with the per-run std.  The
    # scatter uses the sample estimator (ddof=1): with a handful of
    # repeats the population formula biases sigma_b low and makes every
    # LOD derived from it optimistic.
    within = float(np.mean([b[1] for b in blanks]))
    between = float(np.std(blank_means, ddof=1))
    blank_std = math.hypot(within, between)
    points = []
    for c in sorted(concentrations):
        mean, std = signal_at(float(c))
        points.append(CalibrationPoint(concentration=float(c),
                                       signal=mean, signal_std=std))
    return CalibrationCurve(points, blank_mean=blank_mean,
                            blank_std=blank_std)
