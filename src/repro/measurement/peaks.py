"""Voltammetric peak detection and target assignment.

Cyclic voltammetry identifies molecules by *where* current peaks appear and
quantifies them by *how tall* the peaks are (paper Sec. I-B: "position
gives information on the type of molecules ... like an electrochemical
signature").  This module turns a
:class:`~repro.measurement.trace.Voltammogram` into :class:`Peak` records
and matches them against a candidate table (Table II) — the machinery
behind the T2 bench, the F4 panel and the A2 scan-rate ablation.

Two detection methods are provided:

- ``"raw"`` — peaks of the current itself; positions sit
  ``1.109*RT/nF`` below the formal potential for reversible waves.
- ``"semiderivative"`` — peaks of the Riemann-Liouville half-derivative
  of the current (Grunwald-Letnikov expansion).  Semi-differentiation
  converts diffusion waves, whose ``t^-1/2`` tails bury later waves, into
  symmetric peaks centred on the half-wave potential — the classic trick
  for resolving closely spaced targets such as the benzphetamine /
  aminopyrine pair on one CYP2B4 electrode (paper Sec. III).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.chem import constants as C
from repro.errors import AnalysisError
from repro.measurement.trace import Voltammogram
from repro.units import ensure_positive

__all__ = [
    "Peak",
    "PeakAssignment",
    "semi_derivative",
    "find_peaks",
    "assign_peaks",
    "reversible_peak_offset",
]


def reversible_peak_offset(n_electrons: int = 2) -> float:
    """|Ep - E0| of a reversible wave, volts (1.109 RT/nF)."""
    if n_electrons < 1:
        raise AnalysisError("n_electrons must be >= 1")
    return C.REVERSIBLE_PEAK_OFFSET / (n_electrons * C.F_OVER_RT)


def semi_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Half-order derivative of a uniformly sampled series.

    Grunwald-Letnikov weights: ``w0 = 1``, ``wk = w(k-1)*(k - 3/2)/k``;
    the semi-derivative is the running convolution scaled by
    ``dt^-1/2``.  Linear in its input, so peak heights remain
    concentration-proportional.

    The convolution is the one ``scipy.signal.fftconvolve`` runs for
    real inputs in ``"full"`` mode — ``rfftn`` of both at the fast
    length ``next_fast_len(2n - 1, True)``, their product, ``irfftn`` —
    so the result is bit for bit ``fftconvolve(values, weights)[:n] /
    sqrt(dt)``.  The weights and their spectrum depend only on ``n``, so
    they are built once per record length.
    """
    from scipy import fft
    ensure_positive(dt, "dt")
    series = np.asarray(values, dtype=float)
    if series.ndim != 1 or series.size < 2:
        raise AnalysisError("semi_derivative needs a 1-D series of >= 2 samples")
    n = series.size
    nfft = fft.next_fast_len(2 * n - 1, True)
    spectrum = fft.rfftn(series, (nfft,)) * _weights_spectrum(n, nfft)
    out = fft.irfftn(spectrum, (nfft,))[:n]
    return out / math.sqrt(dt)


@functools.lru_cache(maxsize=64)
def _weights_spectrum(n: int, nfft: int) -> np.ndarray:
    """``rfftn`` at ``nfft`` of the first ``n`` Grunwald-Letnikov weights."""
    from scipy import fft
    weights = np.empty(n)
    weights[0] = 1.0
    for k in range(1, n):
        weights[k] = weights[k - 1] * (k - 1.5) / k
    spectrum = fft.rfftn(weights, (nfft,))
    spectrum.setflags(write=False)
    return spectrum


@dataclass(frozen=True)
class Peak:
    """One detected voltammetric peak.

    ``height`` is the prominence above the local baseline (the
    concentration-proportional quantity); ``current`` the signed current
    at the apex; ``width`` the full width at half prominence in volts.
    ``method`` records how it was found (``"raw"`` peaks carry the
    reversible offset, ``"semiderivative"`` peaks sit at the half-wave
    potential).
    """

    potential: float
    current: float
    height: float
    width: float
    cathodic: bool
    method: str = "raw"

    def formal_potential_estimate(self, n_electrons: int = 2) -> float:
        """Best estimate of the couple's formal potential, volts.

        Raw cathodic peaks sit ``1.109 RT/nF`` below E0; semiderivative
        peaks sit at the half-wave potential, which equals E0 for equal
        diffusivities of both forms.
        """
        if self.method == "semiderivative":
            return self.potential
        offset = reversible_peak_offset(n_electrons)
        return (self.potential + offset if self.cathodic
                else self.potential - offset)


@dataclass(frozen=True)
class PeakAssignment:
    """The result of matching detected peaks against candidate targets."""

    matches: dict[str, Peak]
    unassigned_peaks: tuple[Peak, ...]
    missing_targets: tuple[str, ...]

    @property
    def all_assigned(self) -> bool:
        return not self.missing_targets


def find_peaks(voltammogram: Voltammogram, cathodic: bool = True,
               cycle: int = 0, min_height: float = 1.0e-9,
               min_separation: float = 0.03,
               method: str = "raw",
               smooth_samples: int = 1) -> tuple[Peak, ...]:
    """Detect peaks on one sweep leg.

    Parameters
    ----------
    cathodic:
        Reduction peaks (the CYP signatures of Table II) when True.
    min_height:
        Prominence threshold; amperes for ``"raw"``, A/sqrt(s) for
        ``"semiderivative"``.  Set a few sigma above the channel noise.
    min_separation:
        Minimum peak spacing in volts; closer features merge (which is
        also what happens physically — see torsemide/diclofenac at
        -19/-41 mV).
    method:
        ``"raw"`` or ``"semiderivative"`` (see module docstring).
    smooth_samples:
        Moving-average window applied before detection (odd, >= 1).
        Noisy records need it: prominence is measured against local
        minima, which unsmoothed noise drags down, inflating every
        height by a few sigma.
    """
    from scipy.signal import find_peaks as _scipy_find_peaks
    ensure_positive(min_height, "min_height")
    ensure_positive(min_separation, "min_separation")
    if method not in ("raw", "semiderivative"):
        raise AnalysisError(
            f"method must be 'raw' or 'semiderivative', got {method!r}")
    if smooth_samples < 1 or smooth_samples % 2 == 0:
        raise AnalysisError("smooth_samples must be an odd integer >= 1")
    leg = voltammogram.leg(cathodic=cathodic, cycle=cycle)
    signal = -leg.current if cathodic else leg.current
    if smooth_samples > 1 and signal.size > smooth_samples:
        kernel = np.ones(smooth_samples) / smooth_samples
        signal = np.convolve(signal, kernel, mode="same")
    if method == "semiderivative":
        dt = float(leg.times[1] - leg.times[0])
        signal = semi_derivative(signal, dt)
    potentials = leg.potentials
    if potentials.size < 5:
        raise AnalysisError("leg too short for peak detection")
    step = float(np.median(np.abs(np.diff(potentials))))
    if step <= 0.0:
        raise AnalysisError("degenerate potential axis")
    distance = max(int(min_separation / step), 1)
    idx, props = _scipy_find_peaks(signal, prominence=min_height,
                                   distance=distance, width=1)
    peaks = []
    for k, i in enumerate(idx):
        peaks.append(Peak(
            potential=float(potentials[i]),
            current=float(leg.current[i]),
            height=float(props["prominences"][k]),
            width=float(props["widths"][k]) * step,
            cathodic=cathodic,
            method=method,
        ))
    return tuple(sorted(peaks, key=lambda p: p.potential, reverse=True))


def assign_peaks(peaks: tuple[Peak, ...], candidates: dict[str, float],
                 tolerance: float = 0.045,
                 n_electrons: int = 2) -> PeakAssignment:
    """Match detected peaks to candidate formal potentials.

    ``candidates`` maps target names to formal potentials (volts, the
    Table II column).  Greedy nearest-distance matching within
    ``tolerance``, after correcting each peak's position to its formal-
    potential estimate; each peak and each target is used at most once.
    """
    ensure_positive(tolerance, "tolerance")
    pairs: list[tuple[float, int, str]] = []
    for k, peak in enumerate(peaks):
        position = peak.formal_potential_estimate(n_electrons)
        for name, e_formal in candidates.items():
            distance = abs(position - e_formal)
            if distance <= tolerance:
                pairs.append((distance, k, name))
    pairs.sort()
    matches: dict[str, Peak] = {}
    used_peaks: set[int] = set()
    for distance, k, name in pairs:
        if name in matches or k in used_peaks:
            continue
        matches[name] = peaks[k]
        used_peaks.add(k)
    unassigned = tuple(p for k, p in enumerate(peaks) if k not in used_peaks)
    missing = tuple(sorted(set(candidates) - set(matches)))
    return PeakAssignment(matches=matches, unassigned_peaks=unassigned,
                          missing_targets=missing)
