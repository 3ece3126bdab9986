"""Noise models and low-frequency noise-reduction strategies (Sec. II-C).

"Particular care has to be taken for the Flicker (or 1/f) noise component,
which can be reduced by techniques such as chopping and Correlated Double
Sampling (CDS)."

The model is an input-referred current noise with three parts:

- a white floor (TIA thermal + amplifier noise),
- a flicker component with spectral density ``white^2 * fc / f`` below the
  corner frequency ``fc``,
- slow baseline drift (electrode fouling, temperature) modelled as a ramp.

Strategies transform the *effective* spectrum:

- :class:`ChoppingStrategy` modulates the signal above the corner before
  amplification, suppressing the flicker contribution by the ratio of the
  corner to the chop frequency;
- :class:`CdsStrategy` subtracts a correlated reference sample (the
  paper's extra enzyme-free WE), cancelling drift and correlated flicker
  at a sqrt(2) white-noise penalty.  Whether the *chemical* blank is valid
  (it is not for direct oxidisers like dopamine/etoposide) is decided at
  the protocol level — this module only handles the electronics.

Noise time series are synthesised spectrally (rFFT shaping), seeded
through numpy Generators so every simulation is reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ElectronicsError
from repro.units import ensure_non_negative, ensure_positive

__all__ = [
    "NoiseModel",
    "NoiseStrategy",
    "NoStrategy",
    "ChoppingStrategy",
    "CdsStrategy",
    "flicker_noise_series",
]


class _RecordConstants(NamedTuple):
    """What a noise draw derives from its record shape alone."""

    ramp: np.ndarray     # sample times arange(n) / fs, for the drift
    shaping: np.ndarray  # 1/sqrt(f) per rFFT bin, 0 at DC
    band: np.ndarray     # the rFFT frequencies above DC
    df: float            # the bin spacing fs / n


@functools.lru_cache(maxsize=64)
def _record_constants(n: int, sample_rate: float) -> _RecordConstants:
    """The shape constants of an ``n``-sample record at ``sample_rate``,
    built once per shape (arrays read-only, shared between draws)."""
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    shaping = np.zeros_like(freqs)
    nonzero = freqs > 0.0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    ramp = np.arange(n) / sample_rate
    band = freqs[nonzero]
    for array in (ramp, shaping, band):
        array.flags.writeable = False
    return _RecordConstants(ramp, shaping, band, sample_rate / n)


def flicker_noise_series(rng: np.random.Generator, n: int, sample_rate: float,
                         density_at_1hz: float) -> np.ndarray:
    """A 1/f-noise series of length ``n``.

    ``density_at_1hz`` is the amplitude spectral density at 1 Hz,
    A/sqrt(Hz); the synthesised PSD falls as 1/f.  Uses rFFT shaping of a
    white series; the DC bin is zeroed (drift is modelled separately).
    """
    ensure_positive(sample_rate, "sample_rate")
    ensure_non_negative(density_at_1hz, "density_at_1hz")
    if n < 1:
        raise ElectronicsError("series length must be >= 1")
    if density_at_1hz == 0.0 or n == 1:
        return np.zeros(n)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    record = _record_constants(n, sample_rate)
    shaped = np.fft.irfft(spectrum * record.shaping, n=n)
    # Normalise so the realised PSD matches density_at_1hz^2 / f: the
    # white input has PSD 2/fs per unit variance (one-sided), so scale by
    # density * sqrt(fs/2) ... folded into an empirical RMS normalisation
    # over the shaped series' analytic RMS.
    target_var = np.sum(density_at_1hz ** 2 / record.band) * record.df
    realised_var = float(np.var(shaped))
    if realised_var <= 0.0:
        return np.zeros(n)
    return shaped * math.sqrt(target_var / realised_var)


@dataclass(frozen=True)
class NoiseModel:
    """Input-referred current-noise budget of one readout channel.

    Parameters
    ----------
    white_density:
        White floor, A/sqrt(Hz).
    flicker_corner:
        Corner frequency, Hz: below it the 1/f component exceeds the
        white floor.
    drift_rate:
        Slow baseline drift, A/s (electrode fouling, temperature).
    """

    white_density: float
    flicker_corner: float = 10.0
    drift_rate: float = 0.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.white_density, "white_density")
        ensure_non_negative(self.flicker_corner, "flicker_corner")
        ensure_non_negative(abs(self.drift_rate), "drift_rate")

    @property
    def flicker_density_at_1hz(self) -> float:
        """Flicker ASD at 1 Hz: white * sqrt(fc), A/sqrt(Hz)."""
        return self.white_density * math.sqrt(self.flicker_corner)

    def rms_in_band(self, f_low: float, f_high: float) -> float:
        """RMS noise integrated from ``f_low`` to ``f_high``, amperes.

        White part: ``white * sqrt(f_high - f_low)``; flicker part:
        ``white * sqrt(fc * ln(f_high/f_low))``.
        """
        ensure_positive(f_low, "f_low")
        if f_high <= f_low:
            raise ElectronicsError("f_high must exceed f_low")
        white_var = self.white_density ** 2 * (f_high - f_low)
        flicker_var = (self.white_density ** 2 * self.flicker_corner
                       * math.log(f_high / f_low))
        return math.sqrt(white_var + flicker_var)

    def sample(self, rng: np.random.Generator, n: int,
               sample_rate: float) -> np.ndarray:
        """A reproducible noise time series of ``n`` samples, amperes."""
        ensure_positive(sample_rate, "sample_rate")
        nyquist = sample_rate / 2.0
        white = (rng.standard_normal(n)
                 * self.white_density * math.sqrt(nyquist))
        flicker = flicker_noise_series(
            rng, n, sample_rate, self.flicker_density_at_1hz)
        drift = self.drift_rate * _record_constants(n, sample_rate).ramp
        return white + flicker + drift

    def scaled(self, white_factor: float = 1.0,
               corner_factor: float = 1.0,
               drift_factor: float = 1.0) -> "NoiseModel":
        """A transformed budget (what the strategies return)."""
        return NoiseModel(
            white_density=self.white_density * white_factor,
            flicker_corner=self.flicker_corner * corner_factor,
            drift_rate=self.drift_rate * drift_factor,
        )


class NoiseStrategy:
    """Base: transforms the effective noise budget of a channel."""

    #: Human-readable name used in reports and benches.
    name: str = "none"
    #: Whether the strategy needs a dedicated blank working electrode.
    needs_blank_electrode: bool = False

    def effective_noise(self, model: NoiseModel) -> NoiseModel:
        """The budget after the strategy is applied."""
        raise NotImplementedError

    def extra_power(self) -> float:
        """Added power, watts (clock generators, switches)."""
        return 0.0

    def extra_area_mm2(self) -> float:
        """Added silicon area, mm^2."""
        return 0.0


@dataclass(frozen=True)
class NoStrategy(NoiseStrategy):
    """Raw readout: the budget passes through unchanged."""

    name: str = "raw"

    def effective_noise(self, model: NoiseModel) -> NoiseModel:
        return model


@dataclass(frozen=True)
class ChoppingStrategy(NoiseStrategy):
    """Chopper stabilisation (Sec. II-C).

    "Chopping involves moving the signal of interest to a higher frequency
    before amplification."  Modulating at ``chop_frequency`` well above
    the flicker corner leaves only the residual corner
    ``fc^2 / f_chop`` — the budget's corner shrinks by ``fc/f_chop``.
    Drift is modulated away entirely.
    """

    chop_frequency: float = 1.0e3
    name: str = "chopping"

    def __post_init__(self) -> None:
        ensure_positive(self.chop_frequency, "chop_frequency")

    def effective_noise(self, model: NoiseModel) -> NoiseModel:
        if model.flicker_corner == 0.0:
            return model.scaled(drift_factor=0.0)
        if self.chop_frequency <= model.flicker_corner:
            raise ElectronicsError(
                f"chop frequency {self.chop_frequency} Hz must sit above "
                f"the flicker corner {model.flicker_corner} Hz")
        corner_factor = model.flicker_corner / self.chop_frequency
        return model.scaled(corner_factor=corner_factor, drift_factor=0.0)

    def extra_power(self) -> float:
        return 20.0e-6

    def extra_area_mm2(self) -> float:
        return 0.01


@dataclass(frozen=True)
class CdsStrategy(NoiseStrategy):
    """Correlated double sampling against a blank reference (Sec. II-C).

    "The output of the sensor is measured twice: once in a known condition
    and once in an unknown condition ... the latter can be realized using
    an extra WE without any enzyme on it."  Subtraction cancels the
    correlated low-frequency content (drift and a fraction
    ``correlation`` of the flicker noise) and doubles the white variance.
    """

    correlation: float = 0.9
    name: str = "cds"
    needs_blank_electrode: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation < 1.0:
            raise ElectronicsError(
                f"correlation must be in [0, 1), got {self.correlation!r}")

    def effective_noise(self, model: NoiseModel) -> NoiseModel:
        white_factor = math.sqrt(2.0)
        # Residual flicker variance after subtracting a correlated copy:
        # 2*(1 - rho); expressed as a corner shrink on the doubled floor.
        residual = 2.0 * (1.0 - self.correlation)
        corner_factor = residual / 2.0  # relative to the doubled white var
        return model.scaled(white_factor=white_factor,
                            corner_factor=corner_factor,
                            drift_factor=0.0)

    def extra_power(self) -> float:
        return 10.0e-6

    def extra_area_mm2(self) -> float:
        return 0.02
