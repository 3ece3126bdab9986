"""Measurement result containers.

Two shapes of data come out of the paper's protocols:

- :class:`Trace` — a current-versus-time record (chronoamperometry),
- :class:`Voltammogram` — a current-versus-potential record with sweep
  bookkeeping (cyclic voltammetry).

Both wrap the digitised current *estimates* (post TIA/ADC); raw readings
(:class:`~repro.electronics.chain.ChannelReading`) stay attached for
anyone who needs codes or saturation flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.electronics.chain import ChannelReading
from repro.errors import AnalysisError
from repro.units import ensure_positive

__all__ = ["Trace", "Voltammogram"]


@dataclass(frozen=True)
class Trace:
    """A uniformly sampled current-versus-time record.

    ``current`` is the calibrated estimate reconstructed from ADC codes;
    ``true_current`` the noiseless cell current (available because this is
    a simulator — benches use it to separate chain error from chemistry).
    """

    times: np.ndarray
    current: np.ndarray
    true_current: np.ndarray | None = None
    channel: str = ""
    reading: ChannelReading | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        i = np.asarray(self.current, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise AnalysisError("a trace needs at least two samples")
        if i.shape != t.shape:
            raise AnalysisError("times/current shape mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "current", i)
        if self.true_current is not None:
            tc = np.asarray(self.true_current, dtype=float)
            if tc.shape != t.shape:
                raise AnalysisError("true_current shape mismatch")
            object.__setattr__(self, "true_current", tc)

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def window(self, t_start: float, t_end: float) -> "Trace":
        """The sub-trace with t_start <= t <= t_end."""
        if t_end <= t_start:
            raise AnalysisError("window end must be after start")
        mask = (self.times >= t_start) & (self.times <= t_end)
        if int(np.count_nonzero(mask)) < 2:
            raise AnalysisError(
                f"window [{t_start}, {t_end}] holds fewer than 2 samples")
        return Trace(
            times=self.times[mask], current=self.current[mask],
            true_current=(self.true_current[mask]
                          if self.true_current is not None else None),
            channel=self.channel)

    def tail_mean(self, fraction: float = 0.2) -> float:
        """Mean of the last ``fraction`` of samples (steady-state value)."""
        return float(np.mean(self._tail(fraction)))

    def smoothed(self, window: int = 11) -> "Trace":
        """Moving-average copy (odd ``window``), for metric extraction.

        Response-time metrics read threshold crossings; on noisy records
        the band edges are re-crossed by noise long after the chemistry
        has settled, so the practitioner smooths first (the paper's
        Fig. 3 curve is visibly filtered too).
        """
        if window < 1 or window % 2 == 0:
            raise AnalysisError("window must be an odd integer >= 1")
        if window == 1 or window >= self.n_samples:
            return self
        kernel = np.ones(window) / window
        padded = np.concatenate([
            np.full(window // 2, self.current[0]),
            self.current,
            np.full(window // 2, self.current[-1])])
        smooth = np.convolve(padded, kernel, mode="valid")
        return Trace(times=self.times, current=smooth,
                     true_current=self.true_current, channel=self.channel)

    def max_slope(self) -> tuple[float, float]:
        """(time, dI/dt) of the steepest rise — the transient response
        marker of Sec. II-B: "the time necessary for the first derivative
        ... to reach its maximum value"."""
        slope = np.gradient(self.current, self.times)
        k = int(np.argmax(slope))
        return float(self.times[k]), float(slope[k])

    def _tail(self, fraction: float) -> np.ndarray:
        if not 0.0 < fraction <= 1.0:
            raise AnalysisError("fraction must be in (0, 1]")
        n = max(int(self.n_samples * fraction), 2)
        return self.current[-n:]


@dataclass(frozen=True)
class Voltammogram:
    """A cyclic-voltammetry record: current against swept potential.

    ``potentials`` is the applied potential at each sample; ``sweep_sign``
    holds +1 on anodic legs and -1 on cathodic legs, which is how the
    peak detector separates forward and return waves.
    """

    times: np.ndarray
    potentials: np.ndarray
    current: np.ndarray
    sweep_sign: np.ndarray
    scan_rate: float
    channel: str = ""
    true_current: np.ndarray | None = None
    reading: ChannelReading | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        for name in ("potentials", "current", "sweep_sign"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise AnalysisError(f"{name} shape mismatch")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "times", t)
        ensure_positive(self.scan_rate, "scan_rate")

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def leg(self, cathodic: bool = True, cycle: int = 0) -> "Voltammogram":
        """One sweep leg of one cycle (cathodic = reduction direction).

        Cycles are numbered from 0; the record must contain the requested
        cycle.
        """
        sign = -1.0 if cathodic else 1.0
        mask = self.sweep_sign == sign
        if not np.any(mask):
            raise AnalysisError("no samples in the requested direction")
        # Split contiguous runs of the requested direction; run k is cycle k.
        idx = np.flatnonzero(mask)
        breaks = np.flatnonzero(np.diff(idx) > 1)
        runs = np.split(idx, breaks + 1)
        if cycle >= len(runs):
            raise AnalysisError(
                f"cycle {cycle} not in record ({len(runs)} runs)")
        take = runs[cycle]
        return Voltammogram(
            times=self.times[take], potentials=self.potentials[take],
            current=self.current[take], sweep_sign=self.sweep_sign[take],
            scan_rate=self.scan_rate, channel=self.channel,
            true_current=(self.true_current[take]
                          if self.true_current is not None else None))

    def current_at(self, potential: float, cathodic: bool = True,
                   cycle: int = 0) -> float:
        """Interpolated current at ``potential`` on the chosen leg."""
        leg = self.leg(cathodic=cathodic, cycle=cycle)
        order = np.argsort(leg.potentials)
        return float(np.interp(potential, leg.potentials[order],
                               leg.current[order]))
