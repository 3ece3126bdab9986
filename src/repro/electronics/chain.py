"""The full acquisition chain of the platform (paper Fig. 2).

Voltage generator -> potentiostat -> electrochemical cell -> multiplexer ->
transimpedance amplifier -> ADC.  The chemistry layers produce a cell
current; this module carries it through the electronics: mux settling and
charge injection, input-referred noise (with the selected reduction
strategy), TIA transfer and rails, ADC quantisation — and back out as the
calibrated current estimate a host would compute from the codes.

The chain is deliberately *stateless* across calls: every ``digitize``
receives explicit times and currents and a seeded RNG, so simulations are
reproducible sample-for-sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.electronics.adc import ADC
from repro.electronics.mux import Multiplexer, MuxSchedule
from repro.electronics.noise import NoiseModel, NoiseStrategy, NoStrategy
from repro.electronics.potentiostat import Potentiostat
from repro.electronics.tia import TransimpedanceAmplifier
from repro.errors import ElectronicsError
from repro.sensors.electrode import WorkingElectrode
from repro.units import ensure_non_negative, ensure_positive

__all__ = ["ChannelReading", "AcquisitionChain"]


@dataclass(frozen=True)
class ChannelReading:
    """The digitised record of one channel.

    All arrays share one length.  ``current_estimate`` is what a host
    reconstructs from the codes through the known TIA/ADC transfer — the
    quantity every metric in :mod:`repro.analysis` is computed from.
    """

    times: np.ndarray
    true_current: np.ndarray
    input_current: np.ndarray
    output_voltage: np.ndarray
    codes: np.ndarray
    current_estimate: np.ndarray
    saturated: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.size
        for name in ("true_current", "input_current", "output_voltage",
                     "codes", "current_estimate", "saturated"):
            if getattr(self, name).size != n:
                raise ElectronicsError(
                    f"ChannelReading field {name} length mismatch")

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def any_saturated(self) -> bool:
        return bool(np.any(self.saturated))

    def tail(self, fraction: float = 0.2) -> np.ndarray:
        """The last ``fraction`` of the current estimates (steady window)."""
        if not 0.0 < fraction <= 1.0:
            raise ElectronicsError("fraction must be in (0, 1]")
        n = max(int(self.n_samples * fraction), 1)
        return self.current_estimate[-n:]


class AcquisitionChain:
    """Potentiostat + mux + TIA + noise strategy + ADC, as one signal path.

    Parameters
    ----------
    potentiostat, tia, adc:
        The analog blocks; see their classes for the modelled effects.
    mux:
        Optional multiplexer (required by multi-WE protocols that share
        this chain across electrodes).
    noise_strategy:
        A :class:`~repro.electronics.noise.NoiseStrategy`; default raw.
    baseline_drift_rate:
        Slow sensor drift, A/s, before any membrane suppression
        (fouling/temperature; cancelled by chopping/CDS).
    seed:
        Seed for the chain's default RNG; ``digitize`` also accepts an
        explicit generator.
    """

    def __init__(self, potentiostat: Potentiostat | None = None,
                 tia: TransimpedanceAmplifier | None = None,
                 adc: ADC | None = None,
                 mux: Multiplexer | None = None,
                 noise_strategy: NoiseStrategy | None = None,
                 baseline_drift_rate: float = 2.0e-10,
                 seed: int = 2011) -> None:
        self.potentiostat = potentiostat if potentiostat else Potentiostat()
        self.tia = tia if tia else TransimpedanceAmplifier()
        self.adc = adc if adc else ADC()
        self.mux = mux
        self.noise_strategy = noise_strategy if noise_strategy else NoStrategy()
        self.baseline_drift_rate = ensure_non_negative(
            baseline_drift_rate, "baseline_drift_rate")
        self._rng = np.random.default_rng(seed)

    # -- noise budget -------------------------------------------------------------

    def noise_model_for(self, we: WorkingElectrode | None = None) -> NoiseModel:
        """The channel's input-referred budget, strategy applied.

        White floor: TIA thermal plus the electrode's own electrochemical
        noise; flicker corner from the TIA; drift scaled down by the
        membrane's suppression when a WE is given.
        """
        white = self.tia.thermal_noise_density()
        drift = self.baseline_drift_rate
        if we is not None:
            white = math.hypot(white, we.sensor_noise_density
                               * we.electrode.equivalent_radius / 1.0e-3)
            drift *= (1.0 - we.functionalization.drift_suppression)
        raw = NoiseModel(white_density=white,
                         flicker_corner=self.tia.flicker_corner,
                         drift_rate=drift)
        return self.noise_strategy.effective_noise(raw)

    def noise_rms(self, we: WorkingElectrode | None = None,
                  bandwidth: float | None = None) -> float:
        """RMS input-referred noise over the measurement band, amperes."""
        model = self.noise_model_for(we)
        f_high = bandwidth if bandwidth else min(
            self.tia.bandwidth, self.adc.sample_rate / 2.0)
        f_low = 0.01  # a 100 s observation window
        return model.rms_in_band(f_low, f_high)

    def quantization_noise_rms(self) -> float:
        """Input-referred ADC quantization noise, amperes (LSB/sqrt(12))."""
        return self.adc.quantization_noise_rms() / self.tia.feedback_resistance

    def effective_input_noise(self, we: WorkingElectrode | None = None,
                              bandwidth: float | None = None) -> float:
        """Analog noise and quantization combined in quadrature, amperes.

        This is the floor the LOD estimates must use: a 100 nA-resolution
        readout cannot resolve a 20 nA peak no matter how quiet the
        amplifier is (the reason the micro platform needs the finer
        cyp_micro class).
        """
        return math.hypot(self.noise_rms(we, bandwidth),
                          self.quantization_noise_rms())

    # -- digitisation ----------------------------------------------------------------

    def noise_source(self, we: WorkingElectrode | None,
                     times: np.ndarray) -> tuple[NoiseModel, int, float]:
        """What one channel's noise draw over uniform ``times`` reads:
        ``(budget, n_samples, sample_rate)``, the rate being
        ``1/(t1 - t0)``.  A draw is ``budget.sample(generator, n,
        rate)``; the fleet scheduler resolves these once per planned
        chemistry and draws per job."""
        return (self.noise_model_for(we), times.size,
                1.0 / float(times[1] - times[0]))

    def draw_noise(self, generator: np.random.Generator,
                   we: WorkingElectrode | None,
                   times: np.ndarray) -> np.ndarray:
        """One channel's input-referred noise over uniform ``times``, A.

        The draw :meth:`digitize` and :meth:`digitize_batch` make, over
        :meth:`noise_source`.
        """
        model, n, sample_rate = self.noise_source(we, times)
        return model.sample(generator, n, sample_rate)

    def digitize(self, times: np.ndarray, currents: np.ndarray,
                 we: WorkingElectrode | None = None,
                 schedule: MuxSchedule | None = None,
                 rng: np.random.Generator | None = None) -> ChannelReading:
        """Carry a cell-current waveform through mux, noise, TIA and ADC.

        ``times`` must be uniformly spaced (the noise synthesis needs a
        sample rate).  When a ``schedule`` is given the mux settling
        factor and charge-injection spike are applied according to the
        time each sample sits after its channel switch.
        """
        currents = np.asarray(currents, dtype=float)
        [reading] = self._transfer(times, currents[np.newaxis], [we],
                                   schedule, rng, None)
        return reading

    def digitize_batch(self, times: np.ndarray, currents: np.ndarray,
                       wes=None, schedule: MuxSchedule | None = None,
                       rng: np.random.Generator | None = None,
                       noise: np.ndarray | None = None,
                       ) -> list[ChannelReading]:
        """Digitise a stacked ``(M, N)`` batch of channel currents.

        Row ``j`` is channel ``j``'s cell current over the shared
        ``times``; ``wes`` optionally gives one
        :class:`~repro.sensors.electrode.WorkingElectrode` per row for
        its noise budget.  Without ``noise`` each row's noise is drawn
        in row order from the one generator, as M :meth:`digitize`
        calls would draw it.  A pre-drawn ``(M, N)`` ``noise`` (the
        fleet scheduler's, per job in electrode order) consumes no
        generator.  Every transfer step is elementwise, so each reading
        is bit-identical to a :meth:`digitize` call fed the same noise.
        """
        currents = np.asarray(currents, dtype=float)
        if currents.ndim != 2:
            raise ElectronicsError(
                "digitize_batch needs a (channels, samples) current array")
        wes = list(wes) if wes is not None else [None] * currents.shape[0]
        if len(wes) != currents.shape[0]:
            raise ElectronicsError(f"got {len(wes)} working electrodes "
                                   f"for {currents.shape[0]} rows")
        return self._transfer(times, currents, wes, schedule, rng, noise)

    def _transfer(self, times, currents: np.ndarray, wes: list,
                  schedule: MuxSchedule | None,
                  rng: np.random.Generator | None,
                  noise: np.ndarray | None) -> list[ChannelReading]:
        """``(M, N)`` currents through mux, TIA and ADC in one 2-D pass;
        missing noise is drawn row by row first."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ElectronicsError("digitize needs at least two samples")
        if currents.shape[1:] != times.shape:
            raise ElectronicsError("times and currents must have equal shape")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12):
            raise ElectronicsError("digitize needs uniform sampling")
        if schedule is not None and self.mux is None:
            raise ElectronicsError(
                "a mux schedule was given but the chain has no mux")
        if noise is None:
            generator = rng if rng is not None else self._rng
            noise = np.empty_like(currents)
            for j, we in enumerate(wes):
                noise[j] = self.draw_noise(generator, we, times)
        elif np.shape(noise) != currents.shape:
            raise ElectronicsError("noise and currents must have equal shape")

        effective = currents
        if schedule is not None:
            since = schedule.times_since_switch(times)
            effective = (currents * self.mux.settling_factors(since)
                         + self.mux.injection_currents(since))
        input_current = effective + noise
        volts = self.tia.output_voltage(input_current)
        codes = self.adc.quantize(volts)
        estimates = self.tia.input_current(self.adc.to_voltage(codes))
        saturated = self.tia.saturates(input_current)
        # The TIA has clipped ``volts`` to its rails, so the ADC's strict
        # range check can only fire when its range is narrower.
        if self.adc.v_min > -self.tia.rail or self.adc.v_max < self.tia.rail:
            saturated |= self.adc.saturates(volts)
        return [ChannelReading(
            times=times, true_current=currents[j],
            input_current=input_current[j], output_voltage=volts[j],
            codes=codes[j], current_estimate=estimates[j],
            saturated=saturated[j]) for j in range(len(wes))]

    def measure_constant(self, current: float, duration: float = 10.0,
                         sample_rate: float | None = None,
                         we: WorkingElectrode | None = None,
                         rng: np.random.Generator | None = None,
                         ) -> tuple[float, float]:
        """Digitise a constant current and return (mean, std) estimates.

        This is the fast path for calibration sweeps and LOD blanks:
        thousands of concentration points reduce to one steady current
        each, measured through the full chain for ``duration`` seconds.
        The sample count rounds like the protocols' time axes do, so a
        non-integer ``duration * fs`` no longer silently drops the final
        sample (at least 8 samples are always taken).
        """
        ensure_positive(duration, "duration")
        fs = sample_rate if sample_rate else self.adc.sample_rate
        n = max(int(round(duration * fs)), 8)
        times = np.arange(n) / fs
        currents = np.full(n, float(current))
        reading = self.digitize(times, currents, we=we, rng=rng)
        return (float(np.mean(reading.current_estimate)),
                float(np.std(reading.current_estimate)))

    # -- budgets ------------------------------------------------------------------------

    def total_power(self) -> float:
        """Power of every block in this chain, watts."""
        total = self.potentiostat.power + self.tia.power + self.adc.power
        if self.mux is not None:
            total += self.mux.power
        total += self.noise_strategy.extra_power()
        return total

    def total_area_mm2(self) -> float:
        """Silicon area of every block, mm^2."""
        total = (self.potentiostat.area_mm2 + self.tia.area_mm2
                 + self.adc.area_mm2)
        if self.mux is not None:
            total += self.mux.area_mm2
        total += self.noise_strategy.extra_area_mm2()
        return total

    def describe(self) -> str:
        """One-line signal-path summary (Fig. 2 in words)."""
        mux_part = (f" -> mux({self.mux.n_channels})" if self.mux else "")
        return (f"generator -> potentiostat(G={self.potentiostat.open_loop_gain:.0e})"
                f"{mux_part} -> TIA(Rf={self.tia.feedback_resistance:.0e} ohm)"
                f" -> {self.noise_strategy.name}"
                f" -> ADC({self.adc.n_bits} bit @ {self.adc.sample_rate:g} Hz)")
