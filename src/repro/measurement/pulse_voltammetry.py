"""Differential pulse voltammetry (DPV) — an extension beyond the paper.

The paper closes by noting that benzphetamine and aminopyrine "have a much
lower sensitivity with respect to the other values" (Sec. III).  The
classic instrumental answer — and the natural next step for the platform's
voltage generator — is DPV: superimpose short potential pulses on a slow
staircase and record the *difference* between the current just before each
pulse and at its end.

Two properties make the differential measurement attractive here:

- **charging rejection** — the double-layer charging spike after each
  step decays with ``tau = R_s * C_dl`` (tens of microseconds for the
  platform's 0.23 mm^2 pads), far faster than the ~100 ms pulse, so both
  samples see essentially zero charging current and the background that
  plagues linear-sweep CV subtracts away;
- **peak-shaped output** — the difference of two sigmoid wave positions
  is a symmetric peak centred near the half-wave potential, which
  resolves adjacent targets without semi-derivative post-processing.

The simulator reuses the coupled ox/red diffusion channels of the CV
engine; only the potential program and the sampling pattern differ.
Like CV, the staircase runs as a one-sweep
:class:`~repro.engine.scheduler.SweepBatch` — one batched tridiagonal
solve per sample for all channels of the staircase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem import constants as C
from repro.electronics.chain import AcquisitionChain
from repro.engine.scheduler import SweepBatch
from repro.errors import ProtocolError
from repro.measurement.voltammetry import (
    build_channel_simulators,
    faradaic_current,
)
from repro.sensors.cell import ElectrochemicalCell
from repro.units import ensure_positive

__all__ = ["DifferentialPulseVoltammetry", "DpvResult", "DpvPeak"]


@dataclass(frozen=True)
class DpvPeak:
    """One detected DPV peak: position (base potential) and height (A)."""

    potential: float
    height: float


@dataclass
class _DpvSweep:
    """The staircase as a :class:`~repro.engine.scheduler.SweepBatch`
    plan: the current at each sample is the channels' faradaic term plus
    the leakage.

    Steps happen between samples; the double-layer spike decays with
    tau = Rs*Cdl (~tens of us) and is gone by the next sample — the
    charging rejection DPV is built on — so no charging term appears.
    """

    times: np.ndarray
    potentials: np.ndarray
    channels: list
    coefficients: list
    leakage: float

    def row_from_fluxes(self, flux_rows) -> np.ndarray:
        return (faradaic_current(self.coefficients, flux_rows,
                                 self.times.size) + self.leakage)


@dataclass(frozen=True)
class DpvResult:
    """A DPV record: differential current against staircase potential."""

    base_potentials: np.ndarray
    differential: np.ndarray
    i_before: np.ndarray
    i_pulse: np.ndarray
    pulse_amplitude: float

    @property
    def n_points(self) -> int:
        return int(self.base_potentials.size)

    def find_peaks(self, min_height: float = 1.0e-10,
                   min_separation: float = 0.03) -> tuple[DpvPeak, ...]:
        """Reduction peaks of the differential (cathodic convention)."""
        from scipy.signal import find_peaks as _scipy_find_peaks
        ensure_positive(min_height, "min_height")
        signal = -self.differential
        step = float(np.median(np.abs(np.diff(self.base_potentials))))
        distance = max(int(min_separation / max(step, 1e-12)), 1)
        idx, props = _scipy_find_peaks(signal, prominence=min_height,
                                       distance=distance)
        peaks = [DpvPeak(potential=float(self.base_potentials[i]),
                         height=float(props["prominences"][k]))
                 for k, i in enumerate(idx)]
        return tuple(sorted(peaks, key=lambda p: p.potential, reverse=True))


class DifferentialPulseVoltammetry:
    """DPV protocol: staircase toward ``e_end`` with superimposed pulses.

    Parameters
    ----------
    e_start, e_end:
        Staircase limits, volts; a cathodic scan has ``e_end < e_start``.
    step_potential:
        Staircase increment magnitude per period, volts.
    pulse_amplitude:
        Pulse height, volts, applied in the scan direction.
    pulse_width:
        Pulse duration, seconds.
    period:
        Staircase period, seconds (must exceed the pulse width).
    dt:
        Simulation/sampling time step; must divide the period and leave
        at least two samples inside the pulse.
    sample_window:
        Samples averaged at the end of each phase for the two readings
        (instrumental integration; beats white noise down by sqrt(N)).
    """

    def __init__(self, e_start: float, e_end: float,
                 step_potential: float = 0.005,
                 pulse_amplitude: float = 0.050,
                 pulse_width: float = 0.1,
                 period: float = 0.4,
                 dt: float = 0.02,
                 sample_window: int = 2) -> None:
        if e_end == e_start:
            raise ProtocolError("e_end must differ from e_start")
        ensure_positive(step_potential, "step_potential")
        ensure_positive(pulse_amplitude, "pulse_amplitude")
        ensure_positive(pulse_width, "pulse_width")
        ensure_positive(period, "period")
        ensure_positive(dt, "dt")
        if pulse_width >= period:
            raise ProtocolError("pulse_width must be shorter than the period")
        if pulse_width < 2.0 * dt:
            raise ProtocolError("pulse_width must span at least 2 samples")
        if abs(round(period / dt) - period / dt) > 1e-9:
            raise ProtocolError("dt must divide the period")
        if sample_window < 1:
            raise ProtocolError("sample_window must be >= 1")
        if sample_window * dt > pulse_width / 2.0:
            raise ProtocolError(
                "sample_window covers more than half the pulse; readings "
                "would include the un-settled step")
        self.e_start = float(e_start)
        self.e_end = float(e_end)
        self.direction = 1.0 if e_end > e_start else -1.0
        self.step_potential = step_potential
        self.pulse_amplitude = pulse_amplitude
        self.pulse_width = pulse_width
        self.period = period
        self.dt = dt
        self.sample_window = int(sample_window)
        self.n_steps = int(math.floor(abs(e_end - e_start) / step_potential))
        if self.n_steps < 3:
            raise ProtocolError("window too narrow for the staircase step")

    # -- potential program ---------------------------------------------------

    def potential_program(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, potentials) of the full staircase-plus-pulse waveform."""
        samples_per_period = int(round(self.period / self.dt))
        pulse_samples = int(round(self.pulse_width / self.dt))
        n_total = self.n_steps * samples_per_period
        times = np.arange(n_total) * self.dt
        potentials = np.empty(n_total)
        for k in range(self.n_steps):
            base = self.e_start + self.direction * k * self.step_potential
            start = k * samples_per_period
            end = start + samples_per_period
            potentials[start:end] = base
            potentials[end - pulse_samples:end] = (
                base + self.direction * self.pulse_amplitude)
        return times, potentials

    def _sample_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of (just-before-pulse, end-of-pulse) per period."""
        samples_per_period = int(round(self.period / self.dt))
        pulse_samples = int(round(self.pulse_width / self.dt))
        periods = np.arange(self.n_steps)
        before = (periods + 1) * samples_per_period - pulse_samples - 1
        at_pulse = (periods + 1) * samples_per_period - 1
        return before, at_pulse

    # -- simulation ------------------------------------------------------------

    def simulate_true(self, cell: ElectrochemicalCell,
                      we_name: str) -> DpvResult:
        """Noise-free DPV record (chemistry only)."""
        times, potentials, currents = self._simulate_currents(cell, we_name)
        return self._assemble(potentials, currents)

    def run(self, cell: ElectrochemicalCell, we_name: str,
            chain: AcquisitionChain,
            rng: np.random.Generator | None = None) -> DpvResult:
        """Full protocol: waveform through the chain, then differencing."""
        times, potentials, currents = self._simulate_currents(cell, we_name)
        we = cell.working_electrode(we_name)
        reading = chain.digitize(times, currents, we=we, rng=rng)
        return self._assemble(potentials, reading.current_estimate)

    # -- internals ----------------------------------------------------------------

    def _simulate_currents(self, cell: ElectrochemicalCell, we_name: str,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        we = cell.working_electrode(we_name)
        times, potentials = self.potential_program()
        duration = float(times[-1]) if times.size else self.period
        channels = build_channel_simulators(we, cell.chamber, self.dt,
                                            duration)
        sweep = _DpvSweep(times=times, potentials=potentials,
                          channels=channels,
                          coefficients=[sim.n * C.FARADAY * we.area
                                        for sim in channels],
                          leakage=we.electrode.leakage_current())
        return times, potentials, SweepBatch([sweep]).simulate()[0]

    def _assemble(self, potentials: np.ndarray,
                  currents: np.ndarray) -> DpvResult:
        before_idx, pulse_idx = self._sample_indices()
        w = self.sample_window
        offsets = np.arange(w)
        i_before = currents[before_idx[:, None] - offsets].mean(axis=1)
        i_pulse = currents[pulse_idx[:, None] - offsets].mean(axis=1)
        base = potentials[before_idx]
        return DpvResult(base_potentials=base,
                         differential=i_pulse - i_before,
                         i_before=i_before, i_pulse=i_pulse,
                         pulse_amplitude=self.direction
                         * self.pulse_amplitude)
