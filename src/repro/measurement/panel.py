"""Multiplexed multi-target panel measurement (paper Fig. 4 / Sec. III).

"In the proposed configuration, the different working electrodes share the
same counter and reference electrodes, so it is necessary to multiplex the
signal of the working electrodes, in order to activate them sequentially."

:class:`PanelProtocol` sequences a full assay over every working electrode
of a cell through one shared acquisition chain:

- oxidase WEs get a chronoamperometric dwell at their recommended applied
  potential (Table I),
- CYP WEs get a full cyclic voltammetry sweep over a window covering all
  of their channels' reduction potentials,
- blank WEs get a chronoamperometric dwell (their record is the CDS
  reference),

with mux settling inserted between channels.  The result carries per-WE
traces/voltammograms, per-target quantities, and the assay timing that
feeds the paper's *sample throughput* property.

The batched form is one :class:`~repro.engine.scheduler.AssayScheduler`
pass over a one-job list — the same route a fleet, a sweep, ``repro.api``
and the service take — so a panel and a fleet member cannot diverge: all
chronoamperometric dwells of the cell advance together through one fused
:class:`~repro.engine.scheduler.DwellBatch`, the CYP sweeps through one
:class:`~repro.engine.scheduler.SweepBatch`, and every WE is digitised
from noise pre-drawn off the run's generator in electrode order.
``batch_electrodes=False`` keeps the sequential per-WE reference path
(one engine and one ``digitize`` call per WE, drawing the same noise in
the same order), which the scheduler tests and
``benchmarks/bench_panel_throughput.py`` compare against.  Both paths
end in :meth:`PanelProtocol.assemble`, which quantifies each WE from its
planned unit and its digitised reading, so they are bit-identical.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.chem.enzymes import CytochromeP450, Oxidase
from repro.chem.solution import InjectionSchedule
from repro.electronics.chain import AcquisitionChain, ChannelReading
from repro.electronics.waveform import TriangleWaveform, uniform_sample_times
from repro.engine.scheduler import (AssayJob, AssayScheduler, DwellBatch,
                                    SweepBatch)
from repro.errors import ProtocolError
from repro.measurement.chronoamperometry import ChronoDwell
from repro.measurement.peaks import Peak, assign_peaks, find_peaks
from repro.measurement.trace import Trace, Voltammogram
from repro.measurement.voltammetry import CvSweep, CyclicVoltammetry
from repro.sensors.cell import ElectrochemicalCell
from repro.sensors.electrode import WorkingElectrode
from repro.units import ensure_positive

__all__ = ["PanelProtocol", "PanelResult", "TargetReadout"]


@dataclass(frozen=True)
class TargetReadout:
    """One quantified target from the panel.

    ``signal`` is the concentration-proportional raw quantity: the steady
    current for oxidase channels, the peak height for CYP channels.
    ``e_applied`` is the actual potentiostat output the channel was held
    at — chronoamperometric channels only; CV channels sweep a program
    and carry ``None``.
    """

    target: str
    we_name: str
    method: str
    signal: float
    peak: Peak | None = None
    e_applied: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready summary (peak reduced to its potential/height)."""
        return {
            "target": self.target,
            "we_name": self.we_name,
            "method": self.method,
            "signal_a": self.signal,
            "e_applied_v": self.e_applied,
            "peak_potential_v": (self.peak.potential
                                 if self.peak is not None else None),
        }


@dataclass(frozen=True)
class PanelResult:
    """Everything one multiplexed assay produced.

    ``blank_e_applied`` records the held potential of the blank dwell
    (the CDS reference record), when the cell carried a blank WE.
    """

    traces: dict[str, Trace]
    voltammograms: dict[str, Voltammogram]
    readouts: dict[str, TargetReadout]
    assay_time: float
    blank_current: float | None
    blank_e_applied: float | None = None

    def signal_for(self, target: str) -> float:
        """The raw signal of ``target``; raises when it was not measured."""
        if target not in self.readouts:
            raise ProtocolError(
                f"target {target!r} was not measured "
                f"(have: {', '.join(sorted(self.readouts))})")
        return self.readouts[target].signal

    def summary_dict(self) -> dict:
        """JSON-ready summary: quantities only, no raw sample arrays.

        This is what :mod:`repro.api` run records and
        :func:`repro.io.export.run_record_to_json` serialise; full
        traces/voltammograms stay on the live object (export them with
        :func:`repro.io.export.trace_to_csv` when needed).
        """
        return {
            "assay_time_s": self.assay_time,
            "blank_current_a": self.blank_current,
            "blank_e_applied_v": self.blank_e_applied,
            "channels": sorted([*self.traces, *self.voltammograms]),
            "readouts": {target: readout.to_dict()
                         for target, readout in self.readouts.items()},
        }


class PanelProtocol:
    """Multiplexed assay over every WE of a cell, batched across WEs.

    Parameters
    ----------
    ca_dwell:
        Chronoamperometric dwell per oxidase/blank WE, seconds (long
        enough to reach steady state; the default comfortably covers the
        ~30 s settling of Fig. 3).
    cv_window_margin:
        Potential margin around the outermost CYP reduction potentials
        for the sweep window, volts.
    scan_rate:
        CV scan rate, V/s; the paper's accuracy rule says <= 20 mV/s.
    sample_rate:
        Chain sampling rate, Hz.
    settle_between:
        Extra idle time after each mux switch, seconds.
    peak_min_height:
        Peak-detection prominence threshold, amperes.
    ca_injections:
        Mid-dwell bulk additions: one
        :class:`~repro.chem.solution.InjectionSchedule` applied to every
        chronoamperometric WE, or a mapping from WE name to schedule.
    batch_electrodes:
        Run the panel as one fused scheduler pass (default).  ``False``
        runs the sequential per-WE reference path; both produce
        bit-identical results.
    screening:
        Opt-in coarse execution profile for explore/sweep workloads
        that only rank candidates: fewer dwell nodes and a coarser CV
        grid.  Off by default; screening results are *not* bit-
        comparable to full-fidelity runs and the api layer keys and
        provenance-flags them separately.
    """

    #: Full-fidelity spatial resolution (the reference profile).
    CA_N_NODES = 60
    CV_GRID_GROWTH = 1.10
    #: Screening-profile resolution: ranks candidates, trades accuracy.
    SCREENING_CA_N_NODES = 24
    SCREENING_CV_GRID_GROWTH = 1.30

    def __init__(self, ca_dwell: float = 60.0,
                 cv_window_margin: float = 0.25,
                 scan_rate: float = 0.020,
                 sample_rate: float = 10.0,
                 settle_between: float = 1.0,
                 peak_min_height: float = 2.0e-9,
                 ca_injections: (InjectionSchedule
                                 | Mapping[str, InjectionSchedule]
                                 | None) = None,
                 batch_electrodes: bool = True,
                 screening: bool = False) -> None:
        self.ca_dwell = ensure_positive(ca_dwell, "ca_dwell")
        self.cv_window_margin = ensure_positive(
            cv_window_margin, "cv_window_margin")
        self.scan_rate = ensure_positive(scan_rate, "scan_rate")
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")
        self.settle_between = ensure_positive(settle_between, "settle_between")
        self.peak_min_height = ensure_positive(
            peak_min_height, "peak_min_height")
        self.ca_injections = ca_injections
        self.batch_electrodes = bool(batch_electrodes)
        self.screening = bool(screening)
        self.ca_n_nodes = (self.SCREENING_CA_N_NODES if self.screening
                           else self.CA_N_NODES)
        self.cv_grid_growth = (self.SCREENING_CV_GRID_GROWTH
                               if self.screening else self.CV_GRID_GROWTH)
        schedules = (ca_injections.values()
                     if isinstance(ca_injections, Mapping)
                     else [ca_injections])
        for schedule in schedules:
            # None (bare or inside a mapping) means "no schedule".
            if schedule is None:
                continue
            if schedule.duration_hint >= self.ca_dwell:
                raise ProtocolError(
                    "the last injection falls outside the record duration")

    def run(self, cell: ElectrochemicalCell, chain: AcquisitionChain,
            rng: np.random.Generator | None = None) -> PanelResult:
        """Measure every WE in order; return the assembled panel result.

        Batched, this is a one-job scheduler pass.  The sequential
        reference solves each WE's planned unit alone (a one-unit
        :class:`~repro.engine.scheduler.DwellBatch` or
        :class:`~repro.engine.scheduler.SweepBatch`) and digitises it
        off the run's generator in electrode order — the draws the
        scheduler pre-draws — before the same :meth:`assemble`.
        """
        if self.batch_electrodes:
            job = AssayJob(cell=cell, chain=chain, rng=rng, protocol=self)
            [item] = AssayScheduler().run_iter([job])
            return item.result
        generator = rng if rng is not None else np.random.default_rng(2011)
        units = {unit.we_name: unit for unit in (
            *self.plan_dwells(cell, chain), *self.plan_sweeps(cell, chain))}
        ca_times = uniform_sample_times(self.ca_dwell, self.sample_rate)
        readings = {}
        for we in cell.working_electrodes:
            unit = units[we.name]
            if isinstance(unit, CvSweep):
                times, [row] = unit.times, SweepBatch([unit]).simulate()
            else:
                times = ca_times
                [row] = DwellBatch([unit], times).simulate()
            readings[we.name] = (unit, chain.digitize(times, row, we=unit.we,
                                                      rng=generator))
        return self.assemble(cell, readings)

    # -- planning and assembly -----------------------------------------------------

    def _injections_for(self, we_name: str) -> InjectionSchedule | None:
        if isinstance(self.ca_injections, Mapping):
            return self.ca_injections.get(we_name)
        return self.ca_injections

    def _ca_setpoint(self, cell: ElectrochemicalCell, we_name: str) -> float:
        we = cell.working_electrode(we_name)
        if isinstance(we.probe, Oxidase):
            return we.effective_h2o2_wave().potential_for_efficiency(0.95)
        return 0.65  # the generic H2O2 potential of Sec. I-B

    def plan_dwells(self, cell: ElectrochemicalCell,
                     chain: AcquisitionChain) -> list[ChronoDwell]:
        """Engine-ready dwells for every chronoamperometric WE, in order.

        This is the unit :class:`~repro.engine.scheduler.AssayScheduler`
        fuses, across electrodes and cells alike.
        """
        dwells: list[ChronoDwell] = []
        for we in cell.working_electrodes:
            if isinstance(we.probe, CytochromeP450):
                continue
            e_set = self._ca_setpoint(cell, we.name)
            e_applied = chain.potentiostat.applied_potential(e_set)
            dwells.append(ChronoDwell(
                cell, we.name, float(e_applied), dt=1.0 / self.sample_rate,
                injections=self._injections_for(we.name),
                n_nodes=self.ca_n_nodes, e_setpoint=e_set))
        return dwells

    def plan_sweeps(self, cell: ElectrochemicalCell,
                    chain: AcquisitionChain) -> list[CvSweep]:
        """Compiled CV sweeps for every CYP WE, in electrode order.

        This is the unit :class:`~repro.engine.scheduler.SweepBatch`
        fuses across cells; each sweep carries its own potential
        program, backgrounds and channel simulators, evaluated exactly
        as a standalone :class:`~repro.measurement.voltammetry.
        CyclicVoltammetry` run would.
        """
        sweeps: list[CvSweep] = []
        for we in cell.working_electrodes:
            if not isinstance(we.probe, CytochromeP450):
                continue
            sweeps.append(
                self._cv_protocol(we).plan_sweep(cell, we.name, chain))
        return sweeps

    def assemble(self, cell: ElectrochemicalCell,
                 readings: Mapping[str, tuple[ChronoDwell | CvSweep,
                                              ChannelReading]],
                 ) -> PanelResult:
        """Quantify every WE in electrode order from its digitised record.

        ``readings`` maps every WE name to its planned unit — the
        :class:`~repro.measurement.chronoamperometry.ChronoDwell` or
        :class:`~repro.measurement.voltammetry.CvSweep` that was solved
        — and the :class:`~repro.electronics.chain.ChannelReading` the
        chain made of its true current.  The scheduler and the
        sequential reference path both end here.
        """
        traces: dict[str, Trace] = {}
        voltammograms: dict[str, Voltammogram] = {}
        readouts: dict[str, TargetReadout] = {}
        blank_current: float | None = None
        blank_e_applied: float | None = None
        assay_time = 0.0

        for we in cell.working_electrodes:
            assay_time += self.settle_between
            probe = we.probe
            unit, reading = readings[we.name]
            if isinstance(probe, CytochromeP450):
                voltammogram = unit.to_voltammogram(reading.true_current,
                                                    reading)
                voltammograms[we.name] = voltammogram
                assay_time += voltammogram.times[-1]
                self._extract_cyp_readouts(we.name, probe, voltammogram,
                                           readouts)
                continue
            trace = Trace(times=reading.times,
                          current=reading.current_estimate,
                          true_current=reading.true_current,
                          channel=we.name, reading=reading)
            traces[we.name] = trace
            assay_time += trace.duration
            if isinstance(probe, Oxidase):
                readouts[probe.substrate] = TargetReadout(
                    target=probe.substrate, we_name=we.name,
                    method="chronoamperometry",
                    signal=trace.tail_mean(), e_applied=unit.e_applied)
            else:
                blank_current = trace.tail_mean()
                blank_e_applied = unit.e_applied
        return PanelResult(traces=traces, voltammograms=voltammograms,
                           readouts=readouts, assay_time=assay_time,
                           blank_current=blank_current,
                           blank_e_applied=blank_e_applied)

    # -- internals -----------------------------------------------------------------

    def _cv_protocol(self, we: WorkingElectrode) -> CyclicVoltammetry:
        probe = we.probe
        assert isinstance(probe, CytochromeP450)
        potentials = [ch.reduction_potential for ch in probe.channels]
        e_start = max(potentials) + self.cv_window_margin
        e_vertex = min(potentials) - self.cv_window_margin
        waveform = TriangleWaveform(e_start=e_start, e_vertex=e_vertex,
                                    scan_rate=self.scan_rate)
        return CyclicVoltammetry(waveform, sample_rate=self.sample_rate,
                                 grid_growth=self.cv_grid_growth)

    def _extract_cyp_readouts(self, we_name: str, probe: CytochromeP450,
                              voltammogram: Voltammogram,
                              readouts: dict[str, TargetReadout]) -> None:
        candidates = {ch.substrate: ch.reduction_potential
                      for ch in probe.channels}
        # Semi-derivative detection: diffusion tails of large waves bury
        # small neighbours' raw prominences (benzphetamine under
        # aminopyrine at panel loadings); the half-derivative returns to
        # baseline between waves and resolves the shoulder honestly.
        peaks = find_peaks(voltammogram, cathodic=True,
                           min_height=self.peak_min_height,
                           smooth_samples=7, method="semiderivative")
        assignment = assign_peaks(peaks, candidates)
        for target, peak in assignment.matches.items():
            readouts[target] = TargetReadout(
                target=target, we_name=we_name, method="cyclic_voltammetry",
                signal=peak.height, peak=peak)
