"""Multi-assay fleet scheduling on the shared batched engine.

The platform's north star is many concurrent assays through one compute
core.  PR 1 batched the systems *within* one protocol run; this module
lifts batching two levels higher:

- :class:`DwellBatch` advances the surface mechanisms of **many**
  chronoamperometric dwells — different working electrodes, different
  cells — in lockstep through one :class:`~repro.engine.mechanisms.
  MechanismBatch` solve per time step.  Dwells are duck-typed (see
  :class:`~repro.measurement.chronoamperometry.ChronoDwell`): anything
  exposing ``dt``/``mechanisms``/``injections``/``initial_current``/
  ``apply_injection_events`` plus the compiled current form
  ``static``/``current_coefficients`` can join; each row's current is
  assembled as ``static + sum(coef * flux)``.  Because
  every per-system operation of the batched solver is element-for-element
  identical however many rows are stacked, a fused group reproduces each
  dwell's standalone trajectory bit for bit.

- :class:`AssayScheduler` accepts N ``(cell, chain)`` assay jobs
  (:class:`AssayJob`), plans every panel's dwells up front, groups
  compatible dwells (same record length and time step) across cells into
  fused :class:`DwellBatch` solves, interleaves the CV sweeps in job
  order, and assembles one per-job
  :class:`~repro.measurement.panel.PanelResult` each — bit-identical to
  the sequential per-WE reference path
  (``PanelProtocol(batch_electrodes=False)``), because chemistry
  consumes no randomness and each job's RNG stream is drawn in its
  original per-electrode order.  It is the one route every batched
  panel assay takes: :meth:`~repro.measurement.panel.PanelProtocol.run`
  is a one-job pass, and :mod:`repro.api` runs a standalone assay as a
  one-job fleet.

- :meth:`AssayScheduler.run_iter` is the *streaming* form of the same
  pass: it yields one :class:`FleetItem` per job, in job order, as each
  assay's dwells drain from the fused batches.  Dwell groups are
  simulated lazily — a group runs the first time a job that contributed
  dwells to it is assembled — so a consumer digests job ``k``'s result
  while jobs ``k+1..N`` are still waiting on digitisation, and a fleet
  never has to materialise a full :class:`FleetResult` to be consumed.
  :meth:`AssayScheduler.run_many` is now simply ``run_iter`` drained
  into a :class:`FleetResult`, so the two paths cannot diverge.

CV sweeps fuse across cells too, one :class:`SweepBatch` per sample
rate (a standalone CV or DPV run is a one-sweep batch): it stacks the
redox channels of many planned sweeps
(:class:`~repro.measurement.voltammetry.CvSweep`) into one engine with
a per-channel potential *program*, so sweeps over different windows
advance together.  At one sample rate every record's time axis is a
prefix of the longest, so the paper panel's two CYP windows (different
record lengths) fuse into one group; a sweep's rows retire when its
record ends.  Digitisation is group-level as well: each job's per-WE
noise is pre-drawn off its own generator in electrode order, the
draws every ``digitize`` call makes
(:meth:`~repro.electronics.chain.AcquisitionChain.noise_source` gives
each draw's budget, length and rate), and every fused group then runs
through one
:meth:`~repro.electronics.chain.AcquisitionChain.digitize_batch` call
per (TIA, ADC) cluster and record length.  A job's ``(unit, reading)``
pairs go to :meth:`~repro.measurement.panel.PanelProtocol.assemble`,
the one assembly the sequential reference path ends in too.

Replicate assays share their plan and their engine rows.  An assay's
seed selects only its acquisition noise, so a sweep over seeds
(technical replicates) would plan the same units again and again.
:func:`repro.api.executors.solve` builds one cell, chain and protocol
per distinct chemistry of its pass, and :meth:`AssayScheduler.run_iter`
plans once per distinct ``(cell, chain, protocol)`` object triple: each
planned dwell or sweep joins its group once, its row is digitised once
per job that planned it (each with the job's own noise), and only the
noise draws, digitisation and assembly stay per job.  An 8-seed x
2-loading paper-panel sweep plans 2 panels instead of 16.  The
statistics still count every job's copy of a unit: ``n_fused_dwells``
sums each unit's mechanisms once per job, ``n_fused_sweeps`` each
sweep once per job.  Results share axes, so treat them as read-only:
every CA trace of a digitised cluster already shared one ``times``
array, and replicate voltammograms now share their sweep's ``times``,
``potentials`` and ``sweep_sign`` too.  Callers that pass distinct
objects per job (a :meth:`~repro.measurement.panel.PanelProtocol.run`,
hand-built jobs) take the same path with one plan per job.  Below the
plan, inside each fused group every row gets a key of exactly the
values its step reads — the redox key
(:func:`~repro.engine.redox.channel_key` plus the sweep's potential
program and record length) lives in :class:`SweepBatch`, the mechanism
key (:func:`~repro.engine.mechanisms.mechanism_key`) in
:class:`DwellBatch` — and the engine solves one representative per key,
fanning its flux history back out through an inverse index.  Keys are
exact bytes, so rows merge only when their trajectories are
bit-identical, whether or not their jobs shared a plan.

:func:`_solve_rows` is the one loop that steps an engine row: every
dwell, sweep, panel and standalone protocol run reaches the batches
through it.

The same keys make true currents a cache layer of their own.  A
scheduler given a run store (``AssayScheduler(store=...)``, which
:func:`repro.api.executors.solve` passes on) looks every distinct row
up before it builds an engine.  One cached unit is one distinct row
over one engine *segment* — the steps between two engine builds (an
injection for dwells, a record end for sweeps) — keyed by the row's
key at the segment start, the segment's potential program (sweeps) and
its step count.  A hit hands the row its stored flux history and end
state (``field``, or ``c_ox``/``c_red``), exactly what stepping it
would have left; only the misses are stacked into the engine, and each
newly solved row is written back.  A new seed over known chemistry
therefore solves nothing.  Without a store there are no lookups.
``n_solved_systems`` on the batches, :class:`FleetItem` and
:class:`FleetResult` reports the rows actually solved and
``n_store_rows`` the rows served from the store (per batch, the most of
any segment).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.mechanisms import MechanismBatch, mechanism_key
from repro.engine.redox import RedoxChannelBatch, channel_key
from repro.engine.tridiag import first_occurrences
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.electronics.chain import AcquisitionChain
    from repro.measurement.panel import PanelProtocol, PanelResult
    from repro.sensors.cell import ElectrochemicalCell

__all__ = ["DwellBatch", "SweepBatch", "AssayJob", "FleetItem",
           "FleetResult", "AssayScheduler"]


def _solve_rows(rows, steps: int, build, state: tuple[str, ...], store,
                keys=None, program=None) -> tuple[np.ndarray, int, int]:
    """Advance distinct engine rows one segment, serving what ``store`` has.

    ``rows`` holds one representative object per distinct row (redox
    channels or surface mechanisms); ``build`` makes an engine over a
    list of them (:class:`~repro.engine.mechanisms.MechanismBatch` or
    :class:`~repro.engine.redox.RedoxChannelBatch`), ``state`` names a
    row's end-state attributes and ``program`` is an optional
    ``(steps, len(rows))`` potential program.
    With a ``store``, row ``i`` is first looked up under ``keys[i]``
    plus the step count: a hit sets the row's end state from the
    record, and only the misses are stacked into one engine, stepped,
    drained back and written to the store.  A program-driven engine
    runs the whole segment in one
    :meth:`~repro.engine.redox.RedoxChannelBatch.run` call (one
    compiled ``redox_segment`` call when the kernel is loaded); an
    engine without a program is stepped once per step.  Returns
    ``(fluxes, n_solved, n_stored)``, ``fluxes`` of shape
    ``(len(rows), steps)``.
    """
    fluxes = np.empty((len(rows), steps))
    missed = []
    steps_key = steps.to_bytes(8, "little")
    for i, row in enumerate(rows):
        hit = (store.get_row((*keys[i], steps_key)) if store is not None
               else None)
        if hit is None:
            missed.append(i)
            continue
        fluxes[i], end = hit
        for name in state:
            setattr(row, name, end[name].copy())
    if missed:
        engine = build([rows[i] for i in missed])
        if program is None:
            solved = np.empty((steps, len(missed)))
            for k in range(steps):
                solved[k] = engine.step()
        else:
            solved = engine.run(program[:, missed])
        engine.sync_back()
        fluxes[missed] = solved.T
        if store is not None:
            for i in missed:
                store.put_row((*keys[i], steps_key), fluxes[i],
                              {name: getattr(rows[i], name)
                               for name in state})
    return fluxes, len(missed), len(rows) - len(missed)


class DwellBatch:
    """Advance many chronoamperometric dwells through one fused engine.

    Parameters
    ----------
    dwells:
        Dwell objects (duck-typed, e.g. :class:`~repro.measurement.
        chronoamperometry.ChronoDwell`); their mechanisms are stacked in
        dwell order, keyed by :func:`~repro.engine.mechanisms.
        mechanism_key`, and one representative per key is solved.
    times:
        The shared uniform sample times, seconds; every dwell must have
        been built for this time step.
    store:
        Optional run store serving and keeping solved rows (module
        docstring); ``None`` solves every distinct row.
    """

    def __init__(self, dwells, times: np.ndarray, store=None) -> None:
        self.dwells = tuple(dwells)
        if not self.dwells:
            raise SimulationError("a dwell batch needs at least one dwell")
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise SimulationError("a dwell batch needs at least two samples")
        spacing = float(times[1] - times[0])
        checked: set = set()
        for dwell in self.dwells:
            if dwell.dt in checked:
                continue
            if not np.isclose(spacing, dwell.dt, rtol=1e-9, atol=0.0):
                raise SimulationError(
                    f"dwell {getattr(dwell, 'we_name', '?')!r} was built "
                    f"for dt={dwell.dt!r} but the batch time axis is "
                    f"spaced {spacing!r}")
            checked.add(dwell.dt)
        self.times = times
        self.store = store
        # Injection checks are per step; only dwells that actually carry
        # a schedule need scanning.
        self._scheduled = tuple(d for d in self.dwells
                                if d.injections.injections)
        #: Fused engine steps actually solved; set by :meth:`simulate`.
        self.n_solve_steps = 0
        #: Distinct mechanism rows solved per step, the most of any
        #: segment between injections (<= batch_size, which counts
        #: replicate rows); set by :meth:`simulate`.
        self.n_solved_systems = 0
        #: Distinct rows served from the store, the most of any segment.
        self.n_store_rows = 0

    @property
    def n_dwells(self) -> int:
        return len(self.dwells)

    @property
    def batch_size(self) -> int:
        """Diffusion systems fused per solve (sum over dwells)."""
        return sum(len(d.mechanisms) for d in self.dwells)

    def _compile_injection_program(self, n: int) -> dict:
        """Map step index -> [(dwell, events)] for every scheduled event.

        The schedules are static, so the per-step window scan the
        sequential loop performed can run once, up front; the hot loop
        then only probes a dict.
        """
        program: dict[int, list] = {}
        if not self._scheduled:
            return program
        t_prev = 0.0
        for k in range(1, n):
            t_now = float(self.times[k])
            for dwell in self._scheduled:
                events = dwell.injections.events_between(t_prev, t_now)
                if events:
                    program.setdefault(k, []).append((dwell, events))
            t_prev = t_now
        return program

    def _advance(self, steps: int):
        """Solve one injection-free segment of every dwell's mechanisms.

        Returns the ``(batch_size, steps)`` flux history (``None`` when
        no dwell has a mechanism) and each dwell's first row; every
        mechanism is left holding its own copy of its end profile.
        """
        mechanisms: list = []
        starts: list[int] = []
        for dwell in self.dwells:
            starts.append(len(mechanisms))
            mechanisms.extend(dwell.mechanisms.values())
        if not mechanisms:
            return None, starts
        keys = [mechanism_key(mech) for mech in mechanisms]
        unique, inverse = first_occurrences(keys)
        rows = [mechanisms[j] for j in unique]
        fluxes, solved, stored = _solve_rows(
            rows, steps, MechanismBatch, ("field",),
            self.store, keys=[keys[j] for j in unique])
        for mech, slot in zip(mechanisms, inverse):
            if mech is not rows[slot]:
                mech.field = rows[slot].field.copy()
        if solved:
            self.n_solve_steps += steps
        self.n_solved_systems = max(self.n_solved_systems, solved)
        self.n_store_rows = max(self.n_store_rows, stored)
        return fluxes[inverse], starts

    def _flush_segment(self, currents: np.ndarray,
                       fluxes: np.ndarray | None, starts,
                       lo: int, hi: int) -> None:
        """Assemble currents for steps [lo, hi) from the segment's fluxes.

        Within an injection-free segment each dwell's mechanism set is
        fixed, so ``static + sum(coef * flux)`` vectorises over the
        whole segment.  The terms are added one elementwise add at a
        time, in mechanism order (no reduction that would reassociate
        them), so each sample is the scalar left-to-right sum.  A dwell
        without mechanisms has no coefficients, and its row is just
        ``static``.
        """
        for i, dwell in enumerate(self.dwells):
            row = currents[i]
            row[lo:hi] = dwell.static
            for p, coef in enumerate(dwell.current_coefficients()):
                row[lo:hi] += coef * fluxes[starts[i] + p]

    def simulate(self) -> np.ndarray:
        """Integrate every dwell; return (n_dwells, n_samples) currents.

        Row ``i`` is dwell ``i``'s true (pre-chain) cell current — the
        exact array its standalone
        :meth:`~repro.measurement.chronoamperometry.Chronoamperometry.
        simulate_true_current` loop would produce.  The schedule is
        compiled before stepping: injection windows split the record
        into segments, each segment's distinct rows are solved (or
        served from the store) in one go, and currents assemble per
        segment as vectorised ``static + coef * flux`` rows.  Injections
        mutate the mechanism objects between segments, which always
        hold their end-of-segment profiles by then.
        """
        n = self.times.size
        currents = np.empty((self.n_dwells, n))
        for i, dwell in enumerate(self.dwells):
            currents[i, 0] = dwell.initial_current()
        program = self._compile_injection_program(n)
        self.n_solve_steps = self.n_solved_systems = self.n_store_rows = 0
        bounds = sorted({1, n, *program})
        for lo, hi in zip(bounds, bounds[1:]):
            for dwell, events in program.get(lo, ()):
                dwell.apply_injection_events(events)
            fluxes, starts = self._advance(hi - lo)
            self._flush_segment(currents, fluxes, starts, lo, hi)
        return currents


class SweepBatch:
    """Advance many planned CV sweeps through one fused engine.

    Parameters
    ----------
    sweeps:
        Planned sweep objects (duck-typed, e.g.
        :class:`~repro.measurement.voltammetry.CvSweep`): each exposes
        ``times``, ``channels``, ``potentials`` and
        ``row_from_fluxes``.  Every sweep's time axis must be a prefix
        of the longest one (same sample rate, any record length; the
        library's uniform axes ``arange(n) / rate`` always are), and
        each keeps its *own* potential program, so sweeps over
        different windows fuse.

    Every distinct channel of every sweep becomes one row of a shared
    :class:`~repro.engine.redox.RedoxChannelBatch`; one step per sample
    advances the whole group, driving each row with its sweep's
    potential at that sample.  A channel's row key is its
    :func:`~repro.engine.redox.channel_key` plus its sweep's potential
    program and record length: channels with equal keys (technical
    replicates — the same chemistry read with another acquisition seed)
    share one solved row, and the flux history fans back out to every
    channel through an inverse index.  A sweep's rows *retire* when its
    record ends: the engine drains its state back onto the channel
    objects (``sync_back``, each duplicate getting its own copy of its
    row's profile) and is rebuilt over the rows still live, so no step
    is spent past a record's end.  With a ``store``, each segment's
    distinct rows are looked up first and only the misses are stepped
    (module docstring).  Because the batched solver's
    per-system arithmetic is element-for-element independent of how
    many rows are stacked (and of the zero padding up to the widest
    grid), each sweep's assembled current row is bit-identical to its
    standalone run, however its neighbours retire or collapse.  Rows
    come back at their own record lengths, so callers digitise per
    length.
    """

    def __init__(self, sweeps, store=None) -> None:
        self.sweeps = tuple(sweeps)
        if not self.sweeps:
            raise SimulationError("a sweep batch needs at least one sweep")
        axes = [np.asarray(sweep.times, dtype=float) for sweep in self.sweeps]
        times = max(axes, key=np.size)
        if times.ndim != 1 or times.size < 2:
            raise SimulationError("a sweep batch needs at least two samples")
        for sweep, axis in zip(self.sweeps, axes):
            if (axis.ndim != 1 or axis.size < 2
                    or not np.array_equal(axis, times[:axis.size])):
                raise SimulationError(
                    f"sweep {getattr(sweep, 'we_name', '?')!r}'s time "
                    f"axis is not a prefix of the batch's longest axis")
        self.times = times
        self.store = store
        self._lengths = [axis.size for axis in axes]
        self._potentials = [np.asarray(sweep.potentials, dtype=float)
                            for sweep in self.sweeps]
        self._channels: list = []
        self._spans: list[tuple[int, int]] = []
        keys, owner = [], []
        for i, (sweep, length) in enumerate(zip(self.sweeps, self._lengths)):
            start = len(self._channels)
            self._channels.extend(sweep.channels)
            self._spans.append((start, len(self._channels)))
            drive = (length, self._potentials[i][:length].tobytes())
            keys.extend((*channel_key(ch), *drive) for ch in sweep.channels)
            owner.extend([i] * len(sweep.channels))
        # Row r of the engine solves channel unique[r]; channel j reads
        # row inverse[j].  _row_sweep[r] is the sweep driving row r.
        self._unique, self._inverse = first_occurrences(keys)
        self._row_sweep = [owner[j] for j in self._unique]
        #: Fused engine steps actually solved; set by :meth:`simulate`.
        self.n_solve_steps = 0
        #: Distinct channel rows solved (<= batch_size), the most of any
        #: segment; set by :meth:`simulate`.
        self.n_solved_systems = 0
        #: Distinct rows served from the store, the most of any segment.
        self.n_store_rows = 0

    @property
    def n_sweeps(self) -> int:
        return len(self.sweeps)

    @property
    def batch_size(self) -> int:
        """Redox channels fused per solve (sum over sweeps)."""
        return len(self._channels)

    def _fan_out(self, rows: list[int]) -> None:
        """Give every duplicate of ``rows`` its own copy of the row's
        end state."""
        live = set(rows)
        for j, r in enumerate(self._inverse):
            source = self._channels[self._unique[r]]
            if r in live and self._channels[j] is not source:
                self._channels[j].c_ox = source.c_ox.copy()
                self._channels[j].c_red = source.c_red.copy()

    def simulate(self) -> list[np.ndarray]:
        """Integrate every sweep; return one true-current row per sweep.

        Row ``i`` is sweep ``i``'s pre-chain cell current, at its own
        record length — the exact array its standalone
        :meth:`~repro.measurement.voltammetry.CyclicVoltammetry.
        simulate_true_current` loop would produce.  The steps run in
        segments between record ends; each segment solves (or serves
        from the store) the distinct rows of the sweeps still recording,
        and leaves every channel holding its end-of-segment profiles.
        """
        solved = np.empty((len(self._unique), self.times.size))
        ends = sorted({self._lengths[i] for i in self._row_sweep})
        self.n_solve_steps = self.n_solved_systems = self.n_store_rows = 0
        start = 0
        for end in ends:
            rows = [r for r, i in enumerate(self._row_sweep)
                    if self._lengths[i] >= end]
            channels = [self._channels[self._unique[r]] for r in rows]
            # The segment's compiled potential program: column c drives
            # row c with its own sweep's potential, and each step reads
            # one contiguous row.
            program = np.empty((end - start, len(rows)))
            for c, r in enumerate(rows):
                program[:, c] = self._potentials[self._row_sweep[r]][
                    start:end]
            keys = None if self.store is None else [
                (*channel_key(ch), program[:, c].tobytes())
                for c, ch in enumerate(channels)]
            fluxes, n_solved, n_stored = _solve_rows(
                channels, end - start, RedoxChannelBatch,
                ("c_ox", "c_red"), self.store, keys=keys, program=program)
            solved[rows, start:end] = fluxes
            self._fan_out(rows)
            if n_solved:
                self.n_solve_steps += end - start
            self.n_solved_systems = max(self.n_solved_systems, n_solved)
            self.n_store_rows = max(self.n_store_rows, n_stored)
            start = end
        flux_hist = solved[self._inverse]
        return [sweep.row_from_fluxes(flux_hist[lo:hi, :length])
                for sweep, length, (lo, hi)
                in zip(self.sweeps, self._lengths, self._spans)]


@dataclass(frozen=True)
class AssayJob:
    """One assay the fleet scheduler should run: a cell through a chain.

    ``rng`` seeds the job's acquisition noise (defaults to the panel
    protocol's default stream); ``protocol`` overrides the scheduler's
    shared protocol for this job (dwells only fuse across jobs whose
    protocols agree on record length and sample rate).
    """

    cell: "ElectrochemicalCell"
    chain: "AcquisitionChain"
    name: str = ""
    rng: np.random.Generator | None = None
    protocol: "PanelProtocol | None" = None


@dataclass(frozen=True)
class FleetItem:
    """One streamed fleet completion, yielded by
    :meth:`AssayScheduler.run_iter` in job order.

    ``n_fused_dwells``/``n_dwell_groups``/``n_solve_steps`` are
    cumulative over the dwell groups simulated *so far*; on the last
    item they equal the totals a :class:`FleetResult` of the same jobs
    would report.  ``n_fused_sweeps``/``n_sweep_groups`` count the CV
    sweeps fused so far and the sweep groups they drained through.
    ``n_solve_steps`` counts the fused engine steps actually solved
    (dwell and sweep engines alike) — the observable a job-level cache
    uses to prove a warm re-run never touched the engine.
    ``n_solved_systems`` sums, over the same groups, the distinct rows
    each group's engine solved per step (dwell mechanisms plus CV
    channels); replicate rows collapse into one, so on a CA-only fleet
    it is at most ``n_fused_dwells``.  ``n_store_rows`` sums the rows
    the same groups served from the scheduler's run store instead.
    """

    index: int
    name: str
    result: "PanelResult"
    n_jobs: int
    n_fused_dwells: int
    n_dwell_groups: int
    n_solve_steps: int = 0
    n_fused_sweeps: int = 0
    n_sweep_groups: int = 0
    n_solved_systems: int = 0
    n_store_rows: int = 0


@dataclass(frozen=True)
class FleetResult:
    """Everything one scheduler pass over N assay jobs produced."""

    results: tuple["PanelResult", ...]
    names: tuple[str, ...]
    n_fused_dwells: int
    n_dwell_groups: int
    n_solve_steps: int = 0
    n_fused_sweeps: int = 0
    n_sweep_groups: int = 0
    n_solved_systems: int = 0
    n_store_rows: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def by_name(self) -> dict[str, "PanelResult"]:
        return dict(zip(self.names, self.results))

    def result_for(self, name: str) -> "PanelResult":
        """The panel result of the named job; raises when unknown."""
        for job_name, result in zip(self.names, self.results):
            if job_name == name:
                return result
        raise SimulationError(
            f"no job named {name!r} in this fleet "
            f"(have: {', '.join(self.names)})")


@dataclass
class _Plan:
    """One distinct ``(cell, chain, protocol)`` triple's planned units,
    shared by every job that names those three objects."""

    cell: "ElectrochemicalCell"
    chain: "AcquisitionChain"
    protocol: "PanelProtocol"
    dwells: list
    sweeps: list
    #: The group keys of its units, in first-use order.
    keys: list = field(default_factory=list)
    #: ``(we_name, budget, n_samples, sample_rate)`` per WE in electrode
    #: order: everything a job's noise draw reads but its generator.
    sources: list = field(default_factory=list)
    #: Every job that planned these units, in job order.
    jobs: list = field(default_factory=list)


@dataclass
class _JobPlan:
    """One job: its shared :class:`_Plan` and, later, its pre-drawn
    noise streams and ``(unit, reading)`` per WE."""

    job: AssayJob
    plan: _Plan
    noise: dict = field(default_factory=dict)
    readings: dict = field(default_factory=dict)


class AssayScheduler:
    """Run many panel assays through one shared batched compute core.

    The scheduler is the one batched route of a panel assay, whether
    it is one :meth:`~repro.measurement.panel.PanelProtocol.run` or a
    fleet of thousands: it plans every job's chronoamperometric dwells
    and CV sweeps, fuses all compatible ones — across electrodes *and*
    cells — into single :class:`DwellBatch` and :class:`SweepBatch`
    solves, then digitises and assembles each job in its original
    electrode order so every
    :class:`~repro.measurement.panel.PanelResult` is bit-identical to
    the sequential per-WE reference path.

    ``store`` (optional, a :class:`~repro.api.store.RunStore` or
    anything with its ``get_row``/``put_row`` pair) makes the fused
    batches serve known engine rows from it and keep the rows they
    solve (module docstring); results are identical either way.
    """

    def __init__(self, protocol: "PanelProtocol | None" = None,
                 store=None) -> None:
        self.protocol = protocol
        self.store = store

    def _default_protocol(self) -> "PanelProtocol":
        from repro.measurement.panel import PanelProtocol

        return self.protocol if self.protocol is not None else PanelProtocol()

    @staticmethod
    def _coerce_job(job) -> AssayJob:
        if isinstance(job, AssayJob):
            return job
        # (cell, chain[, name[, rng]]) tuples for sweep-style callers.
        return AssayJob(*job)

    def run_iter(self, jobs) -> Iterator[FleetItem]:
        """Stream every job's panel result as its dwells drain.

        ``jobs`` is an iterable of :class:`AssayJob` (or ``(cell,
        chain, ...)`` tuples).  Planning and cross-job grouping are
        identical to :meth:`run_many`; dwell groups are then simulated
        *lazily* — a fused :class:`DwellBatch` runs the first time a job
        that contributed dwells to it is assembled — and one
        :class:`FleetItem` is yielded per job, in job order.  Because
        dwell chemistry consumes no randomness and each group's fused
        solve is independent of when it runs, every streamed result is
        bit-identical to its :meth:`run_many` counterpart.

        Jobs naming the same cell, chain and protocol *objects* share
        one plan (module docstring): its units join their groups once,
        and each solved row fans out to every job that planned it.
        """
        from repro.electronics.waveform import uniform_sample_times

        default = self._default_protocol()
        plans: dict[tuple[int, int, int], _Plan] = {}
        states: list[_JobPlan] = []
        for job in map(self._coerce_job, jobs):
            protocol = job.protocol if job.protocol is not None else default
            # Keyed by identity: ``states`` holds every job, so no id is
            # reused while the pass runs.
            triple = (id(job.cell), id(job.chain), id(protocol))
            plan = plans.get(triple)
            if plan is None:
                plan = plans[triple] = _Plan(
                    cell=job.cell, chain=job.chain, protocol=protocol,
                    dwells=protocol.plan_dwells(job.cell, job.chain),
                    sweeps=protocol.plan_sweeps(job.cell, job.chain))
            state = _JobPlan(job=job, plan=plan)
            plan.jobs.append(state)
            states.append(state)

        # Silent shadowing in by_name would lose results; fail loudly
        # at scheduling time, before any chemistry runs.
        names = [state.job.name if state.job.name else f"job{index}"
                 for index, state in enumerate(states)]
        duplicates = sorted(name for name, count in Counter(names).items()
                            if count > 1)
        if duplicates:
            raise SimulationError(
                f"duplicate job names in fleet: {', '.join(duplicates)}")

        # Group compatible units across plans.  CA dwells key on the
        # protocol's dwell length and sample rate (an identical time
        # axis).  CV sweeps key on the sample rate alone: at one rate
        # every record's axis is a prefix of the longest, which is all
        # a SweepBatch needs (each sweep carries its own potential
        # program and retires when its record ends).
        groups: dict[tuple, list[tuple[_Plan, object]]] = {}
        for plan in plans.values():
            if plan.dwells:
                key = ("ca", float(plan.protocol.ca_dwell),
                       float(plan.protocol.sample_rate))
                for dwell in plan.dwells:
                    groups.setdefault(key, []).append((plan, dwell))
                plan.keys.append(key)
            for sweep in plan.sweeps:
                key = ("cv", float(sweep.sample_rate))
                groups.setdefault(key, []).append((plan, sweep))
                if key not in plan.keys:
                    plan.keys.append(key)

        # Pre-draw every job's acquisition noise from its own generator
        # in electrode order — the exact per-WE draws the sequential
        # path makes — so fused groups can digitise in one vectorised
        # pass without reordering any RNG stream.
        for state in states:
            self._predraw_noise(state, uniform_sample_times)

        simulated: set[tuple] = set()
        n_fused = 0
        n_ca_groups = 0
        n_steps = 0
        n_fused_sweeps = 0
        n_sweep_groups = 0
        n_solved = 0
        n_stored = 0
        try:
            for index, state in enumerate(states):
                for key in state.plan.keys:
                    if key in simulated:
                        continue
                    simulated.add(key)
                    members = groups[key]
                    # Fusion counts every job's copy of a unit, as if
                    # each job had planned its own.
                    if key[0] == "ca":
                        times = uniform_sample_times(key[1], key[2])
                        batch = DwellBatch(
                            [dwell for _, dwell in members], times,
                            store=self.store)
                        n_fused += sum(len(dwell.mechanisms) * len(plan.jobs)
                                       for plan, dwell in members)
                        n_ca_groups += 1
                    else:
                        batch = SweepBatch([sweep for _, sweep in members],
                                           store=self.store)
                        n_fused_sweeps += sum(len(plan.jobs)
                                              for plan, _ in members)
                        n_sweep_groups += 1
                        times = batch.times
                    rows = batch.simulate()
                    n_steps += batch.n_solve_steps
                    n_solved += batch.n_solved_systems
                    n_stored += batch.n_store_rows
                    self._digitize_group(times, members, rows)
                plan = state.plan
                result = plan.protocol.assemble(plan.cell, state.readings)
                yield FleetItem(index=index, name=names[index],
                                result=result, n_jobs=len(states),
                                n_fused_dwells=n_fused,
                                n_dwell_groups=n_ca_groups,
                                n_solve_steps=n_steps,
                                n_fused_sweeps=n_fused_sweeps,
                                n_sweep_groups=n_sweep_groups,
                                n_solved_systems=n_solved,
                                n_store_rows=n_stored)
        finally:
            # A consumer may abandon the stream mid-fleet (close() or a
            # partial iteration — see repro.api.iter_results).  Drop all
            # planned dwell and simulated-row references immediately so
            # a still-referenced generator object does not pin N cells
            # of per-fleet state; every run_iter call re-plans from its
            # jobs, so a fresh stream is unaffected and bit-identical.
            groups.clear()
            for plan in plans.values():
                plan.dwells.clear()
                plan.sweeps.clear()
                plan.jobs.clear()
            for state in states:
                state.noise.clear()
                state.readings.clear()
            plans.clear()
            states.clear()

    @staticmethod
    def _predraw_noise(state: _JobPlan, uniform_sample_times) -> None:
        """Draw the job's per-WE noise streams in electrode order.

        Each WE's budget and record axis are resolved once per plan
        (:meth:`~repro.electronics.chain.AcquisitionChain.noise_source`);
        per job only the generator draws remain — the draws the
        sequential path's ``digitize`` calls make, in the same order.
        """
        plan = state.plan
        if not plan.sources:
            axes = {sweep.we_name: sweep.times for sweep in plan.sweeps}
            if plan.dwells:
                ca_times = uniform_sample_times(
                    float(plan.protocol.ca_dwell),
                    float(plan.protocol.sample_rate))
                axes.update((dwell.we_name, ca_times)
                            for dwell in plan.dwells)
            plan.sources = [(we.name, *plan.chain.noise_source(
                                 we, axes[we.name]))
                            for we in plan.cell.working_electrodes]
        job = state.job
        generator = (job.rng if job.rng is not None
                     else np.random.default_rng(2011))
        for name, model, n, sample_rate in plan.sources:
            state.noise[name] = model.sample(generator, n, sample_rate)

    @staticmethod
    def _digitize_group(times: np.ndarray, members, rows) -> None:
        """Digitise one fused group's rows in vectorised batch calls.

        Each unit's row fans out to every job that planned it, each
        with its own noise.  Members are clustered by their chains'
        (TIA, ADC) transform — the only chain state the noise-supplied
        ``digitize_batch`` path reads — and by record length, so one
        call covers every compatible row however many jobs contributed.
        ``times`` is the group's longest axis; a shorter record's axis
        is its prefix.  Noise was pre-drawn per job, which is what makes
        the clustering free of RNG-ordering concerns.
        """
        clusters: dict = {}
        for i, (plan, _) in enumerate(members):
            key = (plan.chain.tia, plan.chain.adc, len(rows[i]))
            clusters.setdefault(key, []).extend(
                (i, state) for state in plan.jobs)
        for (_, _, length), fanned in clusters.items():
            chain = members[fanned[0][0]][0].chain
            units = [members[i][1] for i, _ in fanned]
            readings = chain.digitize_batch(
                times[:length],
                np.asarray([rows[i] for i, _ in fanned], dtype=float),
                wes=[unit.we for unit in units],
                noise=np.asarray([state.noise[unit.we_name]
                                  for unit, (_, state)
                                  in zip(units, fanned)]))
            for reading, unit, (_, state) in zip(readings, units, fanned):
                state.readings[unit.we_name] = (unit, reading)

    def run_many(self, jobs) -> FleetResult:
        """Advance every job's panel through the shared engine.

        Drains :meth:`run_iter` into a :class:`FleetResult`; dwell
        chemistry is fused across jobs per compatibility group, and
        acquisition noise is drawn per job from its own generator, in
        the job's electrode order.
        """
        items = list(self.run_iter(jobs))
        if not items:
            return FleetResult(results=(), names=(), n_fused_dwells=0,
                               n_dwell_groups=0)
        last = items[-1]
        return FleetResult(results=tuple(item.result for item in items),
                           names=tuple(item.name for item in items),
                           n_fused_dwells=last.n_fused_dwells,
                           n_dwell_groups=last.n_dwell_groups,
                           n_solve_steps=last.n_solve_steps,
                           n_fused_sweeps=last.n_fused_sweeps,
                           n_sweep_groups=last.n_sweep_groups,
                           n_solved_systems=last.n_solved_systems,
                           n_store_rows=last.n_store_rows)
