"""``run(spec)`` / ``iter_results(spec)`` — the platform's front door.

One entry point, six dispatch paths:

==============  ==============================================  =======================
spec kind       executes through                                returns
==============  ==============================================  =======================
``assay``       a one-job ``fleet``, as below (the same
                executor, job store path and records)            :class:`AssayRunRecord`
``fleet``       a pluggable :class:`~repro.api.executors.
                Executor` backend (inline scheduler pass,
                process slots or distributed workers)            :class:`FleetRunRecord`
``sweep``       compiled to a ``fleet`` (grid of overrides
                over a base assay), then as above                :class:`FleetRunRecord`
``calibration`` :func:`~repro.analysis.calibration.
                run_calibration` over the bench chain            :class:`CalibrationRunRecord`
``platform``    :meth:`~repro.core.platform.BiosensingPlatform.
                run`                                             :class:`PlatformRunRecord`
``explore``     :func:`~repro.core.explorer.explore`             :class:`ExploreRunRecord`
==============  ==============================================  =======================

:func:`iter_results` is the streaming form of the fleet path: it yields
one :class:`AssayRunRecord` per job, in job order, as each assay
completes on the selected backend — a consumer can export or react to
job ``k`` while jobs ``k+1..N`` are still digitising, and
``run(fleet_spec)`` is exactly this stream collected.

Execution is orthogonal to description: ``backend=`` (an
:class:`~repro.api.executors.Executor`, ``"inline"`` or ``"process"``)
overrides the fleet's declarative ``execution`` block, and results are
bit-identical across backends.  ``store=`` (a
:class:`~repro.api.store.RunStore` or its root path) memoises at two
granularities:

- **whole runs** by spec hash — a repeated ``run(spec, store=store)``
  of a fleet, sweep, calibration, platform or explore spec returns the
  stored record (``cached=True``) without touching the engine;
- **individual assay jobs** by :class:`~repro.api.jobs.JobKey` — a
  standalone assay is looked up as its one job, and on a whole-run
  miss a fleet/sweep is planned job by job
  (:class:`~repro.api.jobs.JobPlan`): warm jobs rehydrate live
  :class:`~repro.api.records.CachedAssayRecord` results from the
  store, only the *miss fleet* reaches the execution backend (cached
  jobs are dropped before sharding), and cached + fresh records are
  re-merged in job order — bit-identical to the uncached stream.  A
  sweep sharing 90 of 100 grid points with an earlier study simulates
  only the 10 new points; a fully warm sweep performs zero engine
  solves;
- **engine rows** beneath the jobs — the miss fleet's scheduler pass
  serves every engine row the store already holds and keeps the rows
  it solves (:meth:`~repro.api.store.RunStore.get_row`), so a new
  seed over known chemistry solves nothing.  Its jobs are still fresh
  records (``cached=False``), persisted per job as usual.

Runs that consulted a store carry a :class:`~repro.api.store.StoreStats`
delta (job and row hits/misses, evictions, plus the store footprint)
in their provenance under ``"store"``.

Execution is also *supervised* on request: ``retry=`` (a
:class:`~repro.api.resilience.RetryPolicy`), ``on_error=`` (``"raise"``
or ``"partial"``) and ``faults=`` (a deterministic
:class:`~repro.api.resilience.FaultInjector`, normally driven by the
``REPRO_FAULTS`` environment variable) route fleet/sweep/assay runs
through the resilience layer: crashed, hung or failing shards are
re-dispatched at finer granularity under the retry budget, and under
``on_error="partial"`` exhausted jobs degrade to
:class:`~repro.api.records.FailedAssayRecord` entries instead of
aborting the fleet.  Failed records are never persisted to a store —
a later warm run re-executes exactly the jobs that failed.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping

import numpy as np

from repro.api.records import (
    AssayRunRecord,
    CalibrationRunRecord,
    EngineStats,
    ExploreRunRecord,
    FleetRunRecord,
    PlatformRunRecord,
    RunRecord,
)
from repro.api.specs import (
    SCHEMA_VERSION,
    AssaySpec,
    CalibrationSpec,
    ExploreSpec,
    FleetSpec,
    PlatformSpec,
    RunnableSpec,
    SweepSpec,
    hash_payload,
    spec_from_dict,
)
from repro.errors import ProtocolError, SpecError

__all__ = ["run", "iter_results"]


def _coerce(spec):
    if isinstance(spec, Mapping):
        return spec_from_dict(spec)
    return spec


def _coerce_store(store):
    from repro.api.store import RunStore

    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)


def _apply_screening(spec, screening):
    """Re-target a spec at the screening (or full-fidelity) profile.

    ``None`` leaves the spec as written — the only way a screening run
    happens is an explicit opt-in, either here or in the spec file
    itself.  The flag lands in the canonical payload before any store
    lookup, so screening runs and their full-fidelity twins never share
    a spec hash or a :class:`~repro.api.jobs.JobKey`.
    """
    if screening is None:
        return spec
    import dataclasses

    flag = bool(screening)
    if isinstance(spec, AssaySpec):
        return dataclasses.replace(spec, screening=flag)
    if isinstance(spec, FleetSpec):
        return dataclasses.replace(spec, assays=tuple(
            dataclasses.replace(assay, screening=flag)
            for assay in spec.assays))
    if isinstance(spec, SweepSpec):
        return dataclasses.replace(spec, screening=flag)
    raise SpecError(f"screening applies to assay/fleet/sweep specs, "
                    f"not {type(spec).__name__}")


def run(spec, backend=None, store=None, screening=None,
        retry=None, on_error=None, faults=None) -> RunRecord:
    """Execute any runnable spec (dataclass or payload dict).

    ``backend`` selects the fleet execution backend (fleet/sweep/assay
    kinds; see :func:`~repro.api.executors.resolve_executor`);
    ``store`` memoises — whole runs by spec hash, and fleet/sweep
    *jobs* by :class:`~repro.api.jobs.JobKey`, so a partially warm
    study simulates only its missing grid points.  The returned record
    carries the run's :class:`~repro.api.store.StoreStats` delta in its
    provenance.  ``screening=True`` opts an assay/fleet/sweep into the
    coarse-grid screening profile (``False`` forces full fidelity;
    ``None`` — the default — runs the spec as written); the flag joins
    the spec payload before hashing, so screening results are stored
    and recalled under their own content addresses.

    ``retry`` (a :class:`~repro.api.resilience.RetryPolicy`),
    ``on_error`` (``"raise"`` | ``"partial"``) and ``faults`` (a
    :class:`~repro.api.resilience.FaultInjector`) opt the run into
    supervised execution; ``None`` defers to the spec's ``execution``
    block.  A fleet containing :class:`FailedAssayRecord` entries is
    never persisted as a whole-run store record, and failed jobs are
    never persisted at job granularity — a later warm run re-executes
    exactly the jobs that failed.
    """
    spec = _apply_screening(_coerce(spec), screening)
    if not isinstance(spec, RunnableSpec):
        raise SpecError(f"not a runnable spec: {type(spec).__name__}")
    store = _coerce_store(store)
    if store is None:
        return _dispatch(spec, backend, None, retry, on_error, faults)
    from repro.api.store import StoreStats

    # The run's deltas need only the counters before it; the footprint
    # comes from the one full stats() after it.
    before = store._counter_totals()
    if isinstance(spec, AssaySpec):
        # A standalone assay *is* a job: the one-job fleet's JobPlan
        # looks it up (an earlier fleet or sweep may have warmed it) and
        # a fresh record is persisted per job as it streams.
        record = _dispatch(spec, backend, store, retry, on_error, faults)
    else:
        # The spec is already canonical (a parsed dataclass), so its
        # hash needs one to_dict, not a serialise/re-parse round trip.
        record = store.get(hash_payload(spec.to_dict()))
        if record is None:
            record = _dispatch(spec, backend, store, retry, on_error,
                               faults)
            # A degraded run is not a reusable result: persisting it
            # would turn a transient fault into a permanently cached
            # failure.  Per-job successes were already persisted as
            # they streamed, so a warm retry re-runs only the failures.
            if not (isinstance(record, FleetRunRecord) and record.n_failed):
                store.put(record)
    after = store.stats()
    # Stamp the run's store delta (job hits/misses/evictions) plus the
    # store's resulting footprint; records are frozen, so this rides as
    # the documented class-attribute override on RunRecord.
    object.__setattr__(record, "store_stats", StoreStats(
        hits=after.hits - before["hits"],
        misses=after.misses - before["misses"],
        evictions=after.evictions - before["evictions"],
        records=after.records, bytes=after.bytes,
        quarantined=after.quarantined - before["quarantined"],
        row_records=after.row_records, row_bytes=after.row_bytes,
        row_hits=after.row_hits - before["row_hits"],
        row_misses=after.row_misses - before["row_misses"]))
    return record


def _dispatch(spec, backend, store, retry=None, on_error=None,
              faults=None) -> RunRecord:
    if isinstance(spec, AssaySpec):
        # A one-job fleet: the record is the stream's only item.
        [record] = _stream(FleetSpec(name=spec.name, assays=(spec,)),
                           backend, store, retry, on_error, faults)
        return record
    if isinstance(spec, FleetSpec):
        return _run_fleet(spec, backend, store=store, retry=retry,
                          on_error=on_error, faults=faults)
    if isinstance(spec, SweepSpec):
        return _run_fleet(spec.compile(), backend, payload=spec.to_dict(),
                          store=store, retry=retry, on_error=on_error,
                          faults=faults)
    if any(arg is not None for arg in (backend, retry, on_error, faults)):
        raise SpecError(f"execution backends apply to assay/fleet/sweep "
                        f"specs, not {type(spec).__name__}")
    if isinstance(spec, CalibrationSpec):
        return _run_calibration(spec)
    if isinstance(spec, PlatformSpec):
        return _run_platform(spec)
    return _run_explore(spec)


def iter_results(spec, backend=None, store=None, screening=None,
                 retry=None, on_error=None,
                 faults=None) -> Iterator[AssayRunRecord]:
    """Stream a fleet: one per-job record as each assay completes.

    Job order, results, and provenance match ``run(fleet_spec)`` exactly
    on every backend (``backend=None`` defers to the spec's
    ``execution`` block); each yielded record carries its *own* assay
    spec payload and hash, its job's seed, and — cumulative since the
    stream started, like ``wall_time_s`` — the engine fusion statistics
    of the backend at the moment it completed.  Sweep specs are
    compiled to their fleet first; a bare assay streams as a one-job
    fleet.  Streaming granularity depends on the backend: inline yields
    as each job's dwells drain, while the process and distributed
    backends yield a unit at a time (in job order either way).  The
    stream may be abandoned early (``close()`` or a partial iteration):
    the execution core stops the units still in flight, and a fresh
    call replays from the spec bit-identically.

    ``store`` enables job-level memoisation: warm jobs are yielded as
    rehydrated :class:`~repro.api.records.CachedAssayRecord` objects
    (live, bit-identical results; ``cached=True``), only the misses
    reach the backend — dropped before sharding — and every fresh
    record is persisted as it streams.  Cached records keep their
    *original* run's wall time and engine statistics; fresh records'
    cumulative statistics cover the miss fleet only.

    ``screening`` opts the whole stream into (``True``) or out of
    (``False``) the coarse-grid screening profile, exactly as on
    :func:`run`; ``None`` runs the spec as written.  ``retry`` /
    ``on_error`` / ``faults`` opt the stream into supervised execution
    (see :func:`run`); under ``on_error="partial"`` exhausted jobs
    stream as :class:`~repro.api.records.FailedAssayRecord` entries in
    their job-order slots.
    """
    spec = _apply_screening(_coerce(spec), screening)
    if isinstance(spec, AssaySpec):
        spec = FleetSpec(name=spec.name, assays=(spec,))
    if isinstance(spec, SweepSpec):
        spec = spec.compile()
    if not isinstance(spec, FleetSpec):
        raise SpecError(f"iter_results needs a fleet, sweep or assay "
                        f"spec, got {type(spec).__name__}")
    yield from _stream(spec, backend, _coerce_store(store), retry,
                       on_error, faults)


def _stream(spec: FleetSpec, backend, store, retry=None, on_error=None,
            faults=None) -> Iterator[AssayRunRecord]:
    """The fleet's records in job order: straight from the executor, or
    through the job-level store pipeline when there is a ``store``."""
    if store is None:
        return _execute(spec, backend, retry, on_error, faults)
    return _iter_fleet_store(spec, backend, store, retry=retry,
                             on_error=on_error, faults=faults)


def _execute(spec: FleetSpec, backend, retry=None, on_error=None,
             faults=None, store=None) -> Iterator[AssayRunRecord]:
    """Stream ``spec`` through the executor ``backend`` resolves to.

    A run ``store`` is passed on as ``run_fleet(spec, store=store)``,
    so the backend serves engine rows from it.  An executor the runner
    built itself is closed when the stream ends; a caller-supplied
    instance stays open for the caller's next run.
    """
    from repro.api.executors import resolve_executor

    executor = resolve_executor(backend, spec.execution, retry=retry,
                                on_error=on_error, faults=faults)
    try:
        yield from (executor.run_fleet(spec) if store is None
                    else executor.run_fleet(spec, store=store))
    finally:
        close = getattr(executor, "close", None)
        if executor is not backend and close is not None:
            close()


def _iter_fleet_store(spec: FleetSpec, backend, store, retry=None,
                      on_error=None, faults=None
                      ) -> Iterator[AssayRunRecord]:
    """Merge warm store records and fresh backend records in job order.

    The job-level pipeline: plan (key every job, pull warm records),
    execute the miss fleet on the selected backend (cached jobs never
    reach the scheduler or the process shards), persist each fresh
    per-job record as it completes, and yield records in the original
    fleet job order — bit-identical to the uncached stream.  The plan
    is the run's only job lookup and this loop its only job write: a
    backend streams fresh records only, so each persisted record's
    deltas are taken against the previous fresh record of the same
    stream and are never negative.
    """
    from repro.api.jobs import JobPlan

    plan = JobPlan.plan(spec, store)
    miss = plan.miss_fleet()
    fresh = iter(()) if miss is None else _execute(
        miss, backend, retry, on_error, faults, store)
    prev_engine = None
    prev_wall = 0.0
    try:
        with store.batched():
            for index in range(len(spec.assays)):
                record = plan.cached.get(index)
                if record is None:
                    record = next(fresh)
                    if record.failed:
                        # A FailedAssayRecord is not a result; leaving
                        # it out of the store keeps its job a miss, so
                        # a later warm run re-executes exactly this job.
                        yield record
                        continue
                    store.put_job(_per_job_snapshot(record, prev_engine,
                                                    prev_wall))
                    prev_engine = record.engine
                    prev_wall = record.wall_time_s
                yield record
    finally:
        close = getattr(fresh, "close", None)
        if close is not None:
            close()


def _per_job_snapshot(record: AssayRunRecord, prev_engine, prev_wall: float
                      ) -> AssayRunRecord:
    """The copy of a streamed record that is persisted per job.

    Streamed records carry stream-*cumulative* engine statistics and
    wall time (documented on :func:`iter_results`); a per-job store
    record must describe only its own job, so the cumulative values are
    converted to deltas against the previous fresh record before
    persisting.  Attribution follows the stream: a fused dwell group is
    charged to the first job that triggered it (later members of the
    group added no solves of their own), and the deltas of a fleet's
    per-job records always sum to its live totals.
    """
    import dataclasses

    engine = record.engine
    if engine is not None and prev_engine is not None:
        engine = EngineStats(
            n_fused_dwells=(engine.n_fused_dwells
                            - prev_engine.n_fused_dwells),
            n_dwell_groups=(engine.n_dwell_groups
                            - prev_engine.n_dwell_groups),
            n_solve_steps=(engine.n_solve_steps
                           - prev_engine.n_solve_steps))
    return dataclasses.replace(
        record, engine=engine,
        wall_time_s=record.wall_time_s - prev_wall)


def _run_fleet(spec: FleetSpec, backend=None,
               payload: dict | None = None,
               store=None, retry=None, on_error=None,
               faults=None) -> FleetRunRecord:
    """Collect a fleet stream; ``payload`` lets sweeps stamp their own
    spec (the record's provenance names what the user asked for, not
    the compiled expansion)."""
    payload = payload if payload is not None else spec.to_dict()
    start = time.perf_counter()
    records = tuple(_stream(spec, backend, store, retry, on_error, faults))
    # FleetSpec guarantees at least one assay, so records is non-empty
    # and the last *fresh* record's cumulative stats are the fleet's
    # live totals — degraded FailedAssayRecord slots carry no engine,
    # and cached records (the plan's store hits) carry their original
    # run's, so both are skipped over.
    engine = _live_engine_totals(records)
    fleet_record = FleetRunRecord(
        spec=payload, spec_hash=hash_payload(payload),
        schema_version=SCHEMA_VERSION, seed=None,
        wall_time_s=time.perf_counter() - start,
        records=records, engine=engine,
        seeds=tuple(assay.seed for assay in spec.assays))
    # Supervised runs stamp cumulative retry/fault counters on each
    # streamed record; surface the final totals on the fleet record so
    # whole-run provenance carries them.
    for record in reversed(records):
        stats = getattr(record, "resilience", None)
        if stats is not None:
            object.__setattr__(fleet_record, "resilience", stats)
            break
    return fleet_record


def _live_engine_totals(records) -> EngineStats:
    """The engine work *this* run actually performed.

    Cached records carry their original runs' statistics; only the
    runner's :class:`~repro.api.jobs.JobPlan` makes them, since no
    backend streams one.  The fleet totals must describe the live
    pass, so they come from the last fresh record (cumulative over the
    miss fleet) — and are all zero for a fully warm run, which is
    exactly the observable the zero-engine-solves acceptance bar pins.
    """
    for record in reversed(records):
        if not record.cached and record.engine is not None:
            return record.engine
    return EngineStats(n_fused_dwells=0, n_dwell_groups=0, n_solve_steps=0)


def _run_calibration(spec: CalibrationSpec) -> CalibrationRunRecord:
    from repro.analysis import run_calibration
    from repro.data import bench_chain, performance_record, reference_cell
    from repro.data.catalog import table1_working_electrode

    payload = spec.to_dict()
    start = time.perf_counter()
    try:
        record = performance_record(spec.target)
    except KeyError as exc:
        raise SpecError(f"calibration spec: {exc.args[0]}") from exc
    if record.method != "chronoamperometry":
        raise ProtocolError(
            f"{spec.target} is CV-detected; use the T3 bench for "
            f"peak-height calibration")
    cell = reference_cell(spec.target)
    chain = bench_chain(seed=spec.seed)
    we = cell.working_electrodes[0]
    e_applied = table1_working_electrode(
        spec.target).effective_h2o2_wave().potential_for_efficiency(0.95)

    def signal_at(concentration: float) -> tuple[float, float]:
        cell.chamber.set_bulk(spec.target, concentration)
        true = cell.measured_current(we.name, e_applied)
        return chain.measure_constant(true, duration=5.0, we=we)

    lo, hi = record.linear_range
    ladder = list(np.linspace(lo, hi * 1.5, spec.points))
    curve = run_calibration(signal_at, ladder)
    return CalibrationRunRecord(
        spec=payload, spec_hash=hash_payload(payload),
        schema_version=SCHEMA_VERSION, seed=spec.seed,
        wall_time_s=time.perf_counter() - start,
        target=spec.target, curve=curve,
        e_applied=float(e_applied), we_area=float(we.area))


def _run_platform(spec: PlatformSpec) -> PlatformRunRecord:
    from repro.core.platform import BiosensingPlatform

    payload = spec.to_dict()
    start = time.perf_counter()
    platform = BiosensingPlatform(
        spec.build_design(), ca_dwell=spec.ca_dwell,
        sample_rate=spec.sample_rate, seed=spec.seed,
        readout_class=spec.readout_class)
    if spec.concentrations is not None:
        platform.load_sample(dict(spec.concentrations))
    result = platform.run()
    return PlatformRunRecord(
        spec=payload, spec_hash=hash_payload(payload),
        schema_version=SCHEMA_VERSION, seed=spec.seed,
        wall_time_s=time.perf_counter() - start,
        result=result, summary=platform.summary())


def _run_explore(spec: ExploreSpec) -> ExploreRunRecord:
    from repro.core.explorer import explore

    payload = spec.to_dict()
    start = time.perf_counter()
    result = explore(spec.build_panel())
    return ExploreRunRecord(
        spec=payload, spec_hash=hash_payload(payload),
        schema_version=SCHEMA_VERSION, seed=None,
        wall_time_s=time.perf_counter() - start,
        result=result)
