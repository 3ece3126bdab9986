"""repro.api — the platform's single declarative front door.

The paper's pitch is an *integrated* platform; this package is the seam
that makes the codebase one.  Users describe work as versioned,
JSON-round-trippable **specs** and get **run records** back — result
plus provenance — through exactly one entry point::

    from repro import api

    record = api.run(api.AssaySpec(seed=7))          # Fig. 4 panel
    print(record.spec_hash, record.result.readouts["glucose"].signal)

    fleet = api.FleetSpec.homogeneous(cells=8, seed=2011)
    for rec in api.iter_results(fleet):              # streamed, job order
        print(rec.job_name, rec.result.assay_time)

Execution backends
==================

*What* runs is orthogonal to *how* it runs.  Every backend is one
execution core (:func:`repro.api.executors.run_units`) over a small
transport that answers ``submit`` / ``poll`` / ``kill``:
:class:`InlineExecutor` runs the fleet as one fused scheduler pass in
this thread (the bit-identical reference), :class:`ProcessExecutor`
runs its units on worker-process slots, and :class:`DistributedExecutor`
(below) writes them as task files to a queue directory drained by
detached ``repro worker`` processes.  The core merges completions in
job order, so the stream — and every sample of every result — is
bit-identical to inline.  Select a backend declaratively through the
fleet's ``execution`` block::

    {"kind": "fleet", ..., "execution":
        {"backend": "process", "workers": 4}}

or programmatically: ``run(spec, backend="process")`` /
``run(spec, backend=ProcessExecutor(workers=4))`` (the explicit
argument wins).  Any object with ``run_fleet(spec)`` yielding
:class:`~repro.api.records.AssayRunRecord` plugs in.

Fault-tolerant execution
========================

Real fleets lose workers.  The execution core supervises every run, on
every backend, so a crashed, hung or transiently failing worker costs a
retry, not the run; :mod:`repro.api.resilience` holds the policy and
the fault harness::

    policy = api.RetryPolicy(max_attempts=3, timeout_s=120.0,
                             backoff_s=0.5)
    record = api.run(fleet, backend="process", retry=policy)

**Retry semantics.**  Each job carries an attempt budget
(``max_attempts``).  A fleet runs as *units* (one per worker, the whole
fleet inline), and each unit failure is attributed to exactly that
unit: a process slot or a queue claim per unit.  A failed unit's
*surviving* jobs are re-queued at finer granularity (unit → split
halves → single jobs) with the failure charged only against the jobs
that were present.  ``retries`` counts re-queued jobs;
``worker_crashes``, ``worker_hangs`` and ``engine_errors`` count failed
unit dispatches (in-thread, where there is no worker, every injected
fault is an engine error).  Re-dispatch waits
``backoff_s * backoff_factor**(attempt-1)`` plus a deterministic
seeded jitter (``jitter_s``/``jitter_seed`` — no wall-clock
randomness), and ``timeout_s`` bounds each dispatch: a unit that
exceeds it is killed and treated as a failed attempt.  Because every
job re-executes from its canonical payload with a fresh seeded RNG,
**a retried run is bit-identical to a fault-free run** — supervision
changes when results arrive, never what they are.

**Degradation modes.**  ``on_error="raise"`` (default) aborts the run
with :class:`~repro.errors.ExecutionError` the moment any job exhausts
its budget (:class:`~repro.errors.SpecError` when an invalid assay
felled it).  ``on_error="partial"`` keeps going: exhausted jobs yield
:class:`~repro.api.records.FailedAssayRecord` entries (error type,
message, traceback, attempt count; ``record.failed`` is true) merged
into the stream at their job-order slots, and
:attr:`~repro.api.records.FleetRunRecord.n_failed` counts them.
Records of an executor with a retry policy, ``on_error="partial"`` or a
fault injector carry cumulative
:class:`~repro.api.records.ResilienceStats` (retries, crashes, hangs,
engine errors, failed jobs) in ``provenance()["resilience"]``.  Both
knobs live in the spec's execution block too (schema v4)::

    {"execution": {"backend": "process", "workers": 4,
                   "retry": {"max_attempts": 3, "timeout_s": 120.0},
                   "on_error": "partial"}}

**Fault injection.**  :class:`FaultInjector` drives deterministic
faults for CI and tests — ``worker_crash`` (hard ``os._exit``),
``worker_hang`` (sleep past the timeout), ``engine_error`` (transient
exception), ``store_corrupt`` (truncated store write) — from a
seeded rule string, never from wall-clock randomness::

    inj = api.FaultInjector.parse("worker_crash:1@cell01;engine_error:0.2")
    api.run(fleet, backend="process", retry=policy, faults=inj)

The environment variables ``REPRO_FAULTS`` (same rule syntax) and
``REPRO_FAULTS_SEED`` arm every executor and store constructed without
an explicit injector, so a CI job can fault an unmodified workload.
Faults are an executor property, never part of the spec payload —
faulted and fault-free runs share every spec hash and job key, which
is what makes the bit-identity assertions possible.

The run store and the job-level pipeline
========================================

:class:`~repro.api.store.RunStore` (:mod:`repro.api.store`) memoises
at two granularities, both content-addressed by SHA-256 over canonical
payloads::

    store = api.RunStore("runs/")
    first = api.run(spec, store=store)    # executes, persists
    again = api.run(spec, store=store)    # cache hit: no engine work
    assert again.cached and again.spec_hash == first.spec_hash

**Whole runs** are keyed by spec hash and rehydrate as summary-only
:class:`~repro.api.records.StoredRunRecord` objects.  **Individual
assay jobs** are keyed by :class:`~repro.api.jobs.JobKey` (the SHA-256
of the job's canonical assay payload — seed, injection schedules and
all) and persist their full sample arrays, so a hit rehydrates a *live*
:class:`~repro.api.records.CachedAssayRecord` with bit-identical
results.  On a whole-run miss, fleets and sweeps flow through the
job-level pipeline (:class:`~repro.api.jobs.JobPlan` → executor →
store): warm jobs are pulled from the store, only the miss fleet
reaches the backend (cached jobs are dropped before the process
executor shards), fresh per-job records are persisted as they stream,
and cached + fresh records are re-merged in job order — so a sweep
sharing 90 of 100 grid points with an earlier study simulates only the
10 new points, and a fully warm sweep performs zero engine solves
(observable via :class:`~repro.api.records.EngineStats.n_solve_steps`).
Because the per-job key is the assay payload hash, fleet members, sweep
grid points and standalone assay runs all share one cache entry.
Beneath the jobs, the store also keeps **engine rows**: the miss
fleet's scheduler pass serves every row whose exact key bytes the store
holds (:meth:`~repro.api.store.RunStore.get_row`) and keeps the rows it
solves, so a fresh seed over known chemistry solves nothing while its
jobs stay fresh records (``cached=False``).

Records live at ``<root>/<hash[:2]>/<hash>.json`` (the record's
``to_dict()``: provenance + canonical spec + result summary, plus a
``samples`` section for per-job records), written atomically; engine
rows sit under ``<root>/rows/``.  The record files are the store's only
truth: sizes come from the listing, LRU recency from each file's mtime
(stamped on every write and hit), and lifetime hit/miss/eviction
counters from one small file per live writing process under
``<root>/counters/``.  ``RunStore(root, max_count=, max_bytes=)`` (or an
explicit :meth:`~repro.api.store.RunStore.gc`) evicts
least-recently-used records, and :meth:`~repro.api.store.RunStore.stats`
returns a :class:`~repro.api.store.StoreStats` snapshot.  Runs that consulted a
store stamp their hit/miss/eviction delta into record provenance under
``"store"``.  The CLI drives the same store via ``--store`` and the
``cache`` subcommand (``cache <dir>`` listing, ``cache <dir> stats``,
``cache <dir> gc --max-count/--max-bytes``, both with ``--json``).

Stores are *hardened*: every record is one sealed binary container (a
SHA-256 digest over its stored bytes, a JSON header, raw float64 sample
blocks), every read checks the digest before parsing, and a record
that fails to verify or parse is quarantined to ``<root>/quarantine/`` (counted in
``stats().quarantined``, reported as a :class:`RuntimeWarning`) and
treated as a miss — the job silently re-runs and re-persists a clean
record.  Failed (degraded) records are never persisted.

Distributed execution: the queue and the worker fleet
=====================================================

:class:`DistributedExecutor` (:mod:`repro.api.distributed`) decouples
*who submits* from *who computes*.  The submitter writes each unit as a
task file under a shared **queue directory** (``tasks/`` tasks,
``claims/`` claim markers, ``results/`` completions, ``store/`` the
default shared run store); independent worker processes —
``repro worker --queue DIR``, started before or after the run, one or
many, on any host sharing the file system — claim tasks atomically via
``os.O_EXCL`` claim files, execute them through the same fused
scheduler pass, and write results back.  The core merges completions
in job order, so the stream is bit-identical to inline.  Workers drain
and exit once ``<queue>/stop`` exists and nothing is claimable::

    repro worker --queue /shared/q &          # capacity, once
    repro run fleet.json --backend distributed --queue /shared/q
    touch /shared/q/stop                      # retire the workers

or declaratively ``{"execution": {"backend": "distributed", "queue":
"/shared/q", "workers": 4}}``, or ``repro serve --backend distributed
--queue DIR`` to put the whole service in front of the worker fleet.

Liveness is judged by progress, not promises: a worker refreshes its
claim's mtime after every completed job, so a crashed or hung worker's
claim goes stale and the submitter reclaims it as a failed unit — the
core then re-queues its jobs exactly as for a dead process slot, under
the same :class:`RetryPolicy` budget and ``on_error`` degradation, and
with the same bit-identity guarantee.

Workers serve and warm **engine rows** only: each solves its unit in
one fused pass over the shared queue store, so any chemistry any
worker has ever solved is a cluster-wide row hit, and a re-run solves
nothing (``EngineStats.n_solve_steps == 0``) whichever workers serve
it.  Job records belong to the submitter, as on every backend: a
store-less run streams fresh records, and a run given ``store=`` looks
its jobs up and persists them itself, so its warm jobs come back as
:class:`~repro.api.records.CachedAssayRecord` entries that never reach
a worker.  And because *where a record lives* is now a pluggable
:class:`~repro.api.store.StorageDriver` behind :class:`RunStore`
(:class:`~repro.api.store.LocalDirDriver` is the reference —
content-addressed JSON under a sharded directory tree), the same
store, executor and worker code runs unchanged over any backing that
implements the driver's read/write/list/lock surface.

Spec schema
===========

Every spec serialises to a flat JSON object with a two-field envelope —
``{"schema": <int>, "kind": <str>, ...}`` — shared with the core
design/panel specs of :mod:`repro.core.spec`.  Kinds and their payloads
live in :mod:`repro.api.specs`:

- ``assay``: ``name``, ``seed``, ``cell`` (paper panel or reference
  sensor), ``chain`` (integrated readout class or bench), ``protocol``
  (dwell/sweep parameters, injection schedules).
- ``fleet``: ``name``, an explicit ``assays`` list (files stay
  reproducible; :meth:`~repro.api.specs.FleetSpec.homogeneous` builds
  the N-identical-cells case), and the ``execution`` block above.
- ``sweep``: a ``base`` assay payload plus a ``grid`` mapping dotted
  payload paths (``"seed"``, ``"protocol.ca_dwell"``,
  ``"cell.concentrations.glucose"``) to value lists; compiles to the
  Cartesian-product ``fleet``, so parameter studies flow through the
  same backends and store.
- ``calibration``: ``target``, ``points``, ``seed``.
- ``platform``: an embedded core ``design`` payload plus sample
  ``concentrations`` and run parameters.
- ``explore``: an embedded core ``panel`` payload (or null for the
  paper's Sec. III panel).

Versioning policy
=================

``SCHEMA_VERSION`` (currently 7) is written into every payload and
checked on load; a reader raises :class:`~repro.errors.SpecError` on
any version it does not understand, naming the offending file/path.
Version 2 added the fleet ``execution`` block and the ``sweep`` kind;
version 3 added the opt-in ``screening`` flag on assay and sweep
payloads; version 4 added the ``retry`` policy and ``on_error`` mode
to the execution block; version 5 added the ``distributed`` backend
with its ``queue`` directory and an opt-in speculative ``prefetch``
flag; version 6 removed the execution block's ``shard`` strategy and
``prefetch`` flag, which moved work but never changed a result;
version 7 removed the protocol's ``batch_electrodes`` flag, since every
spec-built assay now runs through the one batched scheduler route and
the flag's two values produced the same bytes.

Every spec field added or removed bumps the version.  ``repro lint``
(REP004) fails on a field change without a bump, and each bump
re-anchors ``repro/devtools/schema_snapshot.json`` with ``repro lint
--write-schema``; the test suite checks that the committed snapshot
matches the source.
Readers accept every version in ``SUPPORTED_SCHEMAS`` (1 through 7):
missing keys take their defaults, so older files keep loading with
their original behaviour (inline execution, full fidelity,
unsupervised), and unknown keys are ignored, so a v5 ``shard`` or
``prefetch`` key or a v6 ``batch_electrodes`` key (whatever its value)
simply drops.  ``to_dict`` always emits the complete
canonical payload at the current version, so :func:`spec_hash`
(SHA-256 over the sorted canonical JSON) is stable across round trips
and is the provenance key every :class:`~repro.api.records.RunRecord`
carries and every :class:`~repro.api.store.RunStore` keys by.  The
payload's ``schema`` joins that hash, so a bump re-keys every
:class:`~repro.api.jobs.JobKey`: job records written under the old
version miss once and are re-solved.  Engine rows are keyed by their
chemistry bytes, not by a spec payload, so they survive a bump and the
re-run solves nothing.

Screening provenance
====================

``screening`` is the one knob that changes *physics*, not just
execution: it swaps in a coarser chemistry grid for triage-speed runs.
It is therefore opt-in at every layer (spec field, ``run(...,
screening=True)``, CLI ``--screening``; never a default), stamped into
the canonical payload **before** hashing — so a screening run can never
collide with its full-fidelity twin in a run store — and surfaced in
every record's ``provenance()["screening"]``.  Pre-v3 payloads carry no
flag and omit the provenance key rather than fabricating one.

Layer 10: the service seam
==========================

Everything above is a library call; :mod:`repro.service` turns it into
a *served* platform — the paper's many-clients-one-instrument shape.
A :class:`~repro.service.server.DiagnosticsServer` (stdlib asyncio, a
minimal HTTP/1.1 layer) exposes this front door over JSON::

    POST   /v1/runs            submit any spec kind -> job id
    GET    /v1/runs/<id>       status + provenance
    GET    /v1/runs/<id>/stream  chunked NDJSON of per-job records
    DELETE /v1/runs/<id>       cancel (pending engine work stops)
    GET    /v1/health, /v1/stats

Behind the endpoints: a two-tier fair priority queue (``screening``
runs deprioritized, round-robin across API keys), per-client
token-bucket rate limiting with a persisted usage ledger, and N
dispatcher threads each owning one executor for the server's lifetime —
a :class:`ProcessExecutor` keeps its worker slots across runs, so the
process-spawn cost of a small fleet is amortised across the server's
lifetime.  Every run still executes
through :func:`run` / :func:`iter_results` against the shared warm
:class:`~repro.api.store.RunStore` (safe under concurrent writers:
atomic record writes, one counter file per process), so served records
are bit-identical to inline ones — cached, supervised and screening paths
included.  ``repro serve`` is the CLI entry;
:class:`~repro.service.client.ServiceClient` is the stdlib client;
:class:`~repro.service.config.ServeSpec` is the deployment's own
validated, JSON-round-trippable spec.

Escape hatch
============

The class-level entry points remain supported and documented —
:class:`~repro.measurement.panel.PanelProtocol.run`,
:class:`~repro.engine.scheduler.AssayScheduler.run_many`,
:class:`~repro.core.platform.BiosensingPlatform.run` — and the spec
paths are pinned bit-identical to them in ``tests/test_api_run.py``;
specs add provenance and a stable file surface, not new physics.  The
sequential per-WE reference, ``PanelProtocol(batch_electrodes=False)``,
is class-level only: no spec field, CLI flag or backend selects it.
"""

from repro.api.distributed import DistributedExecutor, run_worker
from repro.api.executors import (
    Executor,
    InlineExecutor,
    ProcessExecutor,
    resolve_executor,
)
from repro.api.jobs import JobKey, JobPlan
from repro.api.records import (
    AssayRunRecord,
    CachedAssayRecord,
    CalibrationRunRecord,
    EngineStats,
    ExploreRunRecord,
    FailedAssayRecord,
    FleetRunRecord,
    PlatformRunRecord,
    ResilienceStats,
    RunRecord,
    StoredRunRecord,
)
from repro.api.resilience import FaultInjector, RetryPolicy
from repro.api.runner import iter_results, run
from repro.api.specs import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    AssaySpec,
    CalibrationSpec,
    CellSpec,
    ChainSpec,
    ExecutionSpec,
    ExploreSpec,
    FleetSpec,
    InjectionEvent,
    PanelProtocolSpec,
    PlatformSpec,
    SweepSpec,
    canonical_payload,
    load_spec,
    spec_from_dict,
    spec_hash,
)
from repro.api.store import LocalDirDriver, RunStore, StorageDriver, StoreStats

__all__ = [
    "SCHEMA_VERSION", "SUPPORTED_SCHEMAS",
    # specs
    "AssaySpec", "FleetSpec", "SweepSpec", "CalibrationSpec",
    "PlatformSpec", "ExploreSpec",
    "CellSpec", "ChainSpec", "PanelProtocolSpec", "InjectionEvent",
    "ExecutionSpec",
    "spec_from_dict", "load_spec", "spec_hash", "canonical_payload",
    # records
    "RunRecord", "AssayRunRecord", "CachedAssayRecord", "FleetRunRecord",
    "CalibrationRunRecord", "PlatformRunRecord", "ExploreRunRecord",
    "StoredRunRecord", "FailedAssayRecord", "EngineStats",
    "ResilienceStats",
    # job-level pipeline
    "JobKey", "JobPlan",
    # execution backends + store
    "Executor", "InlineExecutor", "ProcessExecutor",
    "DistributedExecutor", "run_worker", "resolve_executor",
    "RunStore", "StoreStats", "StorageDriver", "LocalDirDriver",
    # resilience
    "RetryPolicy", "FaultInjector",
    # entry points
    "run", "iter_results",
]
