"""Batch-vectorized simulation engine — the platform's shared compute core.

Why this subsystem exists
=========================

Every measurement protocol in this library (cyclic voltammetry,
differential pulse voltammetry, chronoamperometry, and the multiplexed
multi-target panel built on them) bottoms out in the same numerical
kernel: advance a handful of independent 1-D Crank-Nicolson diffusion
systems by one time step and read each one's surface flux.  The seed
implementation ran that kernel as nested pure-Python loops — per sample,
per channel, per grid node — with the tridiagonal solver re-deriving its
forward-elimination coefficients on every call.  A production platform
serving many concurrent assays lives or dies on exactly this path, so
the engine restructures it in five layers:

1. **Prefactored Thomas solves** (:mod:`repro.engine.tridiag`).  The
   elimination coefficients depend only on the matrix, never on the
   right-hand side; :func:`~repro.engine.tridiag.factor_tridiagonal`
   runs the elimination once and
   :meth:`~repro.engine.tridiag.TridiagonalFactorization.solve` reuses
   it for every step of a run.

2. **Batched tridiagonal sweeps** (same module).  M independent systems
   stack into ``(M, N)`` arrays and the forward/backward recurrences
   vectorise across the batch: one numpy operation per grid node
   advances *every* channel, instead of one Python iteration per node
   per channel.

3. **Batch steppers and the protocol facade**
   (:mod:`repro.engine.batch`, :mod:`repro.engine.redox`,
   :mod:`repro.engine.mechanisms`, :mod:`repro.engine.simulation`).
   :class:`~repro.engine.batch.BatchCrankNicolson` stacks whole
   Crank-Nicolson steppers (padding unequal grids with decoupled
   identity rows); :class:`~repro.engine.redox.RedoxChannelBatch` fuses
   the oxidised + reduced fields of all CV/DPV channels into one
   ``(2M, N)`` solve per sample;
   :class:`~repro.engine.mechanisms.MechanismBatch` does the same for
   chronoamperometric surface mechanisms; and
   :class:`~repro.engine.simulation.SimulationEngine` is the single
   front door the protocols call.  Identical matrices inside a batch
   (WEs sharing a grid/diffusivity/dt) are eliminated once and the sweep
   coefficients shared
   (:func:`~repro.engine.tridiag.factor_tridiagonal_shared`), and
   scalar steppers over the same (grid, D, dt, boundary) share one
   cached factorization outright.

4. **Cross-electrode dwell fusion** (:mod:`repro.engine.scheduler`).
   A panel's chronoamperometric dwells — one mechanism set per working
   electrode, heterogeneous grids included — stack into a single
   :class:`~repro.engine.scheduler.DwellBatch`:
   :class:`~repro.measurement.panel.PanelProtocol` advances *every*
   electrode of a cell with one fused solve per time step (injection
   schedules drain the batch back, refresh the affected dwell, and
   rebuild), then digitises per WE in the original electrode order so
   the RNG stream — and every result — matches the sequential path bit
   for bit.

5. **Multi-assay fleet scheduling** (same module).
   :class:`~repro.engine.scheduler.AssayScheduler` accepts N
   ``(cell, chain)`` jobs (:class:`~repro.engine.scheduler.AssayJob`),
   groups compatible dwells *across cells* into fused
   :class:`~repro.engine.scheduler.DwellBatch` solves, interleaves the
   CV sweeps in job order, and assembles one per-job
   :class:`~repro.measurement.panel.PanelResult` each
   (:class:`~repro.engine.scheduler.FleetResult`) — the many-concurrent-
   assays workload of the ROADMAP served by one shared compute core.
   :meth:`~repro.engine.scheduler.AssayScheduler.run_iter` is the
   streaming form: dwell groups are simulated lazily and one
   :class:`~repro.engine.scheduler.FleetItem` is yielded per job, in
   job order, as each assay's dwells drain from the fused batches —
   ``run_many`` is this stream drained into a ``FleetResult``.

6. **The declarative spec/run front door** (:mod:`repro.api`, one layer
   above this package).  Versioned, JSON-round-trippable
   :class:`~repro.api.specs.AssaySpec` / :class:`~repro.api.specs.
   FleetSpec` (plus calibration / platform / explore kinds) describe
   work; one :func:`~repro.api.runner.run` entry point dispatches to the
   protocol, scheduler, calibration and platform paths and returns
   :class:`~repro.api.records.RunRecord` objects carrying the result
   plus provenance — spec hash, schema version, seed, wall time, and
   this engine's fusion statistics.  :func:`~repro.api.runner.
   iter_results` exposes layer 5's ``run_iter`` stream as per-job
   records.  The CLI and examples describe all work as specs; the
   class-level protocol entry points below remain the documented escape
   hatch, pinned bit-identical to the spec paths.

7. **Pluggable execution backends and the run store**
   (:mod:`repro.api.executors`, :mod:`repro.api.store`).  *How* a fleet
   executes is an :class:`~repro.api.executors.Executor` plugged in
   behind the front door, and every shipped executor is one execution
   core over a small transport:
   :class:`~repro.api.executors.InlineExecutor` runs layer 5's fused
   pass in the calling thread (the bit-identical reference) and
   :class:`~repro.api.executors.ProcessExecutor` runs the fleet's units
   on worker-process slots — each slot rebuilds its unit from canonical
   assay payloads and runs its own fused ``run_iter``, and the core
   merges completions in job order, so results are bit-identical to
   inline on every backend (only wall time and fusion statistics
   reflect the sharding).  Backends are declared in the
   fleet spec's ``execution`` block or passed as ``run(spec,
   backend=...)``.  Orthogonally, :class:`~repro.api.store.RunStore`
   memoises whole runs content-addressed by spec hash — a repeated
   ``run(spec, store=...)`` returns the stored record (``cached=True``)
   without touching this engine at all — and the ``sweep`` spec kind
   compiles parameter grids into fleets so parameter studies flow
   through the same backends and store.

8. **Job-level caching** (:mod:`repro.api.jobs`, threaded through the
   runner, both executors and the store).  The cacheable unit of work
   is the individual assay *job*: :class:`~repro.api.jobs.JobKey`
   content-addresses each job by SHA-256 over its canonical assay
   payload (seed and injection schedules included), and
   :class:`~repro.api.jobs.JobPlan` splits a fleet into warm store
   hits and engine misses *before* anything is scheduled or sharded.
   Per-job store records persist every sample array, so a hit
   rehydrates a live, bit-identical
   :class:`~repro.measurement.panel.PanelResult`
   (:class:`~repro.api.records.CachedAssayRecord`); only the miss
   fleet reaches layer 5's ``run_iter`` — on any backend — and cached
   + fresh records are re-merged in job order, bit-identical to the
   uncached stream.  A sweep sharing 90 of 100 grid points with an
   earlier study therefore simulates only the 10 new points, and a
   fully warm re-run performs **zero** engine solves — observable, and
   pinned in tests, via ``EngineStats.n_solve_steps`` (this package
   counts its fused dwell solves in
   :attr:`~repro.engine.scheduler.DwellBatch.n_solve_steps` /
   :class:`~repro.engine.scheduler.FleetItem`).  The store adds
   LRU eviction (``max_count``/``max_bytes``, an ``index.json`` clock)
   and :class:`~repro.api.store.StoreStats` hit/miss/eviction counters
   surfaced in record provenance and the CLI ``cache stats``
   subcommand.

9. **Precompiled step programs and cross-cell CV fusion** (round 2 of
   :mod:`repro.engine.scheduler` and the batch steppers).  The per-step
   Python branching of layers 3-5 is compiled away before the time
   loop: :class:`~repro.engine.mechanisms.MechanismBatch` precomputes
   its film/sink index arrays and kinetic constants once and steps as a
   handful of vectorised array expressions;
   :class:`~repro.engine.scheduler.DwellBatch` compiles each fused
   group's injection schedule into a step→events program and assembles
   current rows segment-at-a-time from precomputed per-mechanism
   coefficients (:meth:`~repro.measurement.chronoamperometry.
   ChronoDwell.current_coefficients`) instead of calling back into
   Python per sample.  CV sweeps, previously simulated per WE inside
   each job, now fuse *across cells* exactly like dwells:
   :meth:`~repro.measurement.panel.PanelProtocol.plan_sweeps` compiles
   each CYP WE into a :class:`~repro.measurement.voltammetry.CvSweep`
   (potential program, background currents, faradaic coefficients),
   and :class:`~repro.engine.scheduler.SweepBatch` stacks every
   compatible sweep's redox channels into one
   :class:`~repro.engine.redox.RedoxChannelBatch` driven by a
   per-system potential matrix — one fused solve per sample for the
   whole group.  Digitisation is fused too: the scheduler pre-draws
   each job's noise streams in electrode order off the job's own RNG
   (preserving the sequential draw sequence bit for bit), then calls
   :meth:`~repro.electronics.chain.AcquisitionChain.digitize_batch`
   once per (TIA, ADC) cluster of a fused group.  An opt-in
   *screening* profile (``PanelProtocol(screening=True)``, surfaced as
   ``AssaySpec.screening`` / ``run(spec, screening=True)`` /
   ``--screening``) trades grid resolution for throughput on the same
   fused paths; it is provenance-flagged and content-addressed apart
   from full-fidelity runs, and never the default.

10. **Fault-tolerant supervision** (:func:`repro.api.executors.
    run_units`, :mod:`repro.api.resilience`, above this package).  The
    execution core assumes workers can die, on every backend alike: a
    :class:`~repro.api.resilience.RetryPolicy` (attempt budget,
    per-unit timeout, seeded exponential backoff) bounds how often the
    core re-queues the surviving jobs of a crashed, hung or failing
    unit at finer granularity, while ``on_error="partial"`` degrades
    exhausted jobs to :class:`~repro.api.records.FailedAssayRecord`
    entries instead of aborting the fleet.  A conformance matrix pins
    the same records, error class and retry counters per fault on all
    three backends.  Nothing in *this* package changes: every
    retry rebuilds its jobs from canonical assay payloads and re-runs
    layer 5's fused ``run_iter`` with fresh seeded RNGs, so a
    supervised (even deliberately faulted) run is bit-identical to a
    fault-free one — the equivalence guarantee below extends through
    worker death.  The run store seals each record's bytes with a
    SHA-256 digest, checked before parsing, and quarantines corrupt
    files as misses; a seeded
    :class:`~repro.api.resilience.FaultInjector` (``REPRO_FAULTS``)
    drives worker crashes, hangs, transient errors and store
    corruption deterministically in CI.

11. **Correctness tooling** (:mod:`repro.devtools`, above this
    package).  The invariants the layers above rely on — randomness
    only from explicitly seeded generators (layer 5's bit-identical
    replay), the closed :class:`~repro.errors.ReproError` taxonomy,
    lock-guarded shared state in the store and service registries,
    and the versioned round-trippable spec surface — are enforced
    *statically* by a stdlib-``ast`` lint pass (``repro lint``,
    rules REP001–REP006) that runs over every source file in CI.
    Runtime tests prove the contracts hold on exercised paths; the
    linter proves new code cannot quietly opt out of them.

12. **Distributed execution over a shared store**
    (:mod:`repro.api.distributed`, :mod:`repro.api.store` round 2,
    above this package).  The third executor,
    :class:`~repro.api.distributed.DistributedExecutor`, is the
    layer-10 core over a file queue, decoupling submission from
    capacity: each unit becomes a claimable task file in a queue
    directory, and any number of independent ``repro worker``
    processes — started before or after the run, on any host sharing
    the file system, retired by a stop file — claim units atomically
    (``os.O_EXCL``), run layer 5's fused ``run_iter``, and write
    results back for the core to merge in job order, bit-identical to
    inline.  A claim's mtime is a per-job progress heartbeat, so a
    crashed or wedged worker is detected by staleness and its unit
    re-queued under the layer-10 retry budget.  Workers share one
    :class:`~repro.api.store.RunStore`
    (its persistence seam is now a pluggable
    :class:`~repro.api.store.StorageDriver`), so a job any worker has
    ever solved is a cluster-wide cache hit — a fully warm fleet
    performs zero engine solves no matter which workers serve it —
    and idle workers speculatively prefetch the next grid point of
    the last sweep axis (opt-in ``execution: {"prefetch": true}``),
    warming the store for the widened re-sweep a parameter study
    runs next.

Equivalence guarantee
=====================

The batched path is not an approximation.  Per-row arithmetic keeps the
exact operation order of the scalar solver, the O(M) surface couplings
(Butler-Volmer rate constants, Michaelis-Menten relinearisation) are
computed with the same scalar ``math`` calls the reference simulators
use, and padded nodes are provably decoupled — so an engine built from
scalar channel objects reproduces their trajectories bit for bit, and
the acceptance bar of 1e-12 relative agreement holds trivially.  The
scalar classes remain in place as the reference implementation;
``tests/test_engine.py`` pins the equivalence and
``benchmarks/bench_engine_throughput.py`` tracks the speedup.

Sign conventions
================

The engine inherits the library-wide conventions unchanged:

- *Surface flux* is the rate at which the electrode reaction **removes**
  a species from solution, mol/(m^2 s); negative values inject it
  (:mod:`repro.chem.diffusion`).
- *Redox channel flux* (:class:`~repro.engine.redox.RedoxChannelBatch`)
  is the net **reduction** flux J, positive when the oxidised form is
  consumed; the faradaic current contribution of channel j is
  ``-n_j * F * area * J_j`` (cathodic currents negative).
- *Mechanism fluxes* (:class:`~repro.engine.mechanisms.MechanismBatch`)
  are consumption rates in each mechanism's own convention; pair them
  with ``mechanism.current(area, flux)``, which applies the anodic (+1)
  or cathodic (-1) sign.

Import order note: :mod:`repro.chem.diffusion` imports
:mod:`repro.engine.tridiag`, and :mod:`repro.engine.redox` imports
:mod:`repro.chem.constants` — keep the dependency-free numerical modules
(tridiag, batch) imported before the chemistry-aware ones below so both
import directions resolve cleanly.
"""

from repro.engine.tridiag import (
    TridiagonalFactorization,
    batch_thomas_solve,
    factor_tridiagonal,
    factor_tridiagonal_shared,
)
from repro.engine.batch import BatchCrankNicolson
from repro.engine.mechanisms import MechanismBatch
from repro.engine.redox import RedoxChannelBatch
from repro.engine.simulation import SimulationEngine
from repro.engine.scheduler import (
    AssayJob,
    AssayScheduler,
    DwellBatch,
    FleetItem,
    FleetResult,
    SweepBatch,
)

__all__ = [
    "TridiagonalFactorization",
    "factor_tridiagonal",
    "factor_tridiagonal_shared",
    "batch_thomas_solve",
    "BatchCrankNicolson",
    "RedoxChannelBatch",
    "MechanismBatch",
    "SimulationEngine",
    "DwellBatch",
    "SweepBatch",
    "AssayJob",
    "AssayScheduler",
    "FleetItem",
    "FleetResult",
]
