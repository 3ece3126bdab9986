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
   stack into ``(M, N)`` arrays and one small C kernel runs the
   forward and back substitutions over the whole batch, node by node
   with the systems in the inner loop.  It is compiled with the system
   ``cc`` on first import and cached beside the module's bytecode;
   without a compiler the same substitutions run as a Python-float
   sweep per system.  Both paths perform the scalar solve's operations
   in its order, so they agree bit for bit.  The same library compiles
   a whole CV segment (``redox_segment``, layer 3), and one handle
   (``tridiag._KERNEL``) switches both kernels on or off together.

3. **Batch steppers and the one stepping loop**
   (:mod:`repro.engine.batch`, :mod:`repro.engine.redox`,
   :mod:`repro.engine.mechanisms`).
   :class:`~repro.engine.batch.BatchCrankNicolson` stacks whole
   Crank-Nicolson steppers (padding unequal grids with decoupled
   identity rows); :class:`~repro.engine.redox.RedoxChannelBatch` fuses
   the oxidised + reduced fields of all CV/DPV channels into one
   ``(2M, N)`` solve per sample; and
   :class:`~repro.engine.mechanisms.MechanismBatch` does the same for
   chronoamperometric surface mechanisms.  Neither batch is stepped by
   a protocol: one loop in :mod:`repro.engine.scheduler`
   (``_solve_rows``) steps every engine row — a redox segment in one
   :meth:`~repro.engine.redox.RedoxChannelBatch.run` call, which is one
   compiled ``redox_segment`` call when the kernel is loaded, and a
   dwell segment one ``MechanismBatch`` step at a time — and every
   protocol reaches it through a
   :class:`~repro.engine.scheduler.DwellBatch` or
   :class:`~repro.engine.scheduler.SweepBatch` (a standalone
   chronoamperometry, CV or DPV run is a one-dwell or one-sweep batch).
   Identical matrices inside a batch
   (WEs sharing a grid/diffusivity/dt) are eliminated once and the sweep
   coefficients shared
   (:func:`~repro.engine.tridiag.factor_tridiagonal_shared`), and
   scalar steppers over the same (grid, D, dt, boundary) share one
   cached factorization outright.  Whole rows go one step further:
   the dwell and sweep batches key each row by every value its step
   reads, as exact bytes, solve one row per distinct key and fan its
   fluxes back out (:func:`~repro.engine.tridiag.first_occurrences`),
   so technical replicates in a fused fleet cost one row per distinct
   chemistry.
   The same keys address a cache layer in the run store: a
   store-backed scheduler pass serves every row the store already
   holds and steps only the rest, so a new seed over known chemistry
   solves nothing (:mod:`repro.engine.scheduler`).

4. **Cross-electrode dwell fusion** (:mod:`repro.engine.scheduler`).
   A panel's chronoamperometric dwells — one mechanism set per working
   electrode, heterogeneous grids included — stack into a single
   :class:`~repro.engine.scheduler.DwellBatch` that advances *every*
   electrode of a cell with one fused solve per time step (injection
   schedules drain the batch back, refresh the affected dwell, and
   rebuild).  :meth:`~repro.measurement.panel.PanelProtocol.run` is a
   one-job pass of layer 5's scheduler, so a single panel and a fleet
   member take the same route; its noise is drawn in the original
   electrode order from the budgets, lengths and rates the chain's
   :meth:`~repro.electronics.chain.AcquisitionChain.noise_source`
   gives, exactly as ``digitize`` draws it, so the RNG stream — and
   every result — matches the sequential per-WE reference
   (``batch_electrodes=False``) bit for bit; both paths end in the
   same :meth:`~repro.measurement.panel.PanelProtocol.assemble`.

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
   ``run_many`` is this stream drained into a ``FleetResult``.  Jobs
   that name the same cell, chain and protocol objects share one plan:
   each distinct ``(cell, chain, protocol)`` triple is planned once,
   its units join their groups once, and each solved row is digitised
   once per job that planned it.  :func:`repro.api.executors.solve`,
   which every backend's pass goes through, builds one such triple per
   distinct chemistry (an assay payload without ``name`` and ``seed``),
   so replicates cost one plan and per job only the noise draws,
   digitisation and assembly remain.

6. **The declarative spec/run front door** (:mod:`repro.api`, one layer
   above this package).  Versioned, JSON-round-trippable
   :class:`~repro.api.specs.AssaySpec` / :class:`~repro.api.specs.
   FleetSpec` (plus calibration / platform / explore kinds) describe
   work; one :func:`~repro.api.runner.run` entry point dispatches to the
   scheduler (a standalone assay is a one-job fleet), calibration,
   platform and explore paths and returns
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
   LRU eviction (``max_count``/``max_bytes``, by record file mtime)
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
   Python per sample; every dwell supplies that compiled form, so
   there is no per-sample fallback.  CV sweeps fuse *across cells*
   exactly like dwells:
   :meth:`~repro.measurement.panel.PanelProtocol.plan_sweeps` compiles
   each CYP WE into a :class:`~repro.measurement.voltammetry.CvSweep`
   (potential program, background currents, faradaic coefficients),
   and :class:`~repro.engine.scheduler.SweepBatch` stacks every
   compatible sweep's redox channels into one
   :class:`~repro.engine.redox.RedoxChannelBatch` driven by a
   per-system potential matrix — one fused solve per sample for the
   whole group, one group per sample rate (a shorter window's rows
   retire when its record ends).  Digitisation is fused too: the
   scheduler pre-draws each job's noise streams in electrode order off
   the job's own RNG, each WE's budget, length and rate resolved once
   per plan by
   :meth:`~repro.electronics.chain.AcquisitionChain.noise_source`
   (preserving the sequential draw sequence bit for bit), then calls
   :meth:`~repro.electronics.chain.AcquisitionChain.digitize_batch`
   once per (TIA, ADC) cluster of a fused group; ``digitize`` and
   ``digitize_batch`` share the chain's one 2-D transfer.  An opt-in
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
    :class:`~repro.api.store.StorageDriver`) of engine rows, so a row
    any worker has ever solved is a cluster-wide hit — a re-run
    performs zero engine solves no matter which workers serve it.  Job
    records stay with the submitter, as on every backend.

Equivalence guarantee
=====================

The batched path is not an approximation.  Per-row arithmetic keeps the
exact operation order of the scalar solver, the O(M) surface couplings
(Butler-Volmer rate constants, Michaelis-Menten relinearisation) are
computed with the same scalar ``math`` calls the reference simulators
use (the compiled redox segment calls libm's ``exp``, which is what
``math.exp`` calls), and padded nodes are provably decoupled — so an engine built from
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
    "DwellBatch",
    "SweepBatch",
    "AssayJob",
    "AssayScheduler",
    "FleetItem",
    "FleetResult",
]
