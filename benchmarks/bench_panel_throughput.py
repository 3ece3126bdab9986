"""P1 — panel/fleet throughput: sequential per-WE panels vs the fused
cross-electrode scheduler.

The platform exists to run many multiplexed assays concurrently; this
bench measures that workload end to end.  A fleet of N identical
metabolite cells — glucose, lactate and glutamate oxidase WEs plus a
blank, with dopamine in the sample so even the blank carries chemistry —
runs through two implementations:

- **sequential** — PR 1's `PanelProtocol` reference path
  (``batch_electrodes=False``): one engine per working electrode, one
  cell after another;
- **fleet scheduler** — :class:`repro.engine.scheduler.AssayScheduler`:
  every chronoamperometric dwell of every cell fused into one
  :class:`~repro.engine.scheduler.DwellBatch` solve per time step,
  digitised per WE afterwards in the original per-job electrode order.

Both produce bit-identical :class:`~repro.measurement.panel.PanelResult`
records (same per-job RNG streams); the acceptance bar is >= 5x
assays/sec for the scheduler on the 16-cell fleet (raised from 3x when
the precompiled step programs landed; measured ~10x).

The N identical cells are technical replicates, and the fused batches
solve each distinct chemistry once (``n_solved_systems`` against
``n_fused_dwell_systems``), so that fleet's speedup is mostly
deduplication.  A **distinct-chemistry fleet** keeps fusion honest: the
same cells with a per-cell loading of every species and a larger blank,
so no two engine rows are equal (``n_solved_systems ==
n_fused_dwell_systems``), timed against its own sequential reference
under the same >= 5x bar.

The bench also has a **backend axis**: the same spec-level fleet runs
through :class:`repro.api.executors.InlineExecutor` (one fused pass in
this process) and :class:`repro.api.executors.ProcessExecutor`
(sharded across worker processes).  Results must again be bit-identical
(<= 1e-12 relative deviation); the acceptance bar is >= 2x assays/sec
for the process backend with 4 workers on the 16-cell fleet — enforced
only when the host actually has the cores, since multi-process scaling
on a 1-core box is physically impossible.  The process and distributed
axes shard the fleet *before* fusing, so replicate cells split across
shards and each shard solves its own copy of the shared chemistry: the
inline pass gains more from deduplication than the sharded ones, and
those axes are reported as measured.  Everything is written to
both the human-readable report and ``BENCH_panel.json``.

A third **store axis** measures the job-level cache against an honest
baseline: the same sweep runs uncached (no store at all), cold with
store writes (every grid point simulated and persisted) and warm (every
grid point rehydrated from the per-job store).  The warm pass must be
bit-identical and perform zero fused engine solves
(``EngineStats.n_solve_steps == 0``).  Three figures carry bars: warm
vs uncached (>= 5x), cold-with-write vs uncached (<= 1.2x) and stored
bytes per record (<= 1/3 of what the all-JSON record format wrote for
the same sweep).  Wall and CPU seconds of each pass go into
``BENCH_panel.json``.  The cold pass also writes the engine row records
beneath the jobs (the store's chemistry layer); they are reported on a
line of their own and stay out of the per-record bytes.

A **store-size axis** times one pass of a fresh store handle — one
``get_row`` hit and one ``put_row`` inside ``batched()`` — over a store
of 100 row records and one of 20,000 (2,000 in quick mode).  The pass
touches two records and one counter file, so the large store's pass
must stay within 2x of the small one's.  The axis also reports one
fresh-handle ``stats()`` per size, ungated: its footprint is a listing
of every record, so it grows with the store, and a store-backed
``api.run`` calls it twice.

A fourth **CV-fusion axis** (PR 6) times a fleet of paper-panel cells —
mixed chronoamperometric and cyclic-voltammetry electrodes — through
the per-cell batched path (CV sweeps simulated one WE at a time inside
each job) versus the fleet scheduler, whose
:class:`~repro.engine.scheduler.SweepBatch` fuses every compatible CV
sweep across cells into one engine and digitises each fused group in
one :meth:`~repro.electronics.chain.AcquisitionChain.digitize_batch`
call per (TIA, ADC) cluster and record length.  Both CYP windows of the
panel share one sample rate, so they fuse into a single group (the
shorter record's rows retire when it ends).  Results are bit-identical;
the fused pass must not fall behind per-cell batching (quick) / beat it
(full).

A fifth **service axis** measures diagnostics-as-a-service: an
in-process :class:`~repro.service.server.DiagnosticsServer` takes 32
concurrent small-fleet submissions from threaded
:class:`~repro.service.client.ServiceClient`\\ s against a warm store —
sustained requests/sec and p50/p95 submission latency are the service
overhead (HTTP, queueing, fair scheduling, store replay) since every
run is a cache hit.  Alongside it, worker reuse is priced directly: N
consecutive small fleets through one reused ``ProcessExecutor`` (its
worker slots spawned once) versus a fresh executor per run — reuse
must be >= 1.5x, with host metadata (cores, start method) recorded
since the spawn cost being amortised is platform-dependent.

Smoke mode: set ``REPRO_BENCH_QUICK=1`` (tier-1 CI does, through
``tests/test_scheduler.py``) to shrink the fleet and dwell so the bench
doubles as a fast regression gate on the batched path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np

from repro.data.catalog import build_oxidase, table1_working_electrode
from repro.engine import AssayJob, AssayScheduler
from repro.io.tables import render_table
from repro.measurement.panel import PanelProtocol
from repro.sensors.cell import ElectrochemicalCell
from repro.sensors.electrode import Electrode, ElectrodeRole, WorkingElectrode
from repro.sensors.functionalization import blank, with_oxidase
from repro.sensors.materials import get_material
from repro.chem.solution import Chamber
from repro.data import bench_chain

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

N_CELLS = 4 if QUICK else 16
CA_DWELL = 10.0 if QUICK else 30.0
SAMPLE_RATE = 10.0
MIN_SPEEDUP = 1.0 if QUICK else 5.0

# Backend axis: the api-level fleet through inline vs process executors.
N_CELLS_BACKEND = 2 if QUICK else 16
N_WORKERS = 2 if QUICK else 4

# Store axis: a parameter sweep uncached, cold with writes and warm
# against a per-job store; each pass timed best of N_STORE_REPEATS.
N_SWEEP_POINTS = 2 if QUICK else 8
SWEEP_CA_DWELL = 5.0 if QUICK else 15.0
N_STORE_REPEATS = 1 if QUICK else 5
# Bytes per record the all-JSON record format (pretty-printed JSON with
# an integrity section) stored for this sweep, measured with that
# format's writer; the sealed container must need at most a third.
JSON_FORMAT_BYTES_PER_RECORD = 175_826 if QUICK else 202_074
MAX_STORE_BYTES_RATIO = 1.0 / 3.0
# The timing bars are enforced on the full sweep; the quick smoke's
# two short points leave fixed costs dominant, so it gates loosely.
MIN_WARM_SPEEDUP = 2.0 if QUICK else 5.0
MAX_WRITE_OVERHEAD = 2.0 if QUICK else 1.2
# Store-size axis: the median of N_SIZE_PASSES fresh-handle passes per
# store size; a pass takes about a millisecond, so it needs many.
STORE_SIZES = (100, 2_000 if QUICK else 20_000)
N_SIZE_PASSES = 31
MAX_SIZE_GROWTH = 2.0
N_STATS_CALLS = 5

# CV-fusion axis: mixed CA + CV paper-panel cells, per-cell batched vs
# the cross-cell fused scheduler.
N_CELLS_CV = 2 if QUICK else 8
CV_CA_DWELL = 5.0 if QUICK else 15.0
MIN_CV_SPEEDUP = 0.8 if QUICK else 2.0
# Process sharding can only beat inline when the cores exist, and on
# spawn-start platforms each timed run pays worker re-import costs the
# warm-up cannot amortise; the parity bar (bit-identical results) is
# enforced unconditionally, the speedup bar only where it is fair.
MIN_BACKEND_SPEEDUP = (
    2.0 if not QUICK and (os.cpu_count() or 1) >= N_WORKERS
    and multiprocessing.get_start_method(allow_none=False) == "fork"
    else 0.0)
# Service axis: concurrent submissions against a warm store, and a
# reused executor against a fresh executor per run.  The tiny dwell
# makes per-run engine work small, and the multi-slot executor
# multiplies the per-run spawn cost — exactly what reuse amortises — so
# the measured ratio is dominated by the fixed cost and stable against
# scheduling noise.
N_SERVICE_SUBMISSIONS = 8 if QUICK else 32
N_POOL_RUNS = 4 if QUICK else 8
N_POOL_WORKERS = 2 if QUICK else 4
SERVICE_CA_DWELL = 1.0
# The >= 1.5x reuse bar is enforced where the host can actually express
# it: with >= N_POOL_WORKERS cores the engine work runs in parallel in
# both legs and the measured ratio is dominated by the per-run spawn
# fixed cost reuse amortises.  On core-starved hosts the serialized
# engine work dilutes the ratio, so only a regression floor applies
# (the full bar stays recorded in the JSON).
MIN_REUSE_SPEEDUP = (
    1.5 if not QUICK and (os.cpu_count() or 1) >= N_POOL_WORKERS
    else (1.0 if QUICK else 1.1))
# Distributed axis: the same fleet through a shared queue directory
# served by 1/2/4 detached `repro worker` processes.  Workers are
# persistent capacity — they are spawned (and have printed their ready
# line) before the clock starts, so the timed quantity is
# submit-to-merge.  The >= 1.5x bar (4 workers vs 1) is enforced where
# the cores exist; the parity bar is unconditional.
N_CELLS_DIST = 2 if QUICK else 16
DIST_WORKER_COUNTS = (1,) if QUICK else (1, 2, 4)
MIN_DIST_SPEEDUP = (
    1.5 if not QUICK and (os.cpu_count() or 1) >= max(DIST_WORKER_COUNTS)
    else 0.0)

_OXIDASE_TARGETS = ("glucose", "lactate", "glutamate")


def build_fleet(n_cells: int, distinct: bool = False) -> list[AssayJob]:
    """N metabolite cells, each with 3 oxidase WEs + 1 blank WE.

    ``distinct`` scales every species' loading per cell and gives the
    blank its own size (at the first oxidase WE's potential it would
    otherwise repeat that WE's dopamine row), so no two engine rows are
    equal; otherwise the cells are replicates.
    """
    jobs = []
    for k in range(n_cells):
        scale = 1.0 + 0.05 * k if distinct else 1.0
        chamber = Chamber(name=f"fleet{k:02d}")
        for target in _OXIDASE_TARGETS:
            chamber.set_bulk(target, scale)
        # A direct oxidiser, so the blank carries chemistry too.
        chamber.set_bulk("dopamine", 0.2 * scale)
        wes = []
        for target in _OXIDASE_TARGETS:
            reference = table1_working_electrode(target)
            wes.append(WorkingElectrode(
                electrode=Electrode(
                    name=f"WE_{target}", role=ElectrodeRole.WORKING,
                    material=reference.material, area=reference.area),
                functionalization=with_oxidase(build_oxidase(target))))
        wes.append(WorkingElectrode(
            electrode=Electrode(name="WE_blank", role=ElectrodeRole.WORKING,
                                material=get_material("gold"),
                                area=wes[0].area * (1.5 if distinct
                                                    else 1.0)),
            functionalization=blank()))
        reference = Electrode(name="RE", role=ElectrodeRole.REFERENCE,
                              material=get_material("silver"),
                              area=wes[0].area)
        counter = Electrode(name="CE", role=ElectrodeRole.COUNTER,
                            material=get_material("gold"),
                            area=2.0 * wes[0].area)
        cell = ElectrochemicalCell(chamber=chamber, working_electrodes=wes,
                                   reference=reference, counter=counter)
        jobs.append(AssayJob(cell=cell, chain=bench_chain(seed=900 + k),
                             name=f"cell{k:02d}"))
    return jobs


def _seeded(jobs) -> list[AssayJob]:
    """Fresh per-job generators (generators are stateful; re-seed per run)."""
    return [replace(job, rng=np.random.default_rng(900 + k))
            for k, job in enumerate(jobs)]


def run_sequential(jobs) -> tuple[float, list]:
    """PR 1's reference path: one engine per WE, one cell at a time."""
    protocol = PanelProtocol(ca_dwell=CA_DWELL, sample_rate=SAMPLE_RATE,
                             batch_electrodes=False)
    jobs = _seeded(jobs)
    start = time.perf_counter()
    results = [protocol.run(job.cell, job.chain, rng=job.rng)
               for job in jobs]
    elapsed = time.perf_counter() - start
    return len(jobs) / elapsed, results


def run_fleet(jobs) -> tuple[float, list, "object"]:
    """The scheduler: every dwell of every cell in one fused batch."""
    scheduler = AssayScheduler(
        PanelProtocol(ca_dwell=CA_DWELL, sample_rate=SAMPLE_RATE))
    jobs = _seeded(jobs)
    start = time.perf_counter()
    fleet = scheduler.run_many(jobs)
    elapsed = time.perf_counter() - start
    return len(jobs) / elapsed, list(fleet.results), fleet


def max_relative_deviation(ref_results, got_results) -> float:
    """Worst per-sample deviation across every trace, voltammogram,
    readout and blank."""
    worst = 0.0
    for ref, got in zip(ref_results, got_results):
        for name, trace in ref.traces.items():
            other = got.traces[name]
            for a, b in ((trace.current, other.current),
                         (trace.true_current, other.true_current)):
                scale = float(np.max(np.abs(a))) or 1.0
                worst = max(worst, float(np.max(np.abs(a - b))) / scale)
        for name, gram in ref.voltammograms.items():
            other = got.voltammograms[name]
            for a, b in ((gram.current, other.current),
                         (gram.true_current, other.true_current)):
                scale = float(np.max(np.abs(a))) or 1.0
                worst = max(worst, float(np.max(np.abs(a - b))) / scale)
        for target, readout in ref.readouts.items():
            scale = abs(readout.signal) or 1.0
            worst = max(worst,
                        abs(readout.signal - got.readouts[target].signal)
                        / scale)
        if ref.blank_current is not None:
            scale = abs(ref.blank_current) or 1.0
            worst = max(worst, abs(ref.blank_current - got.blank_current)
                        / scale)
    return worst


def _fleet_vs_sequential(jobs) -> dict:
    """Time one fleet through both paths; compare their results."""
    seq_rate, seq_results = run_sequential(jobs)
    fleet_rate, fleet_results, fleet = run_fleet(jobs)
    return {"n_fused_dwells": fleet.n_fused_dwells,
            "n_solved_systems": fleet.n_solved_systems,
            "n_solve_steps": fleet.n_solve_steps,
            "sequential_rate": seq_rate,
            "fleet_rate": fleet_rate,
            "speedup": fleet_rate / seq_rate,
            "relative_deviation": max_relative_deviation(seq_results,
                                                         fleet_results)}


def run_experiment() -> dict:
    jobs = build_fleet(N_CELLS)
    # Warm-up on a small slice (allocators, factor caches) before timing.
    run_fleet(jobs[:1])
    run_sequential(jobs[:1])
    out = _fleet_vs_sequential(jobs)
    # Solve-step throughput of the fused path: the same logical step
    # count divided by each pass's wall time, so the smoke gate can pin
    # a *relative* fused-step floor that CI scheduling noise cannot
    # flake (the sequential path performs equivalent per-WE steps).
    out["fleet_steps_per_sec"] = (out["n_solve_steps"] * out["fleet_rate"]
                                  / N_CELLS)
    out["sequential_steps_per_sec"] = (out["n_solve_steps"]
                                       * out["sequential_rate"] / N_CELLS)
    out.update(n_cells=N_CELLS,
               n_wes=sum(len(j.cell.working_electrodes) for j in jobs),
               ca_dwell_s=CA_DWELL, quick=QUICK,
               distinct=_fleet_vs_sequential(
                   build_fleet(N_CELLS, distinct=True)))
    return out


def run_cv_fusion_experiment() -> dict:
    """Mixed CA + CV paper-panel cells: per-cell batched vs fused fleet."""
    from repro.data import paper_panel_cell

    protocol = PanelProtocol(ca_dwell=CV_CA_DWELL, sample_rate=SAMPLE_RATE)

    def build_jobs() -> list[AssayJob]:
        return [AssayJob(cell=paper_panel_cell(),
                         chain=bench_chain(seed=700 + k),
                         name=f"cv{k:02d}",
                         rng=np.random.default_rng(700 + k))
                for k in range(N_CELLS_CV)]

    # Warm-up both paths on one cell.
    warm = build_jobs()[:1]
    AssayScheduler(protocol).run_many(_cv_seeded(warm))
    [protocol.run(j.cell, j.chain, rng=j.rng) for j in _cv_seeded(warm)]

    jobs = build_jobs()
    start = time.perf_counter()
    per_cell = [protocol.run(job.cell, job.chain, rng=job.rng)
                for job in jobs]
    per_cell_s = time.perf_counter() - start

    jobs = build_jobs()
    start = time.perf_counter()
    fleet = AssayScheduler(protocol).run_many(jobs)
    fused_s = time.perf_counter() - start

    deviation = max_relative_deviation(per_cell, list(fleet.results))
    return {"n_cells": N_CELLS_CV,
            "ca_dwell_s": CV_CA_DWELL,
            "n_fused_sweeps": fleet.n_fused_sweeps,
            "n_sweep_groups": fleet.n_sweep_groups,
            "per_cell_rate": N_CELLS_CV / per_cell_s,
            "fused_rate": N_CELLS_CV / fused_s,
            "speedup": per_cell_s / fused_s,
            "relative_deviation": deviation}


def _cv_seeded(jobs) -> list[AssayJob]:
    return [replace(job, rng=np.random.default_rng(700 + k))
            for k, job in enumerate(jobs)]


def run_backend_experiment() -> dict:
    """The same paper-panel fleet through inline vs process backends."""
    import time

    from repro import api

    spec = api.FleetSpec.homogeneous(cells=N_CELLS_BACKEND, seed=900,
                                     ca_dwell=CA_DWELL)

    def timed(backend) -> tuple[float, list]:
        start = time.perf_counter()
        records = list(api.iter_results(spec, backend=backend))
        elapsed = time.perf_counter() - start
        return len(records) / elapsed, [r.result for r in records]

    # Warm-up on a one-cell fleet through *both* backends (allocators,
    # factor caches, and the OS page cache for worker imports).
    warm = api.FleetSpec.homogeneous(cells=1, seed=900, ca_dwell=CA_DWELL)
    list(api.iter_results(warm))
    with api.ProcessExecutor(workers=1) as backend:
        list(api.iter_results(warm, backend=backend))
    inline_rate, inline_results = timed(api.InlineExecutor())
    with api.ProcessExecutor(workers=N_WORKERS) as backend:
        process_rate, process_results = timed(backend)
    deviation = max_relative_deviation(inline_results, process_results)
    return {"n_cells": N_CELLS_BACKEND,
            "workers": N_WORKERS,
            "inline_rate": inline_rate,
            "process_rate": process_rate,
            "speedup": process_rate / inline_rate,
            "relative_deviation": deviation,
            "enforced_min_speedup": MIN_BACKEND_SPEEDUP,
            "host_cpus": os.cpu_count() or 1}


def run_store_experiment() -> dict:
    """A dose-response sweep uncached, cold with store writes, and warm
    against a per-job run store."""
    import tempfile
    import time
    from pathlib import Path

    from repro import api

    sweep = api.SweepSpec(
        name="bench-dose-response",
        base=api.AssaySpec(name="pt", seed=900,
                           chain=api.ChainSpec(seed=900),
                           protocol=api.PanelProtocolSpec(
                               ca_dwell=SWEEP_CA_DWELL)),
        grid={"seed": list(range(900, 900 + N_SWEEP_POINTS))})

    def timed(store) -> tuple[float, float, list]:
        start, cpu = time.perf_counter(), time.process_time()
        records = list(api.iter_results(sweep, store=store))
        return (time.perf_counter() - start, time.process_time() - cpu,
                records)

    passes = {"uncached": [], "cold_write": [], "warm": []}
    with tempfile.TemporaryDirectory() as root:
        for k in range(N_STORE_REPEATS):
            store = api.RunStore(Path(root) / f"store{k}")
            passes["uncached"].append(timed(None))
            passes["cold_write"].append(timed(store))
            written = store.stats()
            passes["warm"].append(timed(store))
        best = {name: min(runs, key=lambda run: run[0])
                for name, runs in passes.items()}
        uncached, warm = best["uncached"][2], best["warm"][2]
        deviation = max(
            max_relative_deviation([r.result for r in uncached],
                                   [r.result for r in records])
            for records in (best["cold_write"][2], warm))
        # A collected warm fleet exposes the live engine totals of the
        # pass: all-cached means zero fused engine solve steps.
        verify = api.run(api.SweepSpec(
            name="bench-dose-response-verify", base=sweep.base,
            grid=dict(sweep.grid)), store=store)
        stats = store.stats()
    bytes_per_record = written.bytes / written.records
    uncached_s = best["uncached"][0]
    return {"n_points": N_SWEEP_POINTS,
            "ca_dwell_s": SWEEP_CA_DWELL,
            "repeats": N_STORE_REPEATS,
            "wall_s": {name: run[0] for name, run in best.items()},
            "cpu_s": {name: run[1] for name, run in best.items()},
            "warm_speedup_vs_uncached": uncached_s / best["warm"][0],
            "write_overhead_vs_uncached": best["cold_write"][0] / uncached_s,
            "bytes_per_record": bytes_per_record,
            "bytes_ratio_vs_json_format": (bytes_per_record
                                           / JSON_FORMAT_BYTES_PER_RECORD),
            "warm_all_cached": all(r.cached for r in warm),
            "warm_solve_steps": verify.engine.n_solve_steps,
            "warm_fresh_jobs": sum(1 for r in warm if not r.cached),
            "relative_deviation": deviation,
            "store_bytes": stats.bytes,
            "store_hit_rate": stats.hit_rate,
            "row_records": written.row_records,
            "row_bytes": written.row_bytes}


def run_store_size_experiment() -> dict:
    """One fresh-handle ``get_row`` + ``put_row`` pass in ``batched()``,
    timed over stores of each of ``STORE_SIZES`` row records."""
    import tempfile
    from pathlib import Path

    from repro import api

    fluxes, state = np.zeros(4), {"c_ox": np.zeros(4)}

    def key(i: int) -> tuple[bytes, ...]:
        return (b"store-size-axis", i.to_bytes(8, "little"))

    times = {n: [] for n in STORE_SIZES}
    stats_times = {n: [] for n in STORE_SIZES}
    with tempfile.TemporaryDirectory() as root:
        for n in STORE_SIZES:
            filler = api.RunStore(Path(root) / f"store{n}")
            with filler.batched():
                for i in range(n):
                    filler.put_row(key(i), fluxes, state)
        # Alternate the sizes pass by pass, so a change in the host's
        # speed during the axis falls on both alike.
        for k in range(N_SIZE_PASSES):
            for n in STORE_SIZES:
                start = time.perf_counter()
                store = api.RunStore(Path(root) / f"store{n}")
                with store.batched():
                    assert store.get_row(key(k)) is not None
                    store.put_row(key(n + k), fluxes, state)
                times[n].append(time.perf_counter() - start)
                if k < N_STATS_CALLS:
                    start = time.perf_counter()
                    api.RunStore(Path(root) / f"store{n}").stats()
                    stats_times[n].append(time.perf_counter() - start)
    medians = {n: float(np.median(times[n])) for n in STORE_SIZES}
    small, large = STORE_SIZES
    return {"sizes": list(STORE_SIZES), "passes": N_SIZE_PASSES,
            "pass_s": {str(n): medians[n] for n in STORE_SIZES},
            "growth": medians[large] / medians[small],
            "stats_calls": N_STATS_CALLS,
            "stats_s": {str(n): float(np.median(stats_times[n]))
                        for n in STORE_SIZES}}


def run_distributed_experiment() -> dict:
    """The same fleet through the queue-backed distributed backend,
    served by 1/2/4 detached ``repro worker`` processes, then two warm
    cluster-wide re-runs against the shared store."""
    import subprocess
    import sys
    import tempfile
    import time
    from pathlib import Path

    from repro import api

    spec = api.FleetSpec.homogeneous(cells=N_CELLS_DIST, seed=910,
                                     ca_dwell=CA_DWELL)
    inline_results = [r.result for r in api.InlineExecutor().run_fleet(spec)]

    def spawn_workers(queue: Path, count: int) -> list:
        (queue / "stop").unlink(missing_ok=True)
        procs = []
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--queue", str(queue)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            ready = proc.stdout.readline()
            assert ready.startswith("repro worker: ready "), ready
            procs.append(proc)
        return procs

    def stop_workers(queue: Path, procs: list) -> None:
        # The stop file: each worker drains what is claimable and exits.
        (queue / "stop").touch()
        for proc in procs:
            proc.communicate(timeout=60)

    rates: dict[int, float] = {}
    deviation = 0.0
    with tempfile.TemporaryDirectory() as root:
        for count in DIST_WORKER_COUNTS:
            # A fresh queue (and store) per worker count keeps every
            # timed pass cold; only the final queue is re-run warm.
            queue = Path(root) / f"q{count}"
            procs = spawn_workers(queue, count)
            try:
                executor = api.DistributedExecutor(queue=queue,
                                                   workers=count)
                start = time.perf_counter()
                records = list(executor.run_fleet(spec))
                elapsed = time.perf_counter() - start
            finally:
                stop_workers(queue, procs)
            rates[count] = len(records) / elapsed
            deviation = max(deviation, max_relative_deviation(
                inline_results, [r.result for r in records]))
        # Warm cluster-wide re-runs: a *different* worker process, the
        # same shared store.  The workers kept only engine rows, so the
        # first store-backed run solves nothing and writes the job
        # records; the second is all cached by the submitter's plan.
        procs = spawn_workers(queue, 1)
        try:
            store = api.RunStore(queue / "store")
            executor = api.DistributedExecutor(
                queue=queue, workers=DIST_WORKER_COUNTS[-1])
            rows = list(api.iter_results(spec, backend=executor,
                                         store=store))
            warm = list(api.iter_results(spec, backend=executor,
                                         store=store))
        finally:
            stop_workers(queue, procs)
    low, high = DIST_WORKER_COUNTS[0], DIST_WORKER_COUNTS[-1]
    return {"n_cells": N_CELLS_DIST,
            "worker_counts": list(DIST_WORKER_COUNTS),
            "rates": {str(count): rates[count] for count in rates},
            "speedup": rates[high] / rates[low],
            "relative_deviation": deviation,
            "warm_all_cached": all(r.cached for r in warm),
            "warm_solve_steps": rows[-1].engine.n_solve_steps,
            "enforced_min_speedup": MIN_DIST_SPEEDUP,
            "host_cpus": os.cpu_count() or 1}


def run_service_experiment() -> dict:
    """The service layer under concurrent load, and a reused executor
    against a fresh executor per run."""
    import statistics
    import tempfile
    import threading
    import time

    from repro import api
    from repro.service import DiagnosticsServer, ServeSpec, ServiceClient

    # The reuse axis runs first, before this process has churned
    # through worker processes: spawn-per-run cost in a warm process
    # underestimates what a real spawn-per-run deployment pays, while a
    # server's executor spawns its slots exactly once either way.
    # Identical consecutive small fleets through one reused executor
    # (slots spawned once) vs a fresh executor each time.
    specs = [api.FleetSpec.homogeneous(cells=N_POOL_WORKERS,
                                       seed=820 + 10 * k,
                                       ca_dwell=SERVICE_CA_DWELL)
             for k in range(N_POOL_RUNS)]

    with api.ProcessExecutor(workers=N_POOL_WORKERS) as reused:
        list(api.iter_results(specs[0], backend=reused))  # spawn + warm
        start = time.perf_counter()
        for fleet_spec in specs:
            list(api.iter_results(fleet_spec, backend=reused))
        reused_s = time.perf_counter() - start

    def fresh_run(fleet_spec) -> None:
        with api.ProcessExecutor(workers=N_POOL_WORKERS) as fresh:
            list(api.iter_results(fleet_spec, backend=fresh))

    fresh_run(specs[0])  # warm the spawn path identically
    start = time.perf_counter()
    for fleet_spec in specs:
        fresh_run(fleet_spec)
    fresh_s = time.perf_counter() - start

    spec = api.FleetSpec.homogeneous(cells=1, seed=800,
                                     ca_dwell=SERVICE_CA_DWELL)
    latencies: list[float] = []
    statuses: list[str] = []
    lock = threading.Lock()
    with tempfile.TemporaryDirectory() as root:
        serve = ServeSpec(dispatchers=2, store=f"{root}/store")
        with DiagnosticsServer(serve) as server:
            # One cold pass warms the store and the HTTP path; every
            # measured submission is then a cache replay, so the
            # latencies are pure service overhead (HTTP, queueing, fair
            # scheduling, store rehydration).
            ServiceClient(server.port).submit(spec, wait=True)

            def one_submission(k: int) -> None:
                client = ServiceClient(server.port,
                                       api_key=f"client{k % 4}")
                start = time.perf_counter()
                status = client.submit(spec, wait=True)
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    statuses.append(status["status"])

            threads = [threading.Thread(target=one_submission, args=(k,))
                       for k in range(N_SERVICE_SUBMISSIONS)]
            wall = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall
            stats = server.runtime.stats()

    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p95 = ordered[min(len(ordered) - 1, int(round(0.95 * len(ordered))))]

    return {"n_submissions": N_SERVICE_SUBMISSIONS,
            "dispatchers": serve.dispatchers,
            "ca_dwell_s": SERVICE_CA_DWELL,
            "statuses": statuses,
            "sustained_rps": N_SERVICE_SUBMISSIONS / wall,
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "store_hits": stats["store"]["hits"],
            "rejected": sum(row["rejected"]
                            for row in stats["usage"].values()),
            "pool_runs": N_POOL_RUNS,
            "pool_workers": N_POOL_WORKERS,
            "reused_s": reused_s,
            "fresh_s": fresh_s,
            "reuse_speedup": fresh_s / reused_s,
            "host_cpus": os.cpu_count() or 1,
            "start_method": multiprocessing.get_start_method()}


def test_panel_throughput(benchmark, report, json_report):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    distinct = out["distinct"]
    # The service axis runs before the other pool-creating axes: its
    # spawn-per-run leg must pay the pool cost a fresh deployment pays,
    # not the discounted cost of a process that has churned pools.
    service = run_service_experiment()
    distributed = run_distributed_experiment()
    backends = run_backend_experiment()
    store_axis = run_store_experiment()
    size_axis = run_store_size_experiment()
    cv_axis = run_cv_fusion_experiment()
    json_report("panel", {
        "bench": "panel_throughput",
        "workload": (f"{out['n_cells']}-cell fleet, {out['n_wes']} WEs, "
                     f"{out['ca_dwell_s']:g} s dwell"),
        "quick_mode": out["quick"],
        "n_fused_dwell_systems": out["n_fused_dwells"],
        "n_solved_systems": out["n_solved_systems"],
        "n_solve_steps": out["n_solve_steps"],
        "fused_steps_per_sec": out["fleet_steps_per_sec"],
        "assays_per_sec": {"sequential_panel": out["sequential_rate"],
                           "fleet_scheduler": out["fleet_rate"]},
        "speedup_vs_sequential": out["speedup"],
        "max_relative_deviation": out["relative_deviation"],
        "acceptance": {"min_speedup": MIN_SPEEDUP,
                       "max_deviation": 1.0e-12},
        "distinct_chemistry": {
            "workload": (f"{out['n_cells']}-cell fleet, per-cell loading "
                         f"of every species, {out['ca_dwell_s']:g} s dwell"),
            "n_fused_dwell_systems": distinct["n_fused_dwells"],
            "n_solved_systems": distinct["n_solved_systems"],
            "assays_per_sec": {
                "sequential_panel": distinct["sequential_rate"],
                "fleet_scheduler": distinct["fleet_rate"]},
            "speedup_vs_sequential": distinct["speedup"],
            "max_relative_deviation": distinct["relative_deviation"],
            "acceptance": {"min_speedup": MIN_SPEEDUP,
                           "max_deviation": 1.0e-12,
                           "n_solved_systems": "== n_fused_dwell_systems"}},
        "cv_fusion": {
            "workload": (f"{cv_axis['n_cells']}-cell paper-panel fleet, "
                         f"{cv_axis['ca_dwell_s']:g} s dwell, mixed CA+CV"),
            "n_fused_sweeps": cv_axis["n_fused_sweeps"],
            "n_sweep_groups": cv_axis["n_sweep_groups"],
            "assays_per_sec": {"per_cell_batched": cv_axis["per_cell_rate"],
                               "fused_fleet": cv_axis["fused_rate"]},
            "fused_speedup_vs_per_cell": cv_axis["speedup"],
            "max_relative_deviation": cv_axis["relative_deviation"],
            "acceptance": {"min_speedup": MIN_CV_SPEEDUP,
                           "max_deviation": 1.0e-12,
                           "n_sweep_groups": 1}},
        "backends": {
            "workload": (f"{backends['n_cells']}-cell paper-panel fleet, "
                         f"{backends['workers']} workers"),
            "host_cpus": backends["host_cpus"],
            "assays_per_sec": {"inline": backends["inline_rate"],
                               "process": backends["process_rate"]},
            "process_speedup_vs_inline": backends["speedup"],
            "max_relative_deviation": backends["relative_deviation"],
            "acceptance": {
                "min_speedup": 2.0,
                "enforced_min_speedup": backends["enforced_min_speedup"],
                "max_deviation": 1.0e-12},
        },
        "store": {
            "workload": (f"{store_axis['n_points']}-point dose-response "
                         f"sweep, {store_axis['ca_dwell_s']:g} s dwell"),
            "repeats": store_axis["repeats"],
            "wall_s": store_axis["wall_s"],
            "cpu_s": store_axis["cpu_s"],
            "warm_speedup_vs_uncached":
                store_axis["warm_speedup_vs_uncached"],
            "write_overhead_vs_uncached":
                store_axis["write_overhead_vs_uncached"],
            "bytes_per_record": store_axis["bytes_per_record"],
            "json_format_bytes_per_record": JSON_FORMAT_BYTES_PER_RECORD,
            "bytes_ratio_vs_json_format":
                store_axis["bytes_ratio_vs_json_format"],
            "warm_all_cached": store_axis["warm_all_cached"],
            "warm_solve_steps": store_axis["warm_solve_steps"],
            "max_relative_deviation": store_axis["relative_deviation"],
            "store_bytes": store_axis["store_bytes"],
            "store_hit_rate": store_axis["store_hit_rate"],
            "row_records": store_axis["row_records"],
            "row_bytes": store_axis["row_bytes"],
            "acceptance": {"min_warm_speedup_vs_uncached": 5.0,
                           "max_write_overhead_vs_uncached": 1.2,
                           "max_bytes_ratio_vs_json_format":
                               MAX_STORE_BYTES_RATIO,
                           "enforced_min_warm_speedup": MIN_WARM_SPEEDUP,
                           "enforced_max_write_overhead":
                               MAX_WRITE_OVERHEAD,
                           "warm_solve_steps": 0,
                           "max_deviation": 0.0},
        },
        "store_size": {
            "workload": ("one fresh-handle get_row + put_row pass in "
                         "batched(), by store size in row records"),
            "passes": size_axis["passes"],
            "pass_s": size_axis["pass_s"],
            "growth": size_axis["growth"],
            "acceptance": {"max_growth": MAX_SIZE_GROWTH},
            "stats_calls": size_axis["stats_calls"],
            "stats_s": size_axis["stats_s"],
        },
        "service": {
            "workload": (f"{service['n_submissions']} concurrent 1-cell "
                         f"submissions, {service['dispatchers']} "
                         f"dispatchers, warm store"),
            "host_cpus": service["host_cpus"],
            "start_method": service["start_method"],
            "sustained_rps": service["sustained_rps"],
            "latency_p50_s": service["latency_p50_s"],
            "latency_p95_s": service["latency_p95_s"],
            "store_hits": service["store_hits"],
            "executor_reuse": {
                "runs": service["pool_runs"],
                "workers": service["pool_workers"],
                "reused_executor_s": service["reused_s"],
                "fresh_executor_per_run_s": service["fresh_s"],
                "reuse_speedup": service["reuse_speedup"]},
            "acceptance": {"min_reuse_speedup": 1.5,
                           "enforced_min_reuse_speedup": MIN_REUSE_SPEEDUP},
        },
        "distributed": {
            "workload": (f"{distributed['n_cells']}-cell paper-panel "
                         f"fleet, shared queue, "
                         f"{distributed['worker_counts']} worker "
                         f"processes"),
            "host_cpus": distributed["host_cpus"],
            "assays_per_sec": distributed["rates"],
            "scaling_speedup": distributed["speedup"],
            "max_relative_deviation": distributed["relative_deviation"],
            "warm_all_cached": distributed["warm_all_cached"],
            "warm_solve_steps": distributed["warm_solve_steps"],
            "acceptance": {
                "min_speedup": 1.5,
                "enforced_min_speedup":
                    distributed["enforced_min_speedup"],
                "max_deviation": 1.0e-12,
                "warm_solve_steps": 0},
        },
    })
    report(render_table(
        ["implementation", "assays/sec"],
        [["sequential PanelProtocol (per-WE engines)",
          f"{out['sequential_rate']:.2f}"],
         ["AssayScheduler (fused dwell batch)",
          f"{out['fleet_rate']:.2f}"]],
        title=(f"P1 | {out['n_cells']}-cell replicate fleet, "
               f"{out['n_fused_dwells']} fused dwell systems, "
               f"{out['n_solved_systems']} solved"
               + (" [quick]" if out["quick"] else ""))))
    report(f"speedup vs sequential    : {out['speedup']:.1f}x  "
           f"(acceptance: >= {MIN_SPEEDUP:g}x)")
    report(f"max relative deviation   : {out['relative_deviation']:.2e}  "
           f"(acceptance: <= 1e-12)")
    report(render_table(
        ["implementation", "assays/sec"],
        [["sequential PanelProtocol (per-WE engines)",
          f"{distinct['sequential_rate']:.2f}"],
         ["AssayScheduler (fused dwell batch)",
          f"{distinct['fleet_rate']:.2f}"]],
        title=(f"P1a | {out['n_cells']}-cell distinct-chemistry fleet, "
               f"{distinct['n_fused_dwells']} fused dwell systems, "
               f"{distinct['n_solved_systems']} solved")))
    report(f"speedup vs sequential    : {distinct['speedup']:.1f}x  "
           f"(acceptance: >= {MIN_SPEEDUP:g}x, fusion alone)")
    report(f"max relative deviation   : "
           f"{distinct['relative_deviation']:.2e}  (acceptance: <= 1e-12)")
    report(render_table(
        ["backend", "assays/sec"],
        [["InlineExecutor (fused, in-process)",
          f"{backends['inline_rate']:.2f}"],
         [f"ProcessExecutor ({backends['workers']} workers)",
          f"{backends['process_rate']:.2f}"]],
        title=(f"P1b | backend axis, {backends['n_cells']}-cell fleet, "
               f"{backends['host_cpus']} host CPU(s)")))
    report(f"process speedup vs inline: {backends['speedup']:.1f}x  "
           f"(acceptance: >= 2x with >= {N_WORKERS} cores; enforced: "
           f">= {backends['enforced_min_speedup']:g}x here)")
    report(f"backend max rel deviation: "
           f"{backends['relative_deviation']:.2e}  (acceptance: <= 1e-12)")
    wall, cpu = store_axis["wall_s"], store_axis["cpu_s"]
    report(render_table(
        ["pass", "wall s", "cpu s"],
        [["uncached sweep (no store)", f"{wall['uncached']:.3f}",
          f"{cpu['uncached']:.3f}"],
         ["cold sweep with store writes", f"{wall['cold_write']:.3f}",
          f"{cpu['cold_write']:.3f}"],
         ["warm sweep (per-job store hits)", f"{wall['warm']:.3f}",
          f"{cpu['warm']:.3f}"]],
        title=(f"P1c | store axis, {store_axis['n_points']}-point sweep, "
               f"best of {store_axis['repeats']}")))
    report(f"warm vs uncached         : "
           f"{store_axis['warm_speedup_vs_uncached']:.1f}x  (acceptance: "
           f">= 5x; enforced: >= {MIN_WARM_SPEEDUP:g}x here; warm pass: "
           f"{store_axis['warm_fresh_jobs']} fresh jobs, "
           f"{store_axis['warm_solve_steps']} engine solve steps)")
    report(f"cold+write vs uncached   : "
           f"{store_axis['write_overhead_vs_uncached']:.2f}x  (acceptance: "
           f"<= 1.2x; enforced: <= {MAX_WRITE_OVERHEAD:g}x here)")
    report(f"bytes per record         : "
           f"{store_axis['bytes_per_record']:.0f}  "
           f"({store_axis['bytes_ratio_vs_json_format']:.2f}x the all-JSON "
           f"format's {JSON_FORMAT_BYTES_PER_RECORD}; acceptance: <= 1/3)")
    report(f"engine row records       : {store_axis['row_records']} rows, "
           f"{store_axis['row_bytes']} bytes (written by the cold pass, "
           f"beside {store_axis['n_points']} job records)")
    small, large = size_axis["sizes"]
    report(render_table(
        ["store size", "pass ms", "stats() ms"],
        [[f"{n} row records", f"{size_axis['pass_s'][str(n)] * 1e3:.2f}",
          f"{size_axis['stats_s'][str(n)] * 1e3:.2f}"]
         for n in size_axis["sizes"]],
        title=(f"P1i | store-size axis, one fresh-handle get_row + "
               f"put_row pass, median of {size_axis['passes']} "
               f"(stats(): of {size_axis['stats_calls']}, ungated)")))
    report(f"{large}-record pass vs {small}: {size_axis['growth']:.2f}x  "
           f"(acceptance: <= {MAX_SIZE_GROWTH:g}x)")
    report(render_table(
        ["implementation", "assays/sec"],
        [["per-cell batched (CV per WE)", f"{cv_axis['per_cell_rate']:.2f}"],
         ["fused fleet (cross-cell SweepBatch)",
          f"{cv_axis['fused_rate']:.2f}"]],
        title=(f"P1d | CV-fusion axis, {cv_axis['n_cells']} paper-panel "
               f"cells, {cv_axis['n_fused_sweeps']} fused sweeps in "
               f"{cv_axis['n_sweep_groups']} group(s)")))
    report(f"CV-fusion speedup        : {cv_axis['speedup']:.1f}x  "
           f"(acceptance: >= {MIN_CV_SPEEDUP:g}x)")
    report(f"CV-fusion max deviation  : {cv_axis['relative_deviation']:.2e}"
           f"  (acceptance: <= 1e-12)")
    report(f"CV-fusion sweep groups   : {cv_axis['n_sweep_groups']}  "
           f"(acceptance: 1, one per sample rate)")
    report(render_table(
        ["metric", "value"],
        [["sustained submissions/sec", f"{service['sustained_rps']:.1f}"],
         ["submission latency p50", f"{service['latency_p50_s']*1e3:.0f} ms"],
         ["submission latency p95", f"{service['latency_p95_s']*1e3:.0f} ms"]],
        title=(f"P1f | service axis, {service['n_submissions']} concurrent "
               f"submissions, {service['dispatchers']} dispatchers, "
               f"warm store")))
    report(render_table(
        ["executor", "wall s"],
        [["one reused ProcessExecutor, slots spawned once",
          f"{service['reused_s']:.2f}"],
         ["a fresh ProcessExecutor per run",
          f"{service['fresh_s']:.2f}"]],
        title=(f"P1g | executor reuse, {service['pool_runs']} consecutive "
               f"{service['pool_workers']}-cell fleets, "
               f"{service['pool_workers']} workers, "
               f"{service['host_cpus']} CPU(s), "
               f"{service['start_method']} start")))
    report(f"executor reuse speedup   : {service['reuse_speedup']:.1f}x  "
           f"(acceptance: >= 1.5x; enforced: >= {MIN_REUSE_SPEEDUP:g}x here)")
    report(render_table(
        ["worker fleet", "assays/sec"],
        [[f"{count} repro worker process(es)",
          f"{distributed['rates'][str(count)]:.2f}"]
         for count in distributed["worker_counts"]],
        title=(f"P1h | distributed axis, {distributed['n_cells']}-cell "
               f"fleet through a shared queue, "
               f"{distributed['host_cpus']} host CPU(s)")))
    report(f"distributed scaling      : {distributed['speedup']:.1f}x  "
           f"({distributed['worker_counts'][-1]} vs "
           f"{distributed['worker_counts'][0]} workers; acceptance: "
           f">= 1.5x with >= {distributed['worker_counts'][-1]} cores; "
           f"enforced: >= {distributed['enforced_min_speedup']:g}x here)")
    report(f"distributed warm re-runs : "
           f"{distributed['warm_solve_steps']} engine solve steps "
           f"(acceptance: 0), then all_cached="
           f"{distributed['warm_all_cached']}")

    # The scheduler must reproduce the sequential panels and beat them,
    # on replicates and on a fleet with no shared rows (fusion alone).
    assert out["relative_deviation"] <= 1.0e-12
    assert out["speedup"] >= MIN_SPEEDUP
    assert distinct["n_solved_systems"] == distinct["n_fused_dwells"]
    assert distinct["relative_deviation"] <= 1.0e-12
    assert distinct["speedup"] >= MIN_SPEEDUP
    # Backends must agree bit for bit; process must scale when it can.
    assert backends["relative_deviation"] <= 1.0e-12
    assert backends["speedup"] >= backends["enforced_min_speedup"]
    # A warm sweep is a pure replay: bit-identical, zero engine solves.
    assert store_axis["relative_deviation"] == 0.0
    assert store_axis["warm_all_cached"]
    assert store_axis["warm_solve_steps"] == 0
    # The store must pay for itself against the uncached run.
    assert store_axis["warm_speedup_vs_uncached"] >= MIN_WARM_SPEEDUP
    assert store_axis["write_overhead_vs_uncached"] <= MAX_WRITE_OVERHEAD
    assert store_axis["bytes_ratio_vs_json_format"] <= MAX_STORE_BYTES_RATIO
    # A store pass costs what it touches, not the store's size.
    assert size_axis["growth"] <= MAX_SIZE_GROWTH
    # Cross-cell CV fusion must agree bit for bit and stay ahead, with
    # both CYP windows (one sample rate) fused into one group.
    assert cv_axis["relative_deviation"] <= 1.0e-12
    assert cv_axis["speedup"] >= MIN_CV_SPEEDUP
    assert cv_axis["n_sweep_groups"] == 1
    # The fused path must not fall behind the sequential reference in
    # raw solve-step throughput (relative floor; quick mode gates CI).
    assert (out["fleet_steps_per_sec"]
            >= 0.8 * out["sequential_steps_per_sec"])
    # The service must complete every concurrent submission from the
    # warm store, and a reused executor must beat a fresh one per run.
    assert service["statuses"] == ["done"] * service["n_submissions"]
    assert service["store_hits"] >= service["n_submissions"]
    assert service["rejected"] == 0
    assert service["reuse_speedup"] >= MIN_REUSE_SPEEDUP
    # Distributed workers must agree bit for bit, scale when the cores
    # exist, and serve a re-run's rows cluster-wide.
    assert distributed["relative_deviation"] <= 1.0e-12
    assert distributed["speedup"] >= distributed["enforced_min_speedup"]
    assert distributed["warm_all_cached"]
    assert distributed["warm_solve_steps"] == 0
