"""Distributed fleet execution: the execution core over a file queue.

:class:`DistributedExecutor` runs the same state machine as every other
backend (:func:`repro.api.executors.run_units`); its transport is a
shared directory.  Submitting a unit writes a claimable task file;
independent worker processes — started with ``repro worker --queue
<dir>`` on any host that shares the file system — claim tasks, execute
them, and write results back for the core to merge in job order.  The
streamed records are pinned bit-identical to
:class:`~repro.api.executors.InlineExecutor`, and the failure semantics
are the core's: the same retries, counters, ``on_error`` handling and
``FailedAssayRecord`` slots as the process backend.

**Queue layout.**  A queue root holds three directories, the shared run
store (by default) and, when the workers should go, a stop file::

    <queue>/tasks/    one JSON file per submitted unit (atomic write)
    <queue>/claims/   <task>.claim, created O_EXCL by the winning worker
    <queue>/results/  <task>.json, the unit's per-job entries or failure
                      as one sealed container (atomic write)
    <queue>/store/    the shared RunStore workers consult (default)
    <queue>/stop      workers drain what is claimable, then exit

Claim files are the whole coordination protocol: ``os.O_EXCL`` makes
claiming atomic under any POSIX file system (two racing workers cannot
both win), and the claim's mtime is the worker's *progress heartbeat* —
touched as each job of the unit completes, so a claim that stops ageing
marks a worker that crashed or wedged.  The submitter declares a unit
failed once its claim is older than the retry policy's ``timeout_s`` (or
a conservative default), probes the claimant's pid to tell a crash from
a hang, and deletes the claim; the core then re-queues the unit's jobs
like any other failure.  A worker whose claim vanished abandons the
unit without writing results, so a slow-but-alive worker never races
its replacement.

**What a task carries.**  The unit's ``(index, payload)`` jobs and the
fault command the core decided for this dispatch — never the injector's
rules, so workers need no fault configuration of their own.  A worker
carries out the command, looks every job up in the shared
:class:`~repro.api.store.RunStore` by :class:`~repro.api.jobs.JobKey`
(warm jobs come back as ``cached`` entries with the original run's
provenance), solves the rest in one fused pass, writes the fresh
results back to the store — so any worker's work warms every later run
on the cluster — and reports per-job entries, or one unit failure.

**Speculative prefetch.**  Sweeps opt in via ``execution:
{prefetch: true}`` (schema v5): the submitter extrapolates the sweep's
last grid axis one step forward and publishes the genuinely-new points
as low-priority tasks (named to sort after every primary task), which
idle workers execute straight into the shared store.  They are
best-effort: the stream never waits on them, and unclaimed ones are
removed when it closes.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from collections.abc import Iterator
from pathlib import Path

from repro.api.executors import injected_hang_s, run_units, solve
from repro.api.jobs import JobKey
from repro.api.records import AssayRunRecord, EngineStats
from repro.api.resilience import FaultInjector, RetryPolicy, _Failure, inject
from repro.api.specs import (
    SCHEMA_VERSION,
    AssaySpec,
    ExecutionSpec,
    FleetSpec,
    SweepSpec,
)
from repro.api.store import RunStore
from repro.errors import ExecutionError, ReproError, StoreError
from repro.io.export import (
    panel_result_from_payload,
    panel_result_to_payload,
    write_atomic,
    write_json,
)
from repro.io.sealed import seal, unseal

__all__ = ["DistributedExecutor", "run_worker", "sweep_prefetch_assays",
           "ensure_queue", "default_store_root"]

#: How often an idle worker re-scans the task directory.
_WORKER_POLL_S = 0.05

#: How often a waiting submitter re-scans for results and stale claims.
_SUBMIT_POLL_S = 0.02

#: Claim-staleness horizon when no retry policy pins ``timeout_s``:
#: generous, because the heartbeat ticks per *job* — a single job
#: solving longer than this looks dead.  Supervised runs should set
#: ``retry.timeout_s`` just above their longest job instead.
_CLAIM_STALE_S = 300.0

#: Warn the submitter once after this long with no worker activity.
_NO_WORKER_WARN_S = 30.0

#: Upper bound on speculative tasks published per sweep.
_MAX_PREFETCH = 16

#: Speculative task-name prefix — sorts after every primary task name
#: (run ids are hex-led), so scanning workers drain real work first.
_PREFETCH_PREFIX = "zz-prefetch"

#: Idle workers sweep result files this stale: a unit that finished
#: after its submitting stream closed leaves a result nobody consumes.
_RESULT_GC_S = 3600.0


class _ClaimLost(ExecutionError):
    """A worker's claim vanished mid-unit: the submitter reclaimed it.

    Internal control flow only — the worker abandons the unit quietly
    (the core has already re-queued its jobs) and keeps scanning.
    """


# -- queue geometry ---------------------------------------------------------


def _queue_dirs(queue) -> tuple[Path, Path, Path]:
    root = Path(queue)
    return root / "tasks", root / "claims", root / "results"


def ensure_queue(queue) -> Path:
    """Create the queue's coordination directories; returns the root."""
    root = Path(queue)
    for sub in _queue_dirs(root):
        sub.mkdir(parents=True, exist_ok=True)
    return root


def default_store_root(queue) -> Path:
    """Where the shared store lives when not pointed elsewhere."""
    return Path(queue) / "store"


def _try_claim(claims_dir: Path, name: str) -> Path | None:
    """Atomically claim a task; ``None`` when another worker won.

    ``os.O_EXCL`` is the arbiter — exactly one opener creates the file.
    The claim records the worker's pid and host so the submitter can
    tell a crashed worker (pid gone) from a wedged one when it reclaims.
    """
    path = claims_dir / f"{name}.claim"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    except OSError:
        return None  # claims dir raced away; scan again
    with os.fdopen(fd, "w") as handle:
        json.dump({"pid": os.getpid(), "host": socket.gethostname()}, handle)
    return path


def _beat(claim: Path) -> None:
    """Progress heartbeat: refresh the claim's mtime, once per job.

    A missing claim means the submitter decided this worker was dead —
    abandon immediately rather than racing the replacement's results.
    """
    try:
        os.utime(claim)
    except OSError:
        raise _ClaimLost(f"claim {claim.name} was reclaimed") from None


def _scrub(name: str, tasks_dir: Path, claims_dir: Path, results_dir: Path,
           keep_claimed: bool = False) -> None:
    """Best-effort removal of one task's queue artefacts.

    ``keep_claimed`` (stream close) leaves a claimed task's claim alone:
    the worker holding it deletes it when it finishes, and deleting it
    out from under a live worker would look like a reclaim.
    """
    (tasks_dir / f"{name}.json").unlink(missing_ok=True)
    if keep_claimed and (claims_dir / f"{name}.claim").exists():
        return
    (claims_dir / f"{name}.claim").unlink(missing_ok=True)
    (results_dir / f"{name}.json").unlink(missing_ok=True)


# -- the worker -------------------------------------------------------------


def _solve_records(pairs: list[tuple[int, dict]], claim: Path
                   ) -> list[tuple[int, AssayRunRecord]]:
    """One fused pass over ``[(index, payload), ...]``, beating per job.

    Each record describes only its own job — delta engine statistics
    and the job's own wall time — which is the shape the store persists
    (:func:`repro.api.runner._per_job_snapshot`).
    """
    payloads = dict(pairs)
    out = []
    tick = time.perf_counter()
    for index, result, *deltas in solve(
            [(i, AssaySpec.from_dict(payload)) for i, payload in pairs]):
        _beat(claim)
        now = time.perf_counter()
        payload = payloads[index]
        out.append((index, AssayRunRecord(
            spec=payload, spec_hash=JobKey.for_payload(payload).digest,
            schema_version=SCHEMA_VERSION, seed=int(payload["seed"]),
            wall_time_s=now - tick,
            job_name=payload.get("name") or f"job{index}",
            result=result, engine=EngineStats(*deltas))))
        tick = now
    return out


def _entry(index: int, record: AssayRunRecord, cached: bool) -> dict:
    engine = record.engine
    return {"index": index, "cached": cached,
            "samples": panel_result_to_payload(record.result, arrays=True),
            "wall_s": record.wall_time_s,
            "engine": (None if engine is None else
                       [engine.n_fused_dwells, engine.n_dwell_groups,
                        engine.n_solve_steps])}


def _unit_entries(pairs: list[tuple[int, dict]], store: RunStore,
                  claim: Path) -> list[dict]:
    """Store lookups, one fused solve of the misses, store write-back."""
    entries, pending = [], []
    with store.batched():
        for index, payload in pairs:
            hit = store.get_job(JobKey.for_payload(payload))
            if hit is None:
                pending.append((index, payload))
            else:
                entries.append(_entry(index, hit, cached=True))
    _beat(claim)
    fresh = _solve_records(pending, claim) if pending else []
    if fresh:
        with store.batched():
            for _, record in fresh:
                store.put_job(record)
    return entries + [_entry(index, record, cached=False)
                      for index, record in fresh]


def _run_prefetch(pairs: list[tuple[int, dict]], store: RunStore,
                  claim: Path) -> int:
    """Execute a speculative task straight into the shared store.

    No result file — prefetch is best-effort warmup, invisible to the
    submitting stream.  A failing point is dropped (it would fail again,
    loudly, if a real sweep ever asks for it).  Returns the number of
    points actually warmed.
    """
    with store.batched():
        fresh = [(index, payload) for index, payload in pairs
                 if store.get_job(JobKey.for_payload(payload)) is None]
    if not fresh:
        return 0
    try:
        records = _solve_records(fresh, claim)
    except _ClaimLost:
        raise
    except ReproError:
        return 0
    with store.batched():
        for _, record in records:
            store.put_job(record)
    return len(records)


def _run_task(payload: dict, name: str, task_path: Path, claim: Path,
              results_dir: Path, store: RunStore) -> int:
    """Execute one claimed task file; returns the job count handled."""
    pairs = [(int(index), dict(job)) for index, job in
             payload.get("jobs", [])]
    if payload.get("kind") == "prefetch":
        warmed = _run_prefetch(pairs, store, claim)
        task_path.unlink(missing_ok=True)
        claim.unlink(missing_ok=True)
        return warmed
    try:
        inject(payload.get("fault"), float(payload.get("hang_s", 3600.0)),
               claim.exists)
        outcome = {"entries": _unit_entries(pairs, store, claim)}
    except _ClaimLost:
        raise
    # repro: lint-ignore[REP002] supervision boundary: any failure of
    # the unit is reported to the submitter's core, never raised here
    except Exception as exc:
        _beat(claim)  # a reclaimed unit is abandoned, not reported
        outcome = {"failure": _Failure.of(exc).to_dict()}
    # Result first (atomic), then tidy: a crash between these steps
    # leaves a completed result the submitter still consumes.
    write_atomic(seal({"run": payload.get("run"),
                       "attempt": payload.get("attempt"),
                       "pid": os.getpid(), **outcome}),
                 results_dir / f"{name}.json")
    task_path.unlink(missing_ok=True)
    claim.unlink(missing_ok=True)
    return len(pairs)


def run_worker(queue, store=None, max_shards: int | None = None) -> dict:
    """The ``repro worker`` claim-and-execute loop.

    Scans ``<queue>/tasks/`` in sorted order (primary units before
    speculative prefetch), claims the first unclaimed task via
    ``O_EXCL``, executes it against the shared store, and repeats.
    ``store`` defaults to ``<queue>/store``; pass a path or an open
    :class:`~repro.api.store.RunStore` to point elsewhere.
    ``max_shards`` bounds how many *primary* units this worker executes
    (prefetch tasks ride free).  The worker drains and exits once
    ``<queue>/stop`` exists and nothing is claimable; without a stop
    file it serves forever.

    Returns ``{"shards": n, "jobs": n, "prefetched": n}``.
    """
    root = ensure_queue(queue)
    tasks_dir, claims_dir, results_dir = _queue_dirs(root)
    run_store = store if isinstance(store, RunStore) else RunStore(
        default_store_root(root) if store is None else store)
    done = {"shards": 0, "jobs": 0, "prefetched": 0}
    while True:
        claimed_any = False
        for task_path in sorted(tasks_dir.glob("*.json")):
            name = task_path.stem
            if (claims_dir / f"{name}.claim").exists():
                continue
            claim = _try_claim(claims_dir, name)
            if claim is None:
                continue
            try:
                payload = json.loads(task_path.read_text())
            except (OSError, ValueError):
                # The task raced away (reclaim or stream close) between
                # scan and read; release the orphan claim and move on.
                claim.unlink(missing_ok=True)
                continue
            claimed_any = True
            try:
                handled = _run_task(payload, name, task_path, claim,
                                    results_dir, run_store)
            except _ClaimLost:
                continue
            if payload.get("kind") == "prefetch":
                done["prefetched"] += handled
            else:
                done["shards"] += 1
                done["jobs"] += handled
            if max_shards is not None and done["shards"] >= max_shards:
                return done
        if not claimed_any:
            if (root / "stop").exists():
                return done
            _sweep_orphan_results(results_dir)
            time.sleep(_WORKER_POLL_S)


def _sweep_orphan_results(results_dir: Path,
                          horizon_s: float = _RESULT_GC_S) -> None:
    """Drop result files no submitter will ever consume.

    A unit claimed before its stream closed still completes (and warms
    the store), but its result file is orphaned — submitters only watch
    task names from their own live run.  Idle workers sweep anything
    older than the horizon, keeping a long-lived queue bounded.
    """
    for path in results_dir.glob("*.json"):
        try:
            if time.time() - path.stat().st_mtime > horizon_s:
                path.unlink(missing_ok=True)
        except OSError:
            continue


# -- speculative sweep prefetch ---------------------------------------------


def sweep_prefetch_assays(sweep: SweepSpec,
                          limit: int = _MAX_PREFETCH) -> list[AssaySpec]:
    """The near-miss grid points a sweep's idle workers should warm.

    Only the *last* axis in sorted-key order is extrapolated — one step
    past its final value, at the grid's own spacing.  That is the one
    direction that preserves naming: compiled grid points are numbered
    by ``itertools.product`` over sorted axes, and appending to the
    last axis keeps every existing point's enumeration index (hence its
    ``name`` and :class:`~repro.api.jobs.JobKey`) unchanged, so the
    speculative points are exactly the records a widened re-sweep will
    look up.  Non-numeric, boolean, single-value and zero-step axes
    yield nothing, as does any extension the spec layer rejects.
    """
    axes = sorted(sweep.grid.items())
    if not axes:
        return []
    dotted, values = axes[-1]
    values = tuple(values)
    if len(values) < 2:
        return []
    last, prev = values[-1], values[-2]
    for value in (last, prev):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return []
    step = last - prev
    if not step:
        return []
    grown = dict(sweep.grid)
    grown[dotted] = values + (last + step,)
    try:
        extended = SweepSpec(name=sweep.name, base=sweep.base, grid=grown,
                             execution=sweep.execution,
                             screening=sweep.screening)
        known = {JobKey.for_payload(assay.to_dict()).digest
                 for assay in sweep.compile().assays}
        fresh = [assay for assay in extended.compile().assays
                 if JobKey.for_payload(assay.to_dict()).digest not in known]
    except ReproError:
        return []
    return fresh[:limit]


# -- the submitting side ----------------------------------------------------


class _FileQueue:
    """The core's transport over a queue directory (one stream's view)."""

    def __init__(self, executor: "DistributedExecutor", run_id: str,
                 sweep: SweepSpec | None) -> None:
        self.executor = executor
        self.run_id = run_id
        self.sweep = sweep                # prefetch, once units are out
        self.prefetched: list[str] = []
        self.dirs = _queue_dirs(executor.queue)
        policy = executor.retry
        self.stale_s = (policy.timeout_s
                        if policy is not None and policy.timeout_s is not None
                        else _CLAIM_STALE_S)
        self.hang_s = injected_hang_s(policy)
        self.live: dict[str, int] = {}   # task name -> unit
        self.launched = time.monotonic()
        self.seen_worker = False

    def submit(self, unit: int, jobs: list, fault, attempt: int) -> None:
        name = self.executor._publish(self.dirs[0], self.run_id, unit, fault,
                                      attempt, jobs, self.hang_s)
        self.live[name] = unit

    def poll(self, timeout) -> list:
        if self.sweep is not None:
            self.prefetched = self.executor._publish_prefetch_tasks(
                self.dirs[0], self.run_id, self.sweep)
            self.sweep = None
        events: list[tuple] = []
        for name, unit in list(self.live.items()):
            try:
                result = unseal((self.dirs[2] / f"{name}.json").read_bytes())
            except (OSError, StoreError):
                result = None
            if result is not None:
                del self.live[name]
                _scrub(name, *self.dirs)
                self.seen_worker = True
                events.extend(self._events(unit, result))
                continue
            claim = self.dirs[1] / f"{name}.claim"
            try:
                age = time.time() - claim.stat().st_mtime
            except OSError:
                continue  # unclaimed, or completing right now
            self.seen_worker = True
            if age <= self.stale_s:
                continue
            del self.live[name]
            kind = _death_kind(claim)
            _scrub(name, *self.dirs)
            message = (f"worker executing {name} stalled or died (claim "
                       f"went {age:.1f}s without progress)")
            events.append((unit, kind, None, _Failure(
                "BrokenProcessPool" if kind == "crash" else "ExecutionError",
                message)))
        if not self.seen_worker and \
                time.monotonic() - self.launched > _NO_WORKER_WARN_S:
            self.seen_worker = True  # warn once
            warnings.warn(
                f"no worker has claimed any of this fleet's units after "
                f"{_NO_WORKER_WARN_S:.0f}s — is a `repro worker --queue "
                f"{self.executor.queue}` process running?",
                RuntimeWarning, stacklevel=2)
        if not events:
            time.sleep(_SUBMIT_POLL_S if timeout is None
                       else min(_SUBMIT_POLL_S, timeout))
        return events

    @staticmethod
    def _events(unit: int, result: dict) -> list[tuple]:
        failure = result.get("failure")
        if failure is not None:
            return [(unit, "error", None, _Failure(**failure))]
        events = []
        for entry in result.get("entries", []):
            samples = panel_result_from_payload(entry["samples"])
            engine = entry["engine"]
            if entry["cached"]:
                events.append((unit, "cached", entry["index"], (
                    samples, float(entry["wall_s"]),
                    None if engine is None else EngineStats(*engine))))
            else:
                events.append((unit, "job", entry["index"],
                               (samples, *engine)))
        return events

    def kill(self, unit: int) -> None:
        for name, owner in list(self.live.items()):
            if owner == unit:
                del self.live[name]
                _scrub(name, *self.dirs, keep_claimed=True)


def _death_kind(claim_path: Path) -> str:
    """Crash or hang?  Probe the claimant's pid when it is local — a
    live pid means wedged, a dead one (or an unreaped zombie) means
    crashed; cross-host claims (unprobeable) count as crashes."""
    try:
        meta = json.loads(claim_path.read_text())
        pid = int(meta.get("pid", -1))
        if meta.get("host") != socket.gethostname():
            return "crash"
        os.kill(pid, 0)
    except (OSError, ValueError):
        return "crash"
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return "hang"
    return "crash" if state == "Z" else "hang"


class DistributedExecutor:
    """Run a fleet's units as task files on a shared queue.

    Parameters
    ----------
    queue:
        The coordination directory workers watch (created on demand).
    workers:
        How many units to cut the fleet into and keep in flight — match
        or exceed the worker processes you plan to run; ``None`` means
        one per submitter CPU core.  Nothing is spawned here:
        parallelism comes from however many ``repro worker`` processes
        are attached to the queue.
    shard:
        Job partitioning strategy — see
        :func:`~repro.api.executors.shard_indices`.
    retry / on_error / faults:
        The core's supervision knobs, as on every backend; the retry
        policy's ``timeout_s`` is the claim-staleness horizon.
    prefetch:
        Arm speculative sweep prefetch (see
        :func:`sweep_prefetch_assays`); only effective when the runner
        hands the executor the originating sweep via
        :meth:`publish_prefetch`.

    Results cross the boundary as sealed containers
    (:mod:`repro.io.sealed`): lossless
    :func:`~repro.io.export.panel_result_to_payload` payloads whose
    sample arrays travel as raw float64 blocks, checked against their
    SHA-256 digest before the submitter parses them.  Store warm-hits
    stream as :class:`~repro.api.records.CachedAssayRecord`
    with their original provenance.  Closing the stream early removes
    this run's unclaimed tasks; claimed units finish (and warm the
    store) on their own.
    """

    name = "distributed"

    def __init__(self, queue, workers: int | None = None,
                 shard: str = "interleave",
                 retry: RetryPolicy | None = None,
                 on_error: str = "raise",
                 prefetch: bool = False,
                 faults: FaultInjector | None = None) -> None:
        # One validation authority: the declarative block this executor
        # is the programmatic face of.
        ExecutionSpec(backend="distributed", queue=str(queue),
                      workers=workers, shard=shard, retry=retry,
                      on_error=on_error, prefetch=bool(prefetch))
        self.queue = Path(queue)
        self.workers = workers
        self.shard = shard
        self.retry = retry
        self.on_error = on_error
        self.prefetch = bool(prefetch)
        self.faults = faults if faults is not None \
            else FaultInjector.from_env()
        self._seq = 0
        self._sweep: SweepSpec | None = None

    def __repr__(self) -> str:
        return (f"DistributedExecutor(queue={str(self.queue)!r}, "
                f"workers={self.workers!r}, shard={self.shard!r}, "
                f"retry={self.retry!r}, on_error={self.on_error!r})")

    def close(self) -> None:
        """Nothing persistent to release: each stream cleans its own
        queue artefacts, and workers are independent processes."""

    def publish_prefetch(self, sweep: SweepSpec) -> None:
        """Arm speculative prefetch for the next ``run_fleet`` call.

        The runner calls this (duck-typed — other backends simply lack
        the method) when a sweep compiles with ``prefetch`` enabled, so
        the executor still sees the *grid* its fleet came from.
        """
        if self.prefetch and isinstance(sweep, SweepSpec):
            self._sweep = sweep

    def _publish(self, tasks_dir: Path, run_id: str, unit: int, fault,
                 attempt: int, jobs: list, hang_s: float) -> str:
        name = f"{run_id}-u{unit:03d}-a{attempt}"
        write_json({"kind": "shard", "run": run_id, "attempt": attempt,
                    "schema_version": SCHEMA_VERSION, "hang_s": hang_s,
                    "fault": fault,
                    "jobs": [[index, payload] for index, payload in jobs]},
                   tasks_dir / f"{name}.json")
        return name

    def _publish_prefetch_tasks(self, tasks_dir: Path, run_id: str,
                                sweep: SweepSpec) -> list[str]:
        names = []
        for k, assay in enumerate(sweep_prefetch_assays(sweep)):
            name = f"{_PREFETCH_PREFIX}-{run_id}-p{k:03d}"
            write_json({"kind": "prefetch", "run": run_id, "attempt": 0,
                        "schema_version": SCHEMA_VERSION,
                        "jobs": [[k, assay.to_dict()]]},
                       tasks_dir / f"{name}.json")
            names.append(name)
        return names

    def run_fleet(self, spec: FleetSpec) -> Iterator[AssayRunRecord]:
        tasks_dir, claims_dir, _ = _queue_dirs(ensure_queue(self.queue))
        self._seq += 1
        run_id = (f"{JobKey.for_payload(spec.to_dict()).digest[:12]}"
                  f"-{os.getpid()}-{self._seq}")
        workers = self.workers if self.workers is not None \
            else (os.cpu_count() or 1)
        transport = _FileQueue(self, run_id, self._sweep)
        self._sweep = None
        try:
            yield from run_units(spec, transport, units=workers,
                                 shard=self.shard, policy=self.retry,
                                 on_error=self.on_error,
                                 injector=self.faults)
        finally:
            for name in transport.prefetched:
                # Unclaimed speculative tasks die with the stream;
                # claimed ones finish into the store on their own.
                if not (claims_dir / f"{name}.claim").exists():
                    (tasks_dir / f"{name}.json").unlink(missing_ok=True)
