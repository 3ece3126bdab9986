"""Fleet execution: one supervised core over three small transports.

:func:`repro.api.run` and :func:`repro.api.iter_results` describe *what*
to run (a :class:`~repro.api.specs.FleetSpec`); an :class:`Executor`
decides *how*.  Every shipped executor is the same state machine,
:func:`run_units`, over a different transport:

- :class:`InlineExecutor` — in-thread.  The whole fleet is one unit, run
  as one fused :meth:`~repro.engine.scheduler.AssayScheduler.run_iter`
  pass in the calling thread; records stream one job at a time.  This
  is the bit-identical reference.
- :class:`ProcessExecutor` — process slots.  ``workers`` single-worker
  process pools, kept until :meth:`ProcessExecutor.close`.  A unit ships
  canonical assay payloads to a free slot (cells, chains and RNGs are
  rebuilt there, so nothing stateful crosses the boundary) and comes
  back as per-job results; a crashed or hung unit takes down only its
  own slot, which respawns lazily.
- :class:`~repro.api.distributed.DistributedExecutor` — the file queue
  of :mod:`repro.api.distributed`, drained by ``repro worker``
  processes.

A transport answers three calls.  ``submit(unit, jobs, fault,
attempt)`` sends a unit's ``(index, payload)`` pairs with the fault
command the core already decided for it; ``poll(timeout)`` returns
events — per-job completions and unit failures; and ``kill(unit)``
stops one unit.  The core owns everything else: units
cut by :func:`shard_indices`, fault decisions (made in the parent, once
per dispatch), per-job attempts and the shard → halves → singles
re-dispatch ladder under the policy's backoff, the
:class:`~repro.api.records.ResilienceStats` counters, cumulative engine
statistics, the job-order merge and
:class:`~repro.api.records.FailedAssayRecord` slots.  Job records are
not a transport's business: every transport solves what it is sent,
and a store-backed run's job hits come from the runner's own plan
(:class:`~repro.api.jobs.JobPlan`).

So every backend has the same failure semantics by construction.
``retries`` counts re-queued jobs; ``worker_crashes``, ``worker_hangs``
and ``engine_errors`` count failed unit dispatches.  A job that
exhausts its budget fails the run with
:class:`~repro.errors.ExecutionError` (:class:`~repro.errors.SpecError`
for an invalid assay) the moment it is exhausted under
``on_error="raise"``, or streams a ``FailedAssayRecord`` in its slot
under ``"partial"``.  Records carry a ``ResilienceStats`` snapshot
whenever the executor has a retry policy, a non-default ``on_error`` or
a fault injector, and ``resilience`` stays ``None`` otherwise.
Successful records are bit-identical on every backend: retries rebuild
jobs from canonical payloads with fresh seeded RNGs, and only wall time
and engine fusion statistics describe the actual execution (each unit
fuses on its own; per-record statistics stay cumulative in merged job
order).

Backends are selected declaratively (the fleet's
:class:`~repro.api.specs.ExecutionSpec` block), programmatically
(``run(spec, backend=ProcessExecutor(workers=4))``), or by name
(``backend="process"``); :func:`resolve_executor` implements that
precedence.  Anything exposing ``run_fleet(spec) -> iterator of
AssayRunRecord`` can serve as a backend — the :class:`Executor`
protocol is structural.  With no explicit ``faults``, executors adopt
the ``REPRO_FAULTS`` environment injector, so an unmodified program can
be faulted from the outside.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections.abc import Iterator
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Protocol, runtime_checkable

from repro.api.jobs import JobKey
from repro.api.records import (
    AssayRunRecord,
    EngineStats,
    FailedAssayRecord,
    ResilienceStats,
)
from repro.api.resilience import (
    FaultInjector,
    RetryPolicy,
    _Failure,
    inject,
    kill_pool,
)
from repro.api.specs import (
    _EXECUTION_BACKENDS,
    SCHEMA_VERSION,
    ExecutionSpec,
    FleetSpec,
)
from repro.errors import ExecutionError, SpecError

__all__ = ["Executor", "InlineExecutor", "ProcessExecutor",
           "resolve_executor", "run_units", "shard_indices"]

#: Failure kind a transport reports -> the counter it bumps.
_COUNTERS = {"crash": "worker_crashes", "hang": "worker_hangs",
             "error": "engine_errors"}


@runtime_checkable
class Executor(Protocol):
    """Structural protocol every execution backend satisfies.

    ``run_fleet`` streams one :class:`~repro.api.records.AssayRunRecord`
    per job, in job order; records must be backend-independent bit for
    bit (wall time and engine statistics excepted — they describe the
    actual execution).  A store-backed run also passes its run store as
    ``store=``, whose engine rows the backend may serve and warm.
    """

    def run_fleet(self, spec: FleetSpec) -> Iterator[AssayRunRecord]:
        ...  # pragma: no cover - protocol signature only


def shard_indices(n_jobs: int, n_shards: int) -> list[list[int]]:
    """Deal job indices ``0..n_jobs-1`` round-robin into non-empty shards.

    Shard ``i`` takes jobs ``i, i+w, ...``, so early-finishing jobs
    spread across workers.  There are never more shards than jobs, so
    no worker is ever handed nothing.
    """
    if n_jobs < 1:
        raise SpecError("shard_indices: need at least one job")
    n_shards = max(1, min(n_shards, n_jobs))
    return [list(range(i, n_jobs, n_shards)) for i in range(n_shards)]


def solve(pairs, store=None) -> Iterator[tuple]:
    """One fused scheduler pass over ``[(index, AssaySpec), ...]``.

    Yields ``(index, result, d_fused, d_groups, d_steps, d_solved,
    d_stored)`` per job in order, where the ``d_*`` are the engine
    statistics each job added to the pass — the core re-accumulates
    them in merged job order.  With a ``store`` (a
    :class:`~repro.api.store.RunStore`) the pass serves known engine
    rows from it and writes the rows it solves back, one counter flush
    for the whole pass; ``d_stored`` counts the rows served.  The
    inline transport passes the runner's store, a process slot the
    same store re-opened in the slot, and a distributed worker its own
    shared store.

    Assays of one chemistry (equal but for ``name`` and ``seed``) share
    one built cell, chain and protocol through a memo that lives for
    this pass only (:meth:`~repro.api.specs.AssaySpec.build_job`), so
    the scheduler plans each distinct chemistry once; every job keeps
    its own name and seeded generator.  All three transports reach the
    scheduler through here.
    """
    from repro.engine.scheduler import AssayScheduler

    prev = (0, 0, 0, 0, 0)
    memo: dict = {}
    jobs = [assay.build_job(memo) for _, assay in pairs]
    with store.batched() if store is not None else nullcontext():
        for (index, _), item in zip(
                pairs, AssayScheduler(store=store).run_iter(jobs)):
            now = (item.n_fused_dwells, item.n_dwell_groups,
                   item.n_solve_steps, item.n_solved_systems,
                   item.n_store_rows)
            yield (index, item.result, *(a - b for a, b in zip(now, prev)))
            prev = now


def warm_imports() -> None:
    """Import what a solve imports on first use before a unit's clock
    starts.  Peak finding imports ``scipy.signal`` lazily (about a
    second), so a distributed worker calls this before its first claim
    and the process backend before it forks a slot: a tight
    ``timeout_s`` never charges the import to a job."""
    import scipy.signal  # noqa: F401


def injected_hang_s(policy: RetryPolicy | None) -> float:
    """How long an injected hang stalls: well past the detection
    horizon, so the transport's timeout — not the stall — ends it."""
    if policy is None or policy.timeout_s is None:
        return 3600.0
    return max(4.0 * policy.timeout_s, 1.0)


def _split(indices: list[int]) -> list[list[int]]:
    """Shard → halves → single jobs: the re-dispatch ladder.

    Halving re-isolates a poisoned job in O(log n) failed dispatches
    while surviving neighbours stay fused, so the attempts a poisoned
    unit-mate costs them stay bounded by the ladder depth.
    """
    if len(indices) <= 1:
        return [indices]
    middle = (len(indices) + 1) // 2
    return [indices[:middle], indices[middle:]]


def run_units(spec: FleetSpec, transport, *, units: int,
              policy: RetryPolicy | None = None, on_error: str = "raise",
              injector: FaultInjector | None = None
              ) -> Iterator[AssayRunRecord]:
    """Execute ``spec`` over ``transport``, streaming records in job order.

    The fleet is cut into ``units`` units (:func:`shard_indices`); the
    re-dispatch ladder may cut more, but at most ``units`` are ever in
    flight.  Transport events are ``(unit, kind, index, value)``:
    ``"job"`` with ``(result, d_fused, d_groups, d_steps, d_solved,
    d_stored)``, or a unit failure — ``"crash"``, ``"hang"`` or
    ``"error"`` with index ``None`` and a ``_Failure`` — which charges
    one attempt to every job of the unit not yet completed.  A job out of attempts under
    ``on_error="raise"`` raises :class:`~repro.errors.SpecError` if an
    invalid assay felled it and :class:`~repro.errors.ExecutionError`
    otherwise, chained to the original exception where it was caught in
    this process.
    """
    stamp = policy is not None or on_error != "raise" or injector is not None
    policy = policy if policy is not None else RetryPolicy(max_attempts=1)
    assays = spec.assays
    n_jobs = len(assays)
    payloads = [assay.to_dict() for assay in assays]
    names = [assay.name if assay.name else f"job{i}"
             for i, assay in enumerate(assays)]
    counts = dict.fromkeys(("retries", "worker_crashes", "worker_hangs",
                            "engine_errors", "failed_jobs"), 0)
    attempts = [0] * n_jobs
    queue = [(0.0, indices) for indices in shard_indices(n_jobs, units)]
    active: dict[int, set[int]] = {}   # unit -> jobs not yet completed
    ready: dict[int, tuple] = {}       # job -> (kind, value), awaiting merge
    cum = [0, 0, 0, 0, 0]
    next_unit = next_index = 0
    start = time.perf_counter()

    def fail(indices: list[int], failure: _Failure) -> None:
        survivors = []
        for i in indices:
            attempts[i] += 1
            if attempts[i] < policy.max_attempts:
                survivors.append(i)
                continue
            counts["failed_jobs"] += 1
            if on_error == "raise":
                # An invalid assay is the caller's error on every
                # backend, not an execution failure.
                error = (SpecError if failure.error_type == "SpecError"
                         else ExecutionError)
                raise error(
                    f"fleet job {names[i]} failed after {attempts[i]} "
                    f"attempt(s): {failure.error_type}: {failure.message}"
                ) from failure.exc
            ready[i] = ("failed", failure)
        if survivors:
            counts["retries"] += len(survivors)
            not_before = time.monotonic() + policy.delay_s(
                max(attempts[i] for i in survivors), key=names[survivors[0]])
            queue.extend((not_before, part) for part in _split(survivors))

    try:
        while next_index < n_jobs:
            now = time.monotonic()
            waiting = []
            for not_before, indices in queue:
                if len(active) >= units or not_before > now:
                    waiting.append((not_before, indices))
                    continue
                attempt = min(attempts[i] for i in indices)
                fault = (injector.command([names[i] for i in indices],
                                          attempt)
                         if injector is not None else None)
                transport.submit(next_unit,
                                 [(i, payloads[i]) for i in indices],
                                 fault, attempt)
                active[next_unit] = set(indices)
                next_unit += 1
            queue[:] = waiting
            wake = min((not_before for not_before, _ in queue),
                       default=math.inf)
            if active:
                timeout = (max(0.0, wake - time.monotonic())
                           if wake < math.inf
                           and len(active) < units else None)
                for unit, kind, index, value in transport.poll(timeout):
                    if index is None:
                        counts[_COUNTERS[kind]] += 1
                        fail(sorted(active.pop(unit)), value)
                        continue
                    ready[index] = (kind, value)
                    active[unit].discard(index)
                    if not active[unit]:
                        del active[unit]
            elif queue:
                time.sleep(max(0.0, wake - time.monotonic()))
            else:  # pragma: no cover - core invariant
                raise ExecutionError(f"execution core: no unit left to "
                                     f"produce job {next_index}")
            while next_index in ready:
                i = next_index
                kind, value = ready.pop(i)
                common = dict(spec=payloads[i],
                              spec_hash=JobKey.for_payload(payloads[i]).digest,
                              schema_version=SCHEMA_VERSION,
                              seed=assays[i].seed, job_name=names[i])
                if kind == "job":
                    cum = [a + b for a, b in zip(cum, value[1:])]
                    record = AssayRunRecord(
                        **common, wall_time_s=time.perf_counter() - start,
                        result=value[0], engine=EngineStats(*cum[:3]))
                    object.__setattr__(record, "n_solved_systems", cum[3])
                    object.__setattr__(record, "n_store_rows", cum[4])
                else:
                    record = FailedAssayRecord(
                        **common, wall_time_s=time.perf_counter() - start,
                        error_type=value.error_type, error=value.message,
                        traceback=value.traceback, attempts=attempts[i])
                if stamp:
                    object.__setattr__(record, "resilience",
                                       ResilienceStats(**counts))
                yield record
                next_index += 1
    finally:
        # Bounded teardown on every exit: ExecutionError, or an
        # abandoned stream's GeneratorExit with units mid-flight.
        for unit in list(active):
            transport.kill(unit)


# -- in-thread transport ----------------------------------------------------


class _InThread:
    """One fused pass per unit in the calling thread, one job per poll.

    There is no worker in-thread to crash or hang, so every injected
    fault surfaces as an engine error; ``timeout_s`` is not enforced (a
    hung in-thread solve hangs the caller).
    """

    def __init__(self, assays, store=None) -> None:
        self.assays = assays
        self.store = store
        self.stream = None

    def submit(self, unit: int, jobs: list, fault, attempt: int) -> None:
        self.unit, self.fault, self.left = unit, fault, len(jobs)
        self.stream = solve([(i, self.assays[i]) for i, _ in jobs],
                            self.store)

    def poll(self, timeout) -> list:
        try:
            if self.fault is not None:
                raise ExecutionError("injected transient engine error")
            index, *row = next(self.stream)
        # repro: lint-ignore[REP002] supervision boundary: any engine
        # failure is classified and fed to the retry policy
        except Exception as exc:
            self.kill(self.unit)
            return [(self.unit, "error", None, _Failure.of(exc))]
        self.left -= 1
        if not self.left:
            self.kill(self.unit)
        return [(self.unit, "job", index, row)]

    def kill(self, unit: int) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None


class InlineExecutor:
    """Execute a fleet as one fused scheduler pass in this thread.

    The bit-identical reference backend: the fleet is one unit, drained
    through :meth:`~repro.engine.scheduler.AssayScheduler.run_iter`, and
    each record streams as its job's dwells drain.  ``retry`` /
    ``on_error`` / ``faults`` apply exactly as on every backend; a
    retried unit re-runs from the specs with fresh seeded RNGs.
    """

    name = "inline"

    def __init__(self, retry: RetryPolicy | None = None,
                 on_error: str = "raise",
                 faults: FaultInjector | None = None) -> None:
        # One validation authority: the declarative block this executor
        # is the programmatic face of.
        ExecutionSpec(backend="inline", retry=retry, on_error=on_error)
        self.retry = retry
        self.on_error = on_error
        self.faults = faults if faults is not None \
            else FaultInjector.from_env()

    def run_fleet(self, spec: FleetSpec,
                  store=None) -> Iterator[AssayRunRecord]:
        yield from run_units(spec, _InThread(spec.assays, store), units=1,
                             policy=self.retry, on_error=self.on_error,
                             injector=self.faults)

    def __repr__(self) -> str:
        return (f"InlineExecutor(retry={self.retry!r}, "
                f"on_error={self.on_error!r})")


# -- process-slot transport -------------------------------------------------


def _run_unit(jobs: list[tuple[int, dict]], fault: str | None,
              hang_s: float, store=None) -> list[tuple]:
    """Slot entry point: carry out the unit's fault command, then one
    fused pass over ``[(index, payload), ...]`` rebuilt from payloads,
    against ``store`` (the run's store, re-opened in the slot)."""
    from repro.api.specs import AssaySpec

    inject(fault, hang_s)
    return list(solve([(i, AssaySpec.from_dict(payload))
                       for i, payload in jobs], store))


def _close_slots(slots: list) -> None:
    for k, pool in enumerate(slots):
        slots[k] = None
        if pool is not None:
            kill_pool(pool)


class _Slots:
    """Units on single-worker pools: a crash (``BrokenProcessPool``), a
    hang (deadline expiry) or a raising job is attributed to exactly one
    unit, and only a crashed or hung slot is torn down."""

    def __init__(self, slots: list, policy: RetryPolicy | None,
                 store=None) -> None:
        self.slots = slots        # the executor's pools, kept until close()
        self.store = store        # pickled into each unit: re-opened there
        self.running: dict = {}   # future -> (unit, slot, deadline)
        self.timeout_s = policy.timeout_s if policy is not None else None
        self.hang_s = injected_hang_s(policy)

    def submit(self, unit: int, jobs: list, fault, attempt: int) -> None:
        busy = {slot for _, slot, _ in self.running.values()}
        slot = next(k for k in range(len(self.slots) + 1) if k not in busy)
        if slot == len(self.slots):
            self.slots.append(None)
        if self.slots[slot] is None:
            warm_imports()  # a forked slot inherits them
            self.slots[slot] = ProcessPoolExecutor(max_workers=1)
        future = self.slots[slot].submit(_run_unit, jobs, fault, self.hang_s,
                                         self.store)
        deadline = (math.inf if self.timeout_s is None
                    else time.monotonic() + self.timeout_s)
        self.running[future] = (unit, slot, deadline)

    def poll(self, timeout) -> list:
        horizon = min(deadline for *_, deadline in self.running.values())
        if horizon < math.inf:
            left = max(0.0, horizon - time.monotonic())
            timeout = left if timeout is None else min(timeout, left)
        done, _ = wait(set(self.running), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        events = []
        for future in done:
            unit, slot, _ = self.running.pop(future)
            try:
                rows = future.result()
            except BrokenProcessPool as exc:
                self._drop(slot)
                events.append((unit, "crash", None, _Failure.of(exc)))
            # repro: lint-ignore[REP002] supervision boundary: any
            # worker-side failure is classified and fed to the retry
            # policy, never propagated raw
            except Exception as exc:
                events.append((unit, "error", None, _Failure.of(exc)))
            else:
                events.extend((unit, "job", row[0], row[1:]) for row in rows)
        now = time.monotonic()
        for future, (unit, slot, deadline) in list(self.running.items()):
            if deadline <= now:
                del self.running[future]
                self._drop(slot)
                events.append((unit, "hang", None, _Failure(
                    "ExecutionError",
                    f"worker exceeded the per-dispatch timeout of "
                    f"{self.timeout_s} s and was killed")))
        return events

    def kill(self, unit: int) -> None:
        for future, (owner, slot, _) in list(self.running.items()):
            if owner == unit:
                del self.running[future]
                self._drop(slot)

    def _drop(self, slot: int) -> None:
        pool, self.slots[slot] = self.slots[slot], None
        if pool is not None:
            kill_pool(pool)


class ProcessExecutor:
    """Run a fleet's units on worker-process slots.

    Parameters
    ----------
    workers:
        Slot count — single-worker process pools, spawned lazily (a
        fleet never spawns more slots than it has units in flight) and
        kept until :meth:`close`, so consecutive runs pay the spawn cost
        once.  ``None`` means one per CPU core.  The fleet's jobs are
        dealt to units round-robin (:func:`shard_indices`).
    retry / on_error / faults:
        The core's supervision knobs (module docstring); ``timeout_s``
        is enforced per dispatched unit.

    Streaming granularity is the unit: each slot runs its unit as one
    fused pass, and the parent merges completions in job order.  A
    crashed or hung unit kills only its own slot, which respawns on next
    use; an abandoned stream kills the slots still running its units.
    A second stream entered while one is live runs on slots of its own,
    closed when it ends, so an abandoned stream can only ever kill slots
    it used.
    """

    name = "process"

    def __init__(self, workers: int | None = None,
                 retry: RetryPolicy | None = None,
                 on_error: str = "raise",
                 faults: FaultInjector | None = None) -> None:
        # One validation authority: the declarative block this executor
        # is the programmatic face of.
        ExecutionSpec(backend="process", workers=workers, retry=retry,
                      on_error=on_error)
        self.workers = workers
        self.retry = retry
        self.on_error = on_error
        self.faults = faults if faults is not None \
            else FaultInjector.from_env()
        self._slots: list = []
        self._busy = threading.Lock()

    def __repr__(self) -> str:
        return (f"ProcessExecutor(workers={self.workers!r}, "
                f"retry={self.retry!r}, on_error={self.on_error!r})")

    def run_fleet(self, spec: FleetSpec,
                  store=None) -> Iterator[AssayRunRecord]:
        owned = self._busy.acquire(blocking=False)
        slots = self._slots if owned else []
        workers = self.workers if self.workers is not None \
            else (os.cpu_count() or 1)
        try:
            yield from run_units(spec, _Slots(slots, self.retry, store),
                                 units=workers, policy=self.retry,
                                 on_error=self.on_error,
                                 injector=self.faults)
        finally:
            if owned:
                self._busy.release()
            else:
                _close_slots(slots)

    def close(self) -> None:
        """Release the worker slots (bounded teardown).

        Safe to call repeatedly; the next ``run_fleet`` simply respawns
        slots.  ``with ProcessExecutor(...) as ex:`` closes on exit, and
        garbage collection closes as a last resort.
        """
        _close_slots(self._slots)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing varies
        try:
            for pool in self._slots:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
        # repro: lint-ignore[REP002] GC-time teardown: interpreter
        # shutdown may have torn down anything shutdown() touches
        except Exception:
            pass


def resolve_executor(backend, execution: ExecutionSpec | None = None,
                     retry: RetryPolicy | None = None,
                     on_error: str | None = None,
                     faults: FaultInjector | None = None):
    """The executor a run should use.

    Precedence: an explicit ``backend`` (an :class:`Executor` instance,
    or the name ``"inline"`` / ``"process"`` / ``"distributed"`` —
    names take ``workers`` / ``queue`` from the spec's ``execution``
    block) overrides the block;
    ``backend=None`` defers to ``execution`` (default: inline).

    ``retry`` / ``on_error`` / ``faults`` are the programmatic
    overrides of the block's resilience fields (``None`` defers to the
    block); they configure the built executor and are rejected when
    ``backend`` is already a constructed :class:`Executor` instance —
    configure the instance itself instead.
    """
    if backend is not None and not isinstance(backend, str):
        if not isinstance(backend, Executor):
            raise SpecError(f"not an execution backend: "
                            f"{type(backend).__name__} "
                            f"(need an Executor, 'inline', 'process', "
                            f"or 'distributed')")
        if retry is not None or on_error is not None or faults is not None:
            raise SpecError(
                "retry/on_error/faults overrides do not apply to an "
                "already-constructed Executor instance; pass them to "
                "the executor's constructor instead")
        return backend
    block = execution if execution is not None else ExecutionSpec()
    retry = retry if retry is not None else block.retry
    on_error = on_error if on_error is not None else block.on_error
    name = block.backend if backend is None else backend
    if name not in _EXECUTION_BACKENDS:
        raise SpecError(f"unknown execution backend {name!r} "
                        f"(known: {', '.join(_EXECUTION_BACKENDS)})")
    return ExecutionSpec(backend=name, workers=block.workers, retry=retry,
                         on_error=on_error,
                         queue=block.queue).build(faults=faults)
