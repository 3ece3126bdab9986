"""Job lifecycle and the dispatcher threads that execute the queue.

The runtime is the synchronous heart of the service — everything the
asyncio HTTP layer does is submit into it or snapshot out of it:

- :class:`JobState` — one submitted run: status machine (``queued →
  running → done | failed | cancelled``), the accumulated wire records,
  and a cancel event the dispatcher checks between records.
- :class:`JobRegistry` — id-keyed, thread-safe job lookup.
- :class:`ServiceRuntime` — owns the :class:`~repro.service.queue.
  PriorityJobQueue`, the :class:`~repro.service.ratelimit.RateLimiter`
  + :class:`~repro.service.ratelimit.UsageLedger`, the shared warm
  :class:`~repro.api.store.RunStore`, and N dispatcher threads.

Each dispatcher owns its **own** executor for the lifetime of the
server, built from the deployment's backend settings
(:meth:`~repro.api.specs.ExecutionSpec.build`).  With the process
backend that executor keeps its worker slots until the server closes,
so the dominant fixed cost of a small run — spawning worker processes —
is paid once per dispatcher, not once per request.  Runs execute
through the ordinary front door (:func:`repro.api.iter_results` /
:func:`repro.api.run`), so streamed records are bit-identical to inline
execution of the same spec: the service adds scheduling, never physics.

Cancellation is cooperative at record granularity: the dispatcher
checks the job's cancel event between records and abandons the stream,
which tears down in-flight engine work through the execution core's
abandoned-stream path (units in flight stopped; a killed process slot
respawns lazily).  A still-queued job is cancelled by removal from the
queue — it never touches an executor.
"""

from __future__ import annotations

import threading
import time

from repro.api.records import AssayRunRecord
from repro.api.runner import iter_results, run
from repro.api.specs import ExecutionSpec, spec_from_dict
from repro.api.store import RunStore
from repro.errors import RateLimitError, ReproError, ServiceError
from repro.io.export import panel_result_to_payload
from repro.service.config import ServeSpec
from repro.service.queue import PriorityJobQueue
from repro.service.ratelimit import RateLimiter, UsageLedger

__all__ = ["JobState", "JobRegistry", "ServiceRuntime"]

_STREAMABLE_KINDS = ("assay", "fleet", "sweep")
_TERMINAL = ("done", "failed", "cancelled")

#: How long each phase of :meth:`ServiceRuntime.close` waits for the
#: dispatchers: once after cancelling every run, once more after
#: closing the executors.
_CLOSE_GRACE_S = 2.0


def record_to_wire(record, samples: bool = True,
                   arrays: bool = False) -> dict:
    """A record's NDJSON wire payload: ``to_dict()`` plus, for live
    assay results, the lossless ``samples`` section — the same recipe
    :meth:`~repro.api.store.RunStore.put_job` persists, so a streamed
    record carries everything needed to rebuild the result bit for
    bit.  ``arrays=True`` keeps the sample arrays as ``numpy`` arrays
    (a quarter of the memory of float lists) for an encoder that lists
    them as it writes, as the server's does."""
    wire = record.to_dict()
    if (samples and isinstance(record, AssayRunRecord)
            and record.result is not None):
        wire["samples"] = panel_result_to_payload(record.result,
                                                  arrays=arrays)
    return wire


class JobState:
    """One submitted run, from queue to terminal status."""

    def __init__(self, job_id: str, client: str, kind: str,
                 spec, screening, tier_screening: bool,
                 n_jobs: int | None) -> None:
        self.id = job_id
        self.client = client
        self.kind = kind
        self.spec = spec
        self.screening = screening          # submit-time override (or None)
        self.tier_screening = tier_screening  # queue tier actually used
        self.n_jobs = n_jobs
        self.status = "queued"
        self.error: dict | None = None
        self.cancel = threading.Event()
        self.submitted_at = time.time()
        self.wall_time_s: float | None = None
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._started = None

    # -- dispatcher-side transitions (one dispatcher per job) ------------------

    def mark_running(self) -> None:
        with self._lock:
            self.status = "running"
            self._started = time.perf_counter()

    def append(self, wire: dict) -> None:
        with self._lock:
            self._records.append(wire)

    def finish(self, status: str, error: dict | None = None) -> None:
        with self._lock:
            if self.status in _TERMINAL:
                return
            self.status = status
            self.error = error
            if self._started is not None:
                self.wall_time_s = time.perf_counter() - self._started

    # -- reader-side snapshots -------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def n_records(self) -> int:
        with self._lock:
            return len(self._records)

    def records_from(self, start: int) -> tuple[list[dict], bool]:
        """``(records[start:], terminal)`` in one consistent snapshot —
        the streaming endpoint's incremental read."""
        with self._lock:
            return self._records[start:], self.status in _TERMINAL

    def describe(self) -> dict:
        """The ``GET /v1/runs/<id>`` status + provenance payload."""
        with self._lock:
            out = {"id": self.id, "client": self.client,
                   "kind": self.kind, "status": self.status,
                   "screening": self.tier_screening,
                   "submitted_at": self.submitted_at,
                   "n_records": len(self._records),
                   "n_jobs": self.n_jobs}
            if self.wall_time_s is not None:
                out["wall_time_s"] = self.wall_time_s
            if self.error is not None:
                out["error"] = self.error["message"]
                out["error_type"] = self.error["type"]
            if self._records:
                out["provenance"] = self._records[-1].get("provenance")
            return out


class JobRegistry:
    """Thread-safe id → :class:`JobState` map with stable job ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, JobState] = {}
        self._counter = 0

    def create(self, client: str, kind: str, spec, screening,
               tier_screening: bool, n_jobs: int | None) -> JobState:
        with self._lock:
            self._counter += 1
            job_id = f"run-{self._counter:06d}"
            job = JobState(job_id, client, kind, spec, screening,
                           tier_screening, n_jobs)
            self._jobs[job_id] = job
            return job

    def get(self, job_id: str) -> JobState | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[JobState]:
        with self._lock:
            return list(self._jobs.values())

    def by_status(self) -> dict[str, int]:
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts


class ServiceRuntime:
    """Queue + registry + rate limiting + N executor-owning dispatchers."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self.queue = PriorityJobQueue()
        self.registry = JobRegistry()
        self.limiter = RateLimiter(spec.rate_capacity,
                                   spec.rate_refill_per_s)
        self.store = RunStore(spec.store) if spec.store else None
        self.ledger = UsageLedger(
            self.store.root / "usage.json" if self.store else None)
        self._resilience_totals: dict[str, int] = {}
        self._resilience_lock = threading.Lock()
        self._closing = False
        execution = ExecutionSpec(backend=spec.backend, workers=spec.workers,
                                  retry=spec.retry, on_error=spec.on_error,
                                  queue=spec.queue)
        self._executors = [execution.build()
                           for _ in range(spec.dispatchers)]
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop,
                             args=(executor,), daemon=True,
                             name=f"repro-dispatch-{i}")
            for i, executor in enumerate(self._executors)]
        for thread in self._dispatchers:
            thread.start()

    # -- submission ------------------------------------------------------------

    def submit(self, client: str, payload, screening=None) -> JobState:
        """Parse, rate-limit, register and enqueue one run.

        Raises :class:`~repro.errors.SpecError` for a malformed spec
        (the HTTP layer's 400) and :class:`~repro.errors.RateLimitError`
        for a drained token bucket (429).
        """
        ok, retry_after = self.limiter.try_acquire(client)
        if not ok:
            self.ledger.note_rejected(client)
            raise RateLimitError(
                f"client {client!r} exceeded its submission rate "
                f"(retry after {retry_after:.2f}s)",
                retry_after_s=retry_after)
        spec = spec_from_dict(payload)  # SpecError propagates -> 400
        kind = payload.get("kind", "?")
        tier_screening = bool(screening) if screening is not None \
            else self._declared_screening(payload)
        n_jobs = self._count_jobs(spec, kind)
        job = self.registry.create(client, kind, spec, screening,
                                   tier_screening, n_jobs)
        self.ledger.note_submitted(client)
        self.queue.push(job, client, screening=tier_screening)
        return job

    @staticmethod
    def _declared_screening(payload) -> bool:
        if payload.get("screening"):
            return True
        assays = payload.get("assays")
        return isinstance(assays, list) and any(
            isinstance(a, dict) and a.get("screening") for a in assays)

    @staticmethod
    def _count_jobs(spec, kind: str) -> int | None:
        if kind == "assay":
            return 1
        if kind == "fleet":
            return len(spec.assays)
        if kind == "sweep":
            return len(spec.compile().assays)
        return None

    # -- cancellation ----------------------------------------------------------

    def cancel(self, job_id: str) -> JobState:
        """Cancel a job: dequeue it if still queued, or flag the
        dispatcher to abandon its stream.  Terminal jobs are left
        untouched (the response reports their final status)."""
        job = self.registry.get(job_id)
        if job is None:
            raise ServiceError(f"no such run: {job_id}")
        job.cancel.set()
        if self.queue.remove(job_id):
            job.finish("cancelled")
        return job

    # -- the dispatcher loop ---------------------------------------------------

    def _dispatch_loop(self, executor) -> None:
        while True:
            job = self.queue.pop(timeout=0.1)
            if job is None:
                if self._closing:
                    break
                continue
            if self._closing or job.cancel.is_set():
                job.finish("cancelled")
                continue
            self._execute(job, executor)

    def _execute(self, job: JobState, executor) -> None:
        job.mark_running()
        solve_steps = 0
        last_resilience = None
        cancelled = False
        try:
            if job.kind in _STREAMABLE_KINDS:
                stream = iter_results(job.spec, backend=executor,
                                      store=self.store,
                                      screening=job.screening)
                try:
                    for record in stream:
                        if not record.cached and record.engine is not None:
                            # Engine stats stream cumulatively; the last
                            # fresh record carries the run's total.
                            solve_steps = record.engine.n_solve_steps
                        if record.resilience is not None:
                            last_resilience = record.resilience
                        job.append(record_to_wire(record, arrays=True))
                        if job.cancel.is_set():
                            cancelled = True
                            break
                finally:
                    # Abandoning the stream is what stops pending engine
                    # work: the core stops the units in flight, and a
                    # killed process slot respawns on the next run.
                    stream.close()
            else:
                # Calibration / platform / explore runs are indivisible:
                # one final record, no mid-run cancellation point.
                record = run(job.spec, store=self.store,
                             screening=job.screening)
                engine = getattr(record, "engine", None)
                if engine is not None:
                    solve_steps = engine.n_solve_steps
                job.append(record_to_wire(record, arrays=True))
        except ReproError as exc:
            # A cancelled run may end in an error: the shutdown path
            # interrupts a stream by closing its executor.
            if job.cancel.is_set():
                job.finish("cancelled")
            else:
                job.finish("failed", {"type": type(exc).__name__,
                                      "message": str(exc)})
        # repro: lint-ignore[REP002] dispatcher boundary: an
        # unclassified bug must still land the job in a terminal
        # failed state instead of killing the dispatcher thread
        except Exception as exc:  # pragma: no cover - defensive
            job.finish("failed", {"type": type(exc).__name__,
                                  "message": str(exc)})
        else:
            job.finish("cancelled" if cancelled or job.cancel.is_set()
                       else "done")
        if last_resilience is not None:
            with self._resilience_lock:
                for key, value in last_resilience.to_dict().items():
                    self._resilience_totals[key] = (
                        self._resilience_totals.get(key, 0) + value)
        self.ledger.note_completed(
            job.client, jobs=job.n_records(), solve_steps=solve_steps,
            wall_time_s=job.wall_time_s or 0.0)

    # -- observability + lifecycle ---------------------------------------------

    def stats(self) -> dict:
        out = {"queue": self.queue.depth(),
               "jobs": self.registry.by_status(),
               "usage": self.ledger.snapshot(),
               "backend": self.spec.backend,
               "dispatchers": self.spec.dispatchers}
        with self._resilience_lock:
            out["resilience"] = dict(self._resilience_totals)
        if self.store is not None:
            out["store"] = self.store.stats().to_dict()
        return out

    def close(self) -> None:
        """Stop accepting work and end every run in a bounded time.

        Every queued and running run is cancelled; a running stream
        stops at its next record.  A stream with no record coming — a
        distributed run whose worker has gone — is interrupted when
        its executor closes, after one grace period.  Any run still
        not terminal after a second grace period is marked cancelled,
        so ``close`` returns within about ``2 * _CLOSE_GRACE_S``.
        """
        self._closing = True
        self.queue.close()
        jobs = self.registry.jobs()
        for job in jobs:
            job.cancel.set()
        self._join_dispatchers(_CLOSE_GRACE_S)
        for executor in self._executors:
            close = getattr(executor, "close", None)
            if close is not None:
                close()
        self._join_dispatchers(_CLOSE_GRACE_S)
        for job in jobs:
            job.finish("cancelled")  # a no-op on terminal runs

    def _join_dispatchers(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
