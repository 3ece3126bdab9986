"""Layer spans measured from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces a
fixed set of public functions with timing wrappers, at the name each
calling module looks up (``repro.api.store.hash_payload`` is the seal
and verify step of the store, ``repro.api.jobs.hash_payload`` is job
keying).  Each wrapper records a span: name, layer, start, end and the
span that enclosed it on the same thread.  A layer's self time is its
spans' durations minus the time their child spans cover.

A generator's whole life does not nest on a thread stack (the caller
runs between its steps), so it is recorded as an *interval* that counts
toward its own metric; each resume is a nested span.  Coroutines on the
event loop interleave, so they are intervals only.

Spans stay in memory; :meth:`Tracer.dump` writes them out when a traced
subprocess exits, and :func:`layer_metrics` turns any list of span
records into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict

#: The layers, named after the repo's modules.  ``bench`` is the
#: benchmark's own root span; its self time is the unattributed time.
LAYERS = ("api.specs", "api.jobs", "measurement.panel", "engine.scheduler",
          "electronics", "api.store", "api.distributed", "service")

#: Spans whose nearest enclosing instance gives a nested call its role
#: (the same ``hash_payload`` is a verify under a read, a seal under a
#: write).
_CONTEXTS = ("store.get_job", "store.put_job")

# Span record layout (a list, so the end/child fields can be filled in).
_NAME, _LAYER, _START, _END, _PARENT, _CHILD, _COUNTS = range(7)


class Tracer:
    """Spans and intervals of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.intervals: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        span = [name, layer, time.perf_counter(), None,
                stack[-1] if stack else None, 0.0, None]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = span[_PARENT]
        if parent is not None:
            parent[_CHILD] += span[_END] - span[_START]
        self.spans.append(span)

    def span(self, name: str, layer: str):
        """Context manager form, for the benchmark's own root spans."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.record = tracer.begin(name, layer)
                return self.record

            def __exit__(self, *exc):
                tracer.end(self.record)

        return _Span()

    def interval(self, name: str, layer: str, start: float,
                 end: float) -> None:
        self.intervals.append([name, layer, start, end, None, 0.0, None])

    @staticmethod
    def count(span: list, key: str, value: float) -> None:
        counts = span[_COUNTS]
        if counts is None:
            counts = span[_COUNTS] = {}
        counts[key] = counts.get(key, 0.0) + value

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str,
             after=None, mode: str = "span") -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``after(span, args, result)`` may add counts to the span once
        the call has returned.  ``mode`` is ``"span"`` for a plain call,
        ``"generator"`` or ``"coroutine"`` for an interval.
        """
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod,
                                                staticmethod)) else raw
        tracer = self
        if mode == "generator":
            @functools.wraps(func)
            def timed(*args, **kwargs):
                # Each resume is a nested span (the generator's own work
                # and waits); the whole life is an interval.
                gen = func(*args, **kwargs)
                start = time.perf_counter()
                try:
                    while True:
                        span = tracer.begin(f"{name}.step", layer)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.end(span)
                        yield item
                finally:
                    gen.close()
                    tracer.interval(name, layer, start, time.perf_counter())
        elif mode == "coroutine":
            @functools.wraps(func)
            async def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.interval(name, layer, start, time.perf_counter())
        else:
            @functools.wraps(func)
            def timed(*args, **kwargs):
                span = tracer.begin(name, layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.end(span)
                if after is not None:
                    after(span, args, result)
                return result
        if isinstance(raw, classmethod):
            timed = classmethod(timed)
        elif isinstance(raw, staticmethod):
            timed = staticmethod(timed)
        setattr(owner, attr, timed)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- export ----------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every finished span and interval as a plain record, with its
        self time, the role-giving context it ran under, and whether a
        benchmark root span encloses it."""
        out = []
        for span in self.spans:
            context = None
            rooted = span[_LAYER] == "bench"
            parent = span[_PARENT]
            while parent is not None:
                if context is None and parent[_NAME] in _CONTEXTS:
                    context = parent[_NAME]
                rooted = rooted or parent[_LAYER] == "bench"
                parent = parent[_PARENT]
            duration = span[_END] - span[_START]
            out.append({"name": span[_NAME], "layer": span[_LAYER],
                        "start": span[_START], "end": span[_END],
                        "self": duration - span[_CHILD],
                        "context": context, "counts": span[_COUNTS] or {},
                        "nested": True, "rooted": rooted})
        for item in self.intervals:
            out.append({"name": item[_NAME], "layer": item[_LAYER],
                        "start": item[_START], "end": item[_END],
                        "self": 0.0, "context": None,
                        "counts": item[_COUNTS] or {}, "nested": False,
                        "rooted": False})
        return out

    def dump(self, path: str) -> None:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.records(), handle)
        os.replace(tmp, path)


# -- the instrumented functions ---------------------------------------------------


def _count_len(key: str):
    def after(span, args, result):
        Tracer.count(span, key, len(result))
    return after


def _count_solve(units: str):
    def after(span, args, result):
        batch = args[0]
        Tracer.count(span, "solve_steps", batch.n_solve_steps)
        Tracer.count(span, "fused_units", getattr(batch, units))
        Tracer.count(span, "groups", 1)
    return after


def _count_plan(span, args, result):
    Tracer.count(span, "jobs", len(result))
    Tracer.count(span, "hits", result.n_cached)


def _count_read(span, args, result):
    if result is not None:
        Tracer.count(span, "bytes", len(result.encode()))


def _count_write(span, args, result):
    Tracer.count(span, "bytes", result)


def _count_json_write(span, args, result):
    Tracer.count(span, f"bytes_{os.path.basename(os.path.dirname(result))}",
                 os.path.getsize(result))


def _count_publish(span, args, result):
    # _publish(self, tasks_dir, live, run_id, label, attempt, ...)
    if args[5] > 0:
        Tracer.count(span, "retries", 1)


class _TimedJson:
    """A stand-in for the ``json`` module inside ``repro.api.store``:
    ``loads``/``dumps`` timed, everything else passed through."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def loads(self, *args, **kwargs):
        span = self._tracer.begin("store.json_loads", "api.store")
        try:
            return self._module.loads(*args, **kwargs)
        finally:
            self._tracer.end(span)

    def dumps(self, *args, **kwargs):
        span = self._tracer.begin("store.json_dumps", "api.store")
        try:
            return self._module.dumps(*args, **kwargs)
        finally:
            self._tracer.end(span)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer with ``tracer``."""
    import repro.api.distributed as distributed
    import repro.api.jobs as jobs
    import repro.api.runner as runner
    import repro.api.store as store
    import repro.io.export as export
    from repro.api.specs import AssaySpec, SweepSpec
    from repro.electronics.chain import AcquisitionChain
    from repro.electronics.noise import NoiseModel
    from repro.engine.scheduler import DwellBatch, SweepBatch
    from repro.measurement.panel import PanelProtocol
    from repro.service.client import ServiceClient
    from repro.service.queue import PriorityJobQueue
    from repro.service.runtime import ServiceRuntime
    from repro.service.server import DiagnosticsServer
    import repro.service.runtime as runtime

    wrap = tracer.wrap
    # api.specs
    wrap(SweepSpec, "compile", "specs.compile", "api.specs")
    wrap(AssaySpec, "build_job", "specs.build_job", "api.specs")
    wrap(runner, "hash_payload", "specs.hash_payload", "api.specs")
    wrap(runtime, "spec_from_dict", "specs.parse", "api.specs")
    # api.jobs
    wrap(jobs.JobPlan, "plan", "jobs.plan", "api.jobs", after=_count_plan)
    wrap(jobs, "hash_payload", "jobs.hash_payload", "api.jobs")
    # measurement.panel
    wrap(PanelProtocol, "plan_dwells", "panel.plan_dwells",
         "measurement.panel", after=_count_len("dwells"))
    wrap(PanelProtocol, "plan_sweeps", "panel.plan_sweeps",
         "measurement.panel", after=_count_len("sweeps"))
    wrap(PanelProtocol, "assemble", "panel.assemble", "measurement.panel")
    # engine.scheduler
    wrap(DwellBatch, "simulate", "engine.dwell_solve", "engine.scheduler",
         after=_count_solve("n_dwells"))
    wrap(SweepBatch, "__init__", "engine.sweep_build", "engine.scheduler")
    wrap(SweepBatch, "simulate", "engine.sweep_solve", "engine.scheduler",
         after=_count_solve("n_sweeps"))
    # electronics
    wrap(NoiseModel, "sample", "electronics.noise", "electronics")
    wrap(AcquisitionChain, "digitize_batch", "electronics.digitize",
         "electronics")
    wrap(AcquisitionChain, "digitize", "electronics.digitize",
         "electronics")
    # api.store (the codec functions are looked up in repro.io.export
    # at call time by the store)
    wrap(store.RunStore, "get_job", "store.get_job", "api.store")
    wrap(store.RunStore, "put_job", "store.put_job", "api.store")
    wrap(store.LocalDirDriver, "read", "store.read", "api.store",
         after=_count_read)
    wrap(store.LocalDirDriver, "write", "store.write", "api.store",
         after=_count_write)
    wrap(store, "hash_payload", "store.hash_payload", "api.store")
    wrap(export, "panel_result_to_payload", "store.to_payload", "api.store")
    wrap(export, "panel_result_from_payload", "store.from_payload",
         "api.store")
    tracer._restore.append((store, "json", store.json))
    store.json = _TimedJson(tracer, json)
    # api.distributed
    wrap(distributed.DistributedExecutor, "run_fleet",
         "distributed.submit_to_merge", "api.distributed",
         mode="generator")
    wrap(distributed.DistributedExecutor, "_publish",
         "distributed.publish", "api.distributed", after=_count_publish)
    wrap(distributed, "_run_task", "distributed.worker_compute",
         "api.distributed")
    wrap(distributed, "write_json", "distributed.write_json",
         "api.distributed", after=_count_json_write)
    wrap(distributed, "panel_result_to_payload", "distributed.to_payload",
         "api.distributed")
    wrap(distributed, "panel_result_from_payload",
         "distributed.from_payload", "api.distributed")
    # service
    # The client is the benchmark itself: its wait overlaps the server's
    # spans, so it belongs to no layer's self time.
    wrap(ServiceClient, "submit", "service.client_submit", "client")
    wrap(DiagnosticsServer, "_submit", "service.request", "service",
         mode="coroutine")
    wrap(ServiceRuntime, "_execute", "service.run", "service")
    wrap(runtime, "panel_result_to_payload", "service.to_wire", "service")
    _wrap_queue(tracer, PriorityJobQueue)


def _wrap_queue(tracer: Tracer, queue_cls) -> None:
    """Queue wait is push to pop of the same job: two calls, one
    interval, matched by job id."""
    pushed: dict = {}
    lock = threading.Lock()
    push, pop = queue_cls.push, queue_cls.pop

    def timed_push(self, job, *args, **kwargs):
        with lock:
            pushed[job.id] = time.perf_counter()
        return push(self, job, *args, **kwargs)

    def timed_pop(self, *args, **kwargs):
        job = pop(self, *args, **kwargs)
        if job is not None:
            with lock:
                start = pushed.pop(job.id, None)
            if start is not None:
                tracer.interval("service.queue_wait", "service", start,
                                time.perf_counter())
        return job

    queue_cls.push, queue_cls.pop = timed_push, timed_pop
    tracer._restore.append((queue_cls, "push", push))
    tracer._restore.append((queue_cls, "pop", pop))


# -- aggregation --------------------------------------------------------------------


def layer_metrics(records: list[dict], n_assays: int) -> dict[str, float]:
    """The per-layer metrics of a traced window, per assay completed.

    Times are seconds per assay, counts per assay, ratios plain.  A
    layer that did not run reports 0.
    """
    total: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    by_context: dict[tuple, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for rec in records:
        duration = rec["end"] - rec["start"]
        total[rec["name"]] += duration
        by_context[(rec["name"], rec["context"])] += duration
        for key, value in rec["counts"].items():
            counts[(rec["name"], key)] += value
        if rec["nested"]:
            layer_self[rec["layer"]] += rec["self"]
    per = 1.0 / max(n_assays, 1)

    def t(*names):
        return sum(total[n] for n in names) * per

    def under(context, *names):
        return sum(by_context[(n, context)] for n in names) * per

    def c(name, key):
        return counts[(name, key)]

    groups = c("engine.dwell_solve", "groups") + c("engine.sweep_solve",
                                                   "groups")
    fused = (c("engine.dwell_solve", "fused_units")
             + c("engine.sweep_solve", "fused_units"))
    plan_jobs = c("jobs.plan", "jobs")
    submit_to_merge = t("distributed.submit_to_merge")
    worker = t("distributed.worker_compute")
    request = t("service.request")
    queue_wait = t("service.queue_wait")
    run = t("service.run")
    store_codec = ("store.hash_payload", "store.json_dumps",
                   "store.to_payload")
    metrics = {
        "specs.compile_s": t("specs.compile"),
        "specs.build_s": t("specs.build_job"),
        "jobs.plan_s": t("jobs.plan"),
        "jobs.hit_ratio": c("jobs.plan", "hits") / plan_jobs if plan_jobs
        else 0.0,
        "panel.plan_dwells_s": t("panel.plan_dwells"),
        "panel.plan_sweeps_s": t("panel.plan_sweeps"),
        "panel.assemble_s": t("panel.assemble"),
        "panel.dwells": c("panel.plan_dwells", "dwells") * per,
        "panel.sweeps": c("panel.plan_sweeps", "sweeps") * per,
        "engine.dwell_solve_s": t("engine.dwell_solve"),
        "engine.sweep_solve_s": t("engine.sweep_solve", "engine.sweep_build"),
        "engine.solve_steps": (c("engine.dwell_solve", "solve_steps")
                               + c("engine.sweep_solve", "solve_steps")) * per,
        "engine.fused_per_group": fused / groups if groups else 0.0,
        "electronics.noise_s": t("electronics.noise"),
        "electronics.digitize_s": t("electronics.digitize"),
        "store.get_s": t("store.get_job"),
        "store.read_s": under("store.get_job", "store.read"),
        "store.verify_s": under("store.get_job", "store.hash_payload"),
        "store.decode_s": under("store.get_job", "store.json_loads",
                                "store.from_payload"),
        "store.bytes_read": c("store.read", "bytes") * per,
        "store.put_s": t("store.put_job"),
        "store.encode_s": under("store.put_job", *store_codec),
        "store.write_s": under("store.put_job", "store.write"),
        "store.bytes_written": c("store.write", "bytes") * per,
        "distributed.submit_to_merge_s": submit_to_merge,
        "distributed.worker_compute_s": worker,
        "distributed.transport_wait_s": max(submit_to_merge - worker, 0.0)
        if submit_to_merge else 0.0,
        "distributed.task_bytes": c("distributed.write_json",
                                    "bytes_tasks") * per,
        "distributed.result_bytes": c("distributed.write_json",
                                      "bytes_results") * per,
        "distributed.retries": c("distributed.publish", "retries") * per,
        "service.request_s": request,
        "service.queue_wait_s": queue_wait,
        "service.run_s": run,
        "service.poll_wait_s": max(request - queue_wait - run, 0.0)
        if request else 0.0,
        "service.http_s": max(t("service.client_submit") - request, 0.0)
        if request else 0.0,
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = layer_self[layer] * per
    return metrics


def reconcile(records: list[dict]) -> tuple[float, float, float]:
    """``(root_wall_s, attributed_s, unattributed_s)`` over the
    benchmark's root spans: layer self times plus the roots' own self
    time add up to the roots' wall time."""
    wall = sum(r["end"] - r["start"] for r in records if r["layer"] == "bench")
    unattributed = sum(r["self"] for r in records if r["layer"] == "bench")
    attributed = sum(r["self"] for r in records
                     if r["rooted"] and r["layer"] != "bench")
    return wall, attributed, unattributed
