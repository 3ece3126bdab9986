"""Diagnostics-as-a-service: the traffic-serving layer over `repro.api`.

The paper's "integrated platform for advanced diagnostics" is
ultimately a *service* — many clients submitting assays against shared
instrument capacity — and this package is that seam: a long-lived,
stdlib-only asyncio HTTP/JSON server in front of the existing
spec → run → record pipeline.  The service adds scheduling, metering
and transport; it never touches physics.  Every record it streams is
produced by the same :func:`repro.api.iter_results` /
:func:`repro.api.run` front door an inline caller would use, so served
results are **bit-identical** to local ones — cached, supervised and
screening paths included.

Architecture — one request's path through the layers::

    HTTP client (repro.service.client.ServiceClient, stdlib http.client)
        |  POST /v1/runs          X-API-Key -> client identity
        v
    DiagnosticsServer (server.py, asyncio.start_server + minimal HTTP/1.1)
        |  rate check             RateLimiter: per-client token bucket -> 429
        |  parse                  spec_from_dict: SpecError -> 400
        v
    PriorityJobQueue (queue.py)
        |  two tiers: full-fidelity before `screening`; round-robin
        |  across clients within a tier (fair, starvation-free)
        v
    dispatcher threads (runtime.py, one executor EACH)
        |  ExecutionSpec(...).build(): a process executor keeps its
        |  worker slots for the server's lifetime -- process spawn, the
        |  dominant fixed cost of a small fleet, is amortised away
        v
    repro.api.iter_results(spec, backend=executor, store=shared_store)
        |  per-job records append to JobState as they complete
        v
    GET /v1/runs/<id>/stream  -- chunked NDJSON, live-following, with
                                 lossless `samples` sections
    GET /v1/runs/<id>         -- status + provenance
    DELETE /v1/runs/<id>      -- cancel (dequeues, or abandons the
                                 stream: units in flight actually stop)

Shared state: every dispatcher runs against one warm
:class:`~repro.api.store.RunStore` (atomic record writes, counters
under the store's in-process mutex), so one client's run warms the
next client's cache; the :class:`~repro.service.ratelimit.UsageLedger`
(runs, jobs, engine solve steps, wall time, rejections per API key)
persists next to it.  Server deployment is itself a spec
(:class:`~repro.service.config.ServeSpec` — validated, frozen,
JSON-round-trippable) and the CLI entry is ``repro serve``.

The asyncio loop and the dispatcher threads meet only at thread-safe
seams (the queue, :class:`~repro.service.runtime.JobState` snapshots);
the loop polls, the threads compute, and neither blocks the other.
"""

from repro.service.client import ServiceClient
from repro.service.config import ServeSpec
from repro.service.queue import PriorityJobQueue
from repro.service.ratelimit import RateLimiter, TokenBucket, UsageLedger
from repro.service.runtime import JobRegistry, JobState, ServiceRuntime
from repro.service.server import DiagnosticsServer

__all__ = [
    "ServeSpec",
    "DiagnosticsServer",
    "ServiceClient",
    "ServiceRuntime",
    "JobState",
    "JobRegistry",
    "PriorityJobQueue",
    "TokenBucket",
    "RateLimiter",
    "UsageLedger",
]
