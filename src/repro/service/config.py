"""The declarative server configuration: :class:`ServeSpec`.

Mirrors the spec discipline of :mod:`repro.api.specs` — a frozen,
validated, JSON-round-trippable dataclass — so a server deployment is
as reproducible an artifact as an assay: the CLI ``repro serve`` can
take either flags or a spec file, and a test can construct the exact
server it needs in one expression.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.api.resilience import RetryPolicy
from repro.api.specs import _EXECUTION_BACKENDS
from repro.errors import SpecError

__all__ = ["ServeSpec"]


@dataclass(frozen=True)
class ServeSpec:
    """Everything a diagnostics server needs to come up.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for a free port (the
        bound port is reported by :meth:`DiagnosticsServer.start` and
        printed by the CLI) — the right default for tests and CI.
    backend:
        Execution backend for every submitted run: ``"inline"`` (fused
        in-process reference), ``"process"`` (worker-process slots,
        kept per dispatcher for the server's lifetime so process spawn
        is paid once, not per request) or ``"distributed"`` (a shared
        queue, see ``queue``).  The server's backend is authoritative — a
        submitted spec's own ``execution`` block is ignored, because
        worker capacity belongs to the deployment, not the request.
    workers:
        Worker slots per dispatcher (``None``: one per core).
    dispatchers:
        Parallel dispatcher threads, each owning its own executor; the
        job queue feeds them fairly.
    store:
        ``RunStore`` root directory shared by every dispatcher (warm
        multiplexing — one client's run warms the next client's), or
        ``None`` to serve without caching.  Usage accounting persists
        next to it (``<store>.usage.json``).
    queue:
        Shared queue directory for ``backend="distributed"`` — the
        server publishes every run's units there and independent
        ``repro worker`` processes (any host sharing the file system)
        execute them.  Required for the distributed backend, rejected
        otherwise.
    rate_capacity, rate_refill_per_s:
        Per-client token bucket: burst size and sustained submissions
        per second.  ``rate_capacity=0`` disables limiting.
    retry, on_error:
        Supervised-execution policy applied to every run (see
        :class:`~repro.api.resilience.RetryPolicy`); defaults to plain
        fail-fast execution.
    """

    host: str = "127.0.0.1"
    port: int = 0
    backend: str = "inline"
    workers: int | None = None
    dispatchers: int = 2
    store: str | None = None
    queue: str | None = None
    rate_capacity: float = 0.0
    rate_refill_per_s: float = 1.0
    retry: RetryPolicy | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.backend not in _EXECUTION_BACKENDS:
            raise SpecError(
                f"serve spec: unknown backend {self.backend!r} "
                f"(known: {', '.join(_EXECUTION_BACKENDS)})")
        if not (0 <= int(self.port) <= 65535):
            raise SpecError(f"serve spec: port out of range: {self.port}")
        if self.workers is not None and int(self.workers) < 1:
            raise SpecError(f"serve spec: workers must be >= 1, "
                            f"got {self.workers}")
        if int(self.dispatchers) < 1:
            raise SpecError(f"serve spec: dispatchers must be >= 1, "
                            f"got {self.dispatchers}")
        if self.queue is not None and not isinstance(self.queue, str):
            raise SpecError(f"serve spec: queue must be a directory "
                            f"path, got {type(self.queue).__name__}")
        if self.backend == "distributed" and self.queue is None:
            raise SpecError("serve spec: the distributed backend needs "
                            "a queue directory (queue / --queue)")
        if self.queue is not None and self.backend != "distributed":
            raise SpecError("serve spec: queue only applies to the "
                            "distributed backend")
        if float(self.rate_capacity) < 0:
            raise SpecError(f"serve spec: rate_capacity must be >= 0, "
                            f"got {self.rate_capacity}")
        if float(self.rate_refill_per_s) <= 0:
            raise SpecError(f"serve spec: rate_refill_per_s must be > 0, "
                            f"got {self.rate_refill_per_s}")
        if self.on_error not in ("raise", "partial"):
            raise SpecError(f"serve spec: on_error must be 'raise' or "
                            f"'partial', got {self.on_error!r}")

    def to_dict(self) -> dict:
        return {"kind": "serve", "host": self.host, "port": int(self.port),
                "backend": self.backend,
                "workers": (int(self.workers)
                            if self.workers is not None else None),
                "dispatchers": int(self.dispatchers),
                "store": self.store,
                "queue": self.queue,
                "rate_capacity": float(self.rate_capacity),
                "rate_refill_per_s": float(self.rate_refill_per_s),
                "retry": (self.retry.to_dict()
                          if self.retry is not None else None),
                "on_error": self.on_error}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "serve spec") -> "ServeSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object")
        kind = payload.get("kind", "serve")
        if kind != "serve":
            raise SpecError(f"{path}: expected kind 'serve', got {kind!r}")
        retry = payload.get("retry")
        workers = payload.get("workers")
        return cls(
            host=str(payload.get("host", "127.0.0.1")),
            port=int(payload.get("port", 0)),
            backend=str(payload.get("backend", "inline")),
            workers=int(workers) if workers is not None else None,
            dispatchers=int(payload.get("dispatchers", 2)),
            store=payload.get("store"),
            queue=payload.get("queue"),
            rate_capacity=float(payload.get("rate_capacity", 0.0)),
            rate_refill_per_s=float(payload.get("rate_refill_per_s", 1.0)),
            retry=(RetryPolicy.from_dict(retry, f"{path}.retry")
                   if retry is not None else None),
            on_error=str(payload.get("on_error", "raise")))
