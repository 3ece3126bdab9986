"""The asyncio HTTP/JSON front of the diagnostics service.

A deliberately minimal HTTP/1.1 layer over ``asyncio.start_server`` —
request line + headers + ``Content-Length`` body in, status line +
JSON out, ``Transfer-Encoding: chunked`` for the NDJSON stream — so the
service needs nothing beyond the standard library.  One connection
serves one request (``Connection: close``); the stdlib client opens a
connection per call, which at diagnostics-run granularity is noise.

Endpoints (all JSON; client identity from the ``X-API-Key`` header,
defaulting to ``"anonymous"``):

==========================  ==================================================
``POST /v1/runs``           Submit any spec kind (body: the spec payload, or
                            ``{"spec": ..., "screening": bool}``).  Returns
                            ``202`` with the job id; ``?wait=1`` blocks until
                            the run is terminal and returns its full status
                            (failures map to 500 there).  Malformed specs are
                            ``400``, drained token buckets ``429`` with
                            ``Retry-After``.
``GET /v1/runs/<id>``       Status + provenance of one run.
``GET /v1/runs/<id>/stream``  Chunked NDJSON: one line per completed job
                            record (``samples`` sections included — streamed
                            records are bit-identical to inline execution),
                            live-following the run, terminated by an
                            ``{"event": "end", ...}`` line.
``DELETE /v1/runs/<id>``    Cancel: dequeues a queued run, interrupts a
                            running one (pending engine work stops).
``GET /v1/health``          Liveness + deployment shape.
``GET /v1/stats``           Queue depth, per-status job counts, store
                            hit/miss, usage ledger, resilience counters.
==========================  ==================================================

The asyncio side never blocks on engine work: submissions enqueue and
return, and watchers (``?wait=1``, ``/stream``) poll the thread-side
:class:`~repro.service.runtime.JobState` snapshots on a short
``asyncio.sleep``.  The bridge is one-way by design — dispatcher
threads know nothing about the event loop.
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.errors import (
    RateLimitError,
    ReproError,
    ServiceError,
    SpecError,
)
from repro.service.config import ServeSpec
from repro.service.runtime import ServiceRuntime

__all__ = ["DiagnosticsServer"]

_POLL_S = 0.02  # status/stream follow-up granularity
_MAX_BODY = 64 * 1024 * 1024
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            429: "Too Many Requests", 500: "Internal Server Error"}


class _WireEncoder(json.JSONEncoder):
    """Lists the sample arrays a job keeps (``record_to_wire(...,
    arrays=True)``) as ``tolist()`` would have stored them."""

    def default(self, value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        return super().default(value)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, cls=_WireEncoder).encode()


class DiagnosticsServer:
    """The long-lived service: a :class:`ServiceRuntime` behind HTTP.

    ``start()`` spins the asyncio loop up on a daemon thread and
    returns the bound port (``ServeSpec.port=0`` → OS-assigned);
    ``stop()`` tears down the listener, the dispatchers and their
    worker pools.  Also usable as a context manager.
    """

    def __init__(self, spec: ServeSpec | None = None) -> None:
        self.spec = spec if spec is not None else ServeSpec()
        self.runtime = ServiceRuntime(self.spec)
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> int:
        """Bind, listen, and return the actual port."""
        ready = threading.Event()
        failure: list[BaseException] = []

        def serve() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._handle, self.spec.host,
                                         self.spec.port))
                self.port = self._server.sockets[0].getsockname()[1]
            # repro: lint-ignore[REP002] thread boundary: any bind
            # failure must be captured and re-raised as ServiceError
            except BaseException as exc:  # pragma: no cover - bind races
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                loop.close()

        self._thread = threading.Thread(target=serve, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        ready.wait(timeout=30)
        if failure:
            raise ServiceError(f"server failed to start: {failure[0]}")
        if self.port is None:
            raise ServiceError("server failed to start: bind timed out")
        return self.port

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.runtime.close()

    def __enter__(self) -> "DiagnosticsServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- one connection, one request -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, headers, body = await self._read_request(
                reader)
        except (ServiceError, ValueError, asyncio.IncompleteReadError,
                ConnectionError):
            writer.close()
            return
        client = headers.get("x-api-key", "anonymous")
        try:
            await self._route(writer, method, path, query, client, body)
        except ConnectionError:  # pragma: no cover - peer went away
            pass
        except RateLimitError as exc:
            await self._respond(
                writer, 429,
                {"error": str(exc), "error_type": "RateLimitError",
                 "retry_after_s": exc.retry_after_s},
                extra=[("Retry-After",
                        str(max(1, round(exc.retry_after_s))))])
        except SpecError as exc:
            await self._respond(writer, 400, {
                "error": str(exc), "error_type": type(exc).__name__})
        except ServiceError as exc:
            await self._respond(writer, 404, {
                "error": str(exc), "error_type": type(exc).__name__})
        except ReproError as exc:
            await self._respond(writer, 500, {
                "error": str(exc), "error_type": type(exc).__name__})
        # repro: lint-ignore[REP002] last-resort 500: a handler bug
        # must not kill the accept loop or hang the client
        except Exception as exc:  # pragma: no cover - defensive
            await self._respond(writer, 500, {
                "error": str(exc), "error_type": type(exc).__name__})
        finally:
            try:
                writer.close()
            # repro: lint-ignore[REP002] teardown guard: close on an
            # already-dead transport raises transport-specific errors
            except Exception:  # pragma: no cover - already closed
                pass

    @staticmethod
    async def _read_request(reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise ServiceError(
                f"malformed request line: {request_line!r}")
        method, target, _version = parts
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip(
                "\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if not 0 <= length <= _MAX_BODY:
            raise ServiceError(f"unreasonable content-length: {length}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), split.path, query, headers, body

    # -- responses -------------------------------------------------------------

    async def _respond(self, writer, status: int, payload: dict,
                       extra=()) -> None:
        body = _encode(payload)
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    @staticmethod
    async def _start_chunked(writer) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer, line: bytes) -> None:
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _route(self, writer, method, path, query, client,
                     body) -> None:
        if path == "/v1/health" and method == "GET":
            await self._respond(writer, 200, {
                "status": "ok", "backend": self.spec.backend,
                "dispatchers": self.spec.dispatchers,
                "store": self.spec.store})
            return
        if path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self.runtime.stats())
            return
        if path == "/v1/runs" and method == "POST":
            await self._submit(writer, query, client, body)
            return
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            if rest.endswith("/stream") and method == "GET":
                await self._stream(writer, rest[:-len("/stream")], query)
                return
            if "/" not in rest:
                if method == "GET":
                    await self._status(writer, rest)
                    return
                if method == "DELETE":
                    await self._cancel(writer, rest)
                    return
                await self._respond(writer, 405, {
                    "error": f"method {method} not allowed"})
                return
        await self._respond(writer, 404, {"error": f"no route: "
                                                   f"{method} {path}"})

    async def _submit(self, writer, query, client, body) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        screening = None
        if "spec" in payload and "kind" not in payload:
            screening = payload.get("screening")
            payload = payload["spec"]
            if not isinstance(payload, dict):
                raise SpecError("'spec' must be a JSON object")
        job = self.runtime.submit(client, payload, screening=screening)
        if query.get("wait") not in (None, "", "0"):
            while not job.terminal:
                await asyncio.sleep(_POLL_S)
            status = job.describe()
            if job.status == "failed":
                # Execution-time failures are the server's fault class,
                # not the request's: 500, with the original error type
                # preserved for the client to re-raise.
                await self._respond(writer, 500, status)
                return
            await self._respond(writer, 200, status)
            return
        await self._respond(writer, 202, {"id": job.id,
                                          "status": job.status})

    async def _status(self, writer, job_id: str) -> None:
        job = self.runtime.registry.get(job_id)
        if job is None:
            raise ServiceError(f"no such run: {job_id}")
        await self._respond(writer, 200, job.describe())

    async def _cancel(self, writer, job_id: str) -> None:
        job = self.runtime.cancel(job_id)
        # Give a running dispatcher a beat to notice; the response then
        # reports the settled status when it settled fast.
        for _ in range(5):
            if job.terminal:
                break
            await asyncio.sleep(_POLL_S)
        await self._respond(writer, 200, {"id": job.id,
                                          "status": job.status})

    async def _stream(self, writer, job_id: str, query) -> None:
        job = self.runtime.registry.get(job_id)
        if job is None:
            raise ServiceError(f"no such run: {job_id}")
        samples = query.get("samples") not in (None, "", "0")
        await self._start_chunked(writer)
        sent = 0
        while True:
            fresh, terminal = job.records_from(sent)
            for wire in fresh:
                if not samples and "samples" in wire:
                    wire = {k: v for k, v in wire.items()
                            if k != "samples"}
                await self._write_chunk(writer, _encode(wire) + b"\n")
            sent += len(fresh)
            if terminal and not fresh:
                break
            if not fresh:
                await asyncio.sleep(_POLL_S)
        end = {"event": "end", "id": job.id, "status": job.status,
               "n_records": sent}
        if job.error is not None:
            end["error"] = job.error["message"]
            end["error_type"] = job.error["type"]
        await self._write_chunk(writer, _encode(end) + b"\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()
