"""Diagnostics-as-a-service: server lifecycle, scheduling, metering.

Pins the acceptance bar of the service layer:

- submit -> stream -> status happy path, with streamed records
  **bit-identical** to inline ``api.run(spec)`` — cold, cached and
  screening paths included (the service adds scheduling and transport,
  never physics),
- cancel: a queued run is dequeued without ever touching an executor; a
  running run's stream is abandoned deterministically mid-flight and
  the pending engine work actually stops,
- a drained token bucket is 429 → :class:`RateLimitError` with the
  server's suggested backoff; a malformed spec is 400 →
  :class:`SpecError`; an execution-time failure is 500 →
  :class:`ExecutionError` — symmetric with what an inline run raises,
- the priority queue schedules full-fidelity before ``screening`` and
  round-robins across clients within a tier,
- ``ServeSpec`` round-trips through JSON like every other spec kind,
  and the rate limiter / usage ledger behave with an injectable clock.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.api.resilience import RetryPolicy
from repro.errors import (
    ExecutionError,
    RateLimitError,
    ServiceError,
    SpecError,
)
from repro.service import (
    DiagnosticsServer,
    PriorityJobQueue,
    RateLimiter,
    ServeSpec,
    ServiceClient,
    TokenBucket,
    UsageLedger,
)
import repro.service.runtime as runtime_mod
from repro.service.runtime import record_to_wire

CA_DWELL = 6.0  # short dwell keeps the suite fast; physics unchanged

# Per-record provenance keys that legitimately vary between equivalent
# executions (timing, cache disposition, store shape); everything else
# must match bit for bit.
_VOLATILE_PROVENANCE = ("wall_time_s", "store", "cached")


def small_fleet(cells: int = 2, seed: int = 40) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL)


def canon(wire: dict) -> dict:
    """A wire record normalised for bit-identity comparison: JSON
    round-tripped (exactly what the HTTP layer does) with volatile
    provenance stripped."""
    wire = json.loads(json.dumps(wire))
    provenance = wire.get("provenance")
    if isinstance(provenance, dict):
        for key in _VOLATILE_PROVENANCE:
            provenance.pop(key, None)
    return wire


def wait_for(predicate, timeout: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def server(tmp_path):
    spec = ServeSpec(dispatchers=2, store=str(tmp_path / "store"))
    with DiagnosticsServer(spec) as srv:
        yield srv


# ---------------------------------------------------------------------------
# ServeSpec: the deployment is a spec like any other
# ---------------------------------------------------------------------------

class TestServeSpec:
    def test_json_round_trip(self):
        spec = ServeSpec(host="0.0.0.0", port=8123, backend="process",
                         workers=3, dispatchers=4, store="/tmp/store",
                         rate_capacity=5.0, rate_refill_per_s=2.0,
                         retry=RetryPolicy(max_attempts=2),
                         on_error="partial")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ServeSpec.from_dict(payload) == spec
        assert payload["kind"] == "serve"

    def test_defaults_round_trip(self):
        assert ServeSpec.from_dict(ServeSpec().to_dict()) == ServeSpec()

    @pytest.mark.parametrize("kwargs", [
        {"backend": "quantum"},
        {"port": 70000},
        {"workers": 0},
        {"dispatchers": 0},
        {"rate_capacity": -1.0},
        {"rate_refill_per_s": 0.0},
        {"on_error": "ignore"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            ServeSpec(**kwargs)

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ServeSpec.from_dict({"kind": "assay"})


# ---------------------------------------------------------------------------
# PriorityJobQueue: tier before everything, fairness within a tier
# ---------------------------------------------------------------------------

class _StubJob:
    def __init__(self, job_id: str) -> None:
        self.id = job_id


class TestPriorityJobQueue:
    def test_round_robin_across_clients_preserves_client_fifo(self):
        q = PriorityJobQueue()
        for name in ("a1", "a2", "a3"):
            q.push(_StubJob(name), client="alice")
        q.push(_StubJob("b1"), client="bob")
        order = [q.pop(timeout=0).id for _ in range(4)]
        # bob's single job is served second, not behind alice's backlog;
        # alice's own jobs keep their submission order.
        assert order == ["a1", "b1", "a2", "a3"]

    def test_screening_never_delays_full_fidelity(self):
        q = PriorityJobQueue()
        q.push(_StubJob("scout"), client="alice", screening=True)
        q.push(_StubJob("clinical"), client="bob")
        assert q.pop(timeout=0).id == "clinical"
        assert q.pop(timeout=0).id == "scout"

    def test_remove_dequeues_and_reports_absence(self):
        q = PriorityJobQueue()
        q.push(_StubJob("j1"), client="alice")
        q.push(_StubJob("j2"), client="alice")
        assert q.remove("j1") is True
        assert q.remove("j1") is False          # already gone
        assert q.remove("never-queued") is False
        assert q.depth()["total"] == 1
        assert q.pop(timeout=0).id == "j2"

    def test_depth_reports_tiers_and_clients(self):
        q = PriorityJobQueue()
        q.push(_StubJob("n1"), client="alice")
        q.push(_StubJob("s1"), client="alice", screening=True)
        q.push(_StubJob("n2"), client="bob")
        depth = q.depth()
        assert depth == {"total": 3, "normal": 2, "screening": 1,
                         "clients": {"alice": 2, "bob": 1}}

    def test_pop_times_out_empty(self):
        assert PriorityJobQueue().pop(timeout=0.01) is None

    def test_close_wakes_pops_and_rejects_pushes_but_drains(self):
        q = PriorityJobQueue()
        q.push(_StubJob("queued-before-close"), client="alice")
        q.close()
        with pytest.raises(ServiceError):
            q.push(_StubJob("late"), client="alice")
        assert q.pop(timeout=0).id == "queued-before-close"
        assert q.pop(timeout=10) is None        # returns, doesn't block


# ---------------------------------------------------------------------------
# Rate limiting + usage accounting (injectable clock: no sleeps)
# ---------------------------------------------------------------------------

class TestRateLimiting:
    def test_token_bucket_drains_and_refills(self):
        now = [0.0]
        bucket = TokenBucket(capacity=2, refill_per_s=1.0,
                             clock=lambda: now[0])
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        ok, retry_after = bucket.try_acquire()
        assert not ok and retry_after == pytest.approx(1.0)
        now[0] = 1.0                             # one token refilled
        assert bucket.try_acquire() == (True, 0.0)

    def test_limiter_keys_are_independent(self):
        now = [0.0]
        limiter = RateLimiter(capacity=1, refill_per_s=1.0,
                              clock=lambda: now[0])
        assert limiter.try_acquire("alice")[0]
        assert not limiter.try_acquire("alice")[0]
        assert limiter.try_acquire("bob")[0]     # own bucket

    def test_zero_capacity_disables_limiting(self):
        limiter = RateLimiter(capacity=0, refill_per_s=1.0)
        assert not limiter.enabled
        assert all(limiter.try_acquire("x")[0] for _ in range(100))

    def test_ledger_persists_and_reloads(self, tmp_path):
        path = tmp_path / "usage.json"
        ledger = UsageLedger(path)
        ledger.note_submitted("alice")
        ledger.note_completed("alice", jobs=3, solve_steps=120,
                              wall_time_s=0.5)
        ledger.note_rejected("mallory")
        reloaded = UsageLedger(path).snapshot()
        assert reloaded["alice"] == {"runs": 1, "jobs": 3,
                                     "solve_steps": 120,
                                     "wall_time_s": 0.5, "rejected": 0}
        assert reloaded["mallory"]["rejected"] == 1


# ---------------------------------------------------------------------------
# Server lifecycle: the HTTP contract end to end
# ---------------------------------------------------------------------------

class TestServerLifecycle:
    def test_submit_stream_status_happy_path(self, server):
        spec = small_fleet(cells=2, seed=96)
        client = ServiceClient(server.port, api_key="alice")

        health = client.health()
        assert health["status"] == "ok"
        assert health["backend"] == "inline"

        submitted = client.submit(spec)
        job_id = submitted["id"]
        assert submitted["status"] in ("queued", "running", "done")

        records = client.records(job_id)
        inline = [record_to_wire(r) for r in api.iter_results(spec)]
        assert [canon(r) for r in records] == [canon(w) for w in inline]

        status = client.status(job_id)
        assert status["status"] == "done"
        assert status["kind"] == "fleet"
        assert status["client"] == "alice"
        assert status["n_records"] == status["n_jobs"] == 2
        assert status["provenance"]["spec_hash"] \
            == inline[-1]["provenance"]["spec_hash"]

        stats = client.stats()
        assert stats["jobs"].get("done", 0) >= 1
        assert stats["usage"]["alice"]["runs"] == 1
        assert stats["usage"]["alice"]["jobs"] == 2
        assert stats["usage"]["alice"]["solve_steps"] > 0
        assert stats["store"]["misses"] == 2

    def test_cached_and_screening_paths_stay_bit_identical(self, server):
        spec = small_fleet(cells=2, seed=97)
        alice = ServiceClient(server.port, api_key="alice")
        bob = ServiceClient(server.port, api_key="bob")

        cold = alice.records(alice.submit(spec)["id"])
        assert all(not r["provenance"]["cached"] for r in cold)

        # A different client, the same study: served entirely from the
        # shared warm store — and byte-for-byte what an *inline* warm
        # replay over that same store yields.
        warm = bob.records(bob.submit(spec)["id"])
        assert all(r["provenance"]["cached"] for r in warm)
        inline_warm = [record_to_wire(r) for r in api.iter_results(
            spec, store=api.RunStore(server.spec.store))]
        assert [canon(r) for r in warm] == [canon(w) for w in inline_warm]
        # The physics payload of a cache hit is the cold run's, exactly.
        for c, w in zip(cold, warm):
            assert w["samples"] == c["samples"]
            assert w["result"]["readouts"] == c["result"]["readouts"]
        assert server.runtime.stats()["usage"]["bob"]["solve_steps"] == 0

        # Screening is its own content-addressed family — still
        # bit-identical to inline screening execution.
        screening = alice.records(alice.submit(spec, screening=True)["id"])
        inline = [record_to_wire(r)
                  for r in api.iter_results(spec, screening=True)]
        assert [canon(r) for r in screening] == [canon(w) for w in inline]
        assert [canon(r) for r in screening] != [canon(r) for r in cold]

    def test_wait_submit_returns_terminal_status(self, server):
        client = ServiceClient(server.port)
        status = client.submit(small_fleet(cells=1, seed=98), wait=True)
        assert status["status"] == "done"
        assert status["n_records"] == 1
        assert "wall_time_s" in status

    def test_stream_without_samples_drops_only_samples(self, server):
        spec = small_fleet(cells=1, seed=99)
        client = ServiceClient(server.port)
        job_id = client.submit(spec)["id"]
        full = client.records(job_id, samples=True)
        slim = client.records(job_id, samples=False)
        assert "samples" in full[0] and "samples" not in slim[0]
        assert canon(slim[0]) == canon(
            {k: v for k, v in full[0].items() if k != "samples"})

    def test_cancel_mid_stream_stops_pending_work(self, monkeypatch):
        real_iter = runtime_mod.iter_results
        gate = threading.Event()        # test-controlled: releases rec 2
        inner_closed = threading.Event()

        def gated(spec, **kwargs):
            inner = real_iter(spec, **kwargs)

            def gen():
                try:
                    it = iter(inner)
                    yield next(it)              # first record flows
                    assert gate.wait(timeout=30)
                    for record in it:
                        yield record
                finally:
                    inner.close()               # pending engine work stops
                    inner_closed.set()

            return gen()

        monkeypatch.setattr(runtime_mod, "iter_results", gated)
        spec = small_fleet(cells=3, seed=90)
        with DiagnosticsServer(ServeSpec(dispatchers=1)) as server:
            client = ServiceClient(server.port)
            job_id = client.submit(spec)["id"]
            wait_for(lambda: client.status(job_id)["n_records"] == 1,
                     what="first record")
            client.cancel(job_id)       # dispatcher is parked at the gate
            gate.set()                  # record 2 arrives, cancel trips
            wait_for(lambda: client.status(job_id)["status"] == "cancelled",
                     what="cancellation to settle")
            status = client.status(job_id)
            assert status["n_records"] == 2     # record 3 never produced
            assert inner_closed.wait(timeout=10)
            # The stream endpoint of a cancelled run terminates cleanly.
            lines = list(client.stream(job_id, samples=False))
            assert lines[-1] == {"event": "end", "id": job_id,
                                 "status": "cancelled", "n_records": 2}

    def test_cancel_queued_job_never_runs(self, monkeypatch):
        real_iter = runtime_mod.iter_results
        release = threading.Event()

        def gated(spec, **kwargs):
            inner = real_iter(spec, **kwargs)

            def gen():
                try:
                    assert release.wait(timeout=30)
                    yield from inner
                finally:
                    inner.close()

            return gen()

        monkeypatch.setattr(runtime_mod, "iter_results", gated)
        with DiagnosticsServer(ServeSpec(dispatchers=1)) as server:
            client = ServiceClient(server.port)
            first = client.submit(small_fleet(cells=1, seed=91))["id"]
            wait_for(lambda: client.status(first)["status"] == "running",
                     what="dispatcher to pick up the first run")
            queued = client.submit(small_fleet(cells=1, seed=92))["id"]
            assert client.status(queued)["status"] == "queued"
            assert client.cancel(queued)["status"] == "cancelled"
            assert client.status(queued)["n_records"] == 0
            release.set()
            wait_for(lambda: client.status(first)["status"] == "done",
                     what="the unrelated run to finish")

    def test_rate_limit_is_429_rate_limit_error(self):
        spec = ServeSpec(rate_capacity=2.0, rate_refill_per_s=0.001)
        with DiagnosticsServer(spec) as server:
            greedy = ServiceClient(server.port, api_key="greedy")
            fleet = small_fleet(cells=1, seed=93)
            greedy.submit(fleet)
            greedy.submit(fleet)
            with pytest.raises(RateLimitError) as err:
                greedy.submit(fleet)
            assert err.value.retry_after_s > 0
            # Another key has its own bucket, and the rejection is
            # metered against the offender only.
            ServiceClient(server.port, api_key="patient").submit(fleet)
            usage = greedy.stats()["usage"]
            assert usage["greedy"]["rejected"] == 1
            assert usage["patient"]["rejected"] == 0

    def test_malformed_spec_is_400_spec_error(self, server):
        client = ServiceClient(server.port)
        with pytest.raises(SpecError):
            client.submit({"kind": "definitely-not-a-kind"})
        # A parse failure never reaches the registry or the queue.
        assert client.stats()["jobs"] == {}

    def test_non_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/runs", body=b"not json at all")
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert payload["error_type"] == "SpecError"

    def test_unknown_run_is_404_service_error(self, server):
        client = ServiceClient(server.port)
        with pytest.raises(ServiceError, match="run-999999"):
            client.status("run-999999")
        with pytest.raises(ServiceError, match="run-999999"):
            client.cancel("run-999999")

    def test_execution_failure_is_500_execution_error(self, monkeypatch):
        def exploding(spec, **kwargs):
            raise ExecutionError("worker pool detonated")

        monkeypatch.setattr(runtime_mod, "iter_results", exploding)
        with DiagnosticsServer(ServeSpec(dispatchers=1)) as server:
            client = ServiceClient(server.port)
            # The blocking path re-raises the server's recorded error
            # class — symmetric with inline execution.
            with pytest.raises(ExecutionError, match="detonated"):
                client.submit(small_fleet(cells=1, seed=94), wait=True)
            # The async path records the same failure; the stream's end
            # line carries it and the client re-raises from there too.
            job_id = client.submit(small_fleet(cells=1, seed=95))["id"]
            with pytest.raises(ExecutionError, match="detonated"):
                client.records(job_id)
            status = client.status(job_id)
            assert status["status"] == "failed"
            assert status["error_type"] == "ExecutionError"


class TestBoundedShutdown:
    """Shutdown ends every run in a bounded time, even one waiting on a
    distributed worker that is not there."""

    #: close() waits two grace periods at most; the rest is slack for
    #: a loaded host.
    EXIT_BOUND_S = 4 * runtime_mod._CLOSE_GRACE_S

    @staticmethod
    def _wait_running(client, job_id):
        deadline = time.monotonic() + 30.0
        while client.status(job_id)["status"] != "running":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.02)

    def test_stop_cancels_a_run_waiting_on_no_worker(self, tmp_path):
        server = DiagnosticsServer(ServeSpec(
            backend="distributed", queue=str(tmp_path / "q"),
            dispatchers=1))
        server.start()
        try:
            client = ServiceClient(server.port)
            job_id = client.submit(small_fleet(cells=1, seed=96))["id"]
            self._wait_running(client, job_id)
        finally:
            start = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - start
        assert elapsed < self.EXIT_BOUND_S
        assert server.runtime.registry.get(job_id).status == "cancelled"
        # The interrupted stream's teardown removed its unclaimed task.
        assert list((tmp_path / "q" / "tasks").iterdir()) == []

    def test_sigint_exits_bounded_with_a_distributed_run_in_flight(
            self, tmp_path):
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        queue = tmp_path / "q"
        # A suite started in the background by a non-interactive shell
        # inherits SIGINT as ignored, and so would the server; restore
        # Python's KeyboardInterrupt handler before serving.
        launch = ("import signal, sys; "
                  "signal.signal(signal.SIGINT, signal.default_int_handler); "
                  "from repro.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", launch, "serve", "--backend",
             "distributed", "--queue", str(queue), "--dispatchers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            client = ServiceClient(port)
            job_id = client.submit(small_fleet(cells=1, seed=97))["id"]
            self._wait_running(client, job_id)
            start = time.monotonic()
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=self.EXIT_BOUND_S)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert elapsed < self.EXIT_BOUND_S
        # Every run ended terminal: the one in flight was cancelled.
        assert "stopped (runs: cancelled=1)" in out, out
        assert list((queue / "tasks").iterdir()) == []
