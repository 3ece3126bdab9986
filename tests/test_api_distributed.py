"""Distributed execution: shard queue, claims, row-serving workers.

Pins the acceptance bar of the distributed backend:

- records re-merged from independent worker processes are
  **bit-identical** to the inline reference — plain, screening and
  partially-degraded streams alike (wall time and engine statistics
  excepted, as on every backend),
- claims are atomic: racing workers cannot both win a shard, and every
  job executes exactly once,
- a worker that crashes or wedges mid-unit is detected through its
  stalled claim heartbeat; the unit is reclaimed, re-queued under the
  retry budget, and finished by a surviving worker,
- workers drain and exit once the queue's stop file exists,
- workers serve and warm engine rows cluster-wide, so a second run of
  the same fleet performs **zero** engine solves; job records are the
  submitter's alone: a store-backed run makes one lookup and one write
  per job, its persisted per-job deltas are never negative, and a
  store-less run streams fresh records as inline and process do,
- the storage-driver seam under ``RunStore`` is genuinely pluggable —
  an in-memory driver passes the same round-trip properties the local
  directory driver does,
- a v5 distributed sweep that still carries the ``prefetch`` flag and
  ``shard`` strategy schema v6 removed runs as the same sweep without
  them, and its workers publish and store nothing beyond its grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.api.distributed import (
    DistributedExecutor,
    _try_claim,
    default_store_root,
    ensure_queue,
    run_worker,
)
from repro.api.resilience import FaultInjector, RetryPolicy
from repro.api.store import LocalDirDriver, RunStore, StorageDriver
from repro.errors import ExecutionError, SpecError
from repro.io.export import panel_result_to_payload

CA_DWELL = 2.0  # short dwell keeps the suite fast; physics unchanged


def small_fleet(cells: int = 3, seed: int = 60) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL)


def assert_records_identical(ref, got):
    """Full bit-identity: provenance and every sample of the result."""
    assert ref.job_name == got.job_name
    assert ref.seed == got.seed
    assert ref.spec_hash == got.spec_hash
    assert ref.spec == got.spec
    assert (panel_result_to_payload(ref.result)
            == panel_result_to_payload(got.result))


class WorkerThread(threading.Thread):
    """An in-process worker — fine whenever no crash faults fly.

    ``join`` first drops the queue's stop file, so the worker drains
    what is claimable and exits within one poll, and checks it did.
    """

    def __init__(self, queue, **kwargs) -> None:
        super().__init__(target=run_worker,
                         kwargs=dict(queue=queue, **kwargs), daemon=True)
        self.queue = Path(queue)

    def join(self, timeout=None) -> None:
        ensure_queue(self.queue)
        (self.queue / "stop").touch()
        super().join(timeout)
        assert not self.is_alive(), "worker ignored the stop file"


def start_worker_thread(queue, **kwargs) -> WorkerThread:
    # A stop file left by an earlier worker on this queue would retire
    # the new one before the run publishes anything.
    (Path(queue) / "stop").unlink(missing_ok=True)
    thread = WorkerThread(queue, **kwargs)
    thread.start()
    return thread


def start_worker_process(queue):
    """A real ``repro worker`` subprocess — required for crash faults.
    The caller reads its ready line, so several start in parallel."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue", str(queue)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    return proc


class TestClaimAtomicity:
    def test_exactly_one_racer_wins(self, tmp_path):
        claims = tmp_path / "claims"
        claims.mkdir()
        wins: list[int] = []
        barrier = threading.Barrier(8)

        def racer(k: int) -> None:
            barrier.wait()
            if _try_claim(claims, "task-000") is not None:
                wins.append(k)

        threads = [threading.Thread(target=racer, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        payload = json.loads((claims / "task-000.claim").read_text())
        assert payload["pid"] == os.getpid()

    def test_racing_workers_execute_every_job_once(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=4)
        executor = DistributedExecutor(queue=queue, workers=4)
        threads = [start_worker_thread(queue, max_shards=4)
                   for _ in range(3)]
        records = list(executor.run_fleet(spec))
        for thread in threads:
            thread.join(timeout=30)
        reference = list(api.InlineExecutor().run_fleet(spec))
        assert len(records) == len(reference) == 4
        for ref, got in zip(reference, records):
            assert_records_identical(ref, got)
        # The queue is clean after the stream completes.
        assert list((queue / "tasks").iterdir()) == []
        assert list((queue / "claims").iterdir()) == []
        assert list((queue / "results").iterdir()) == []


class TestBitIdentity:
    def test_single_worker_matches_inline(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet()
        executor = DistributedExecutor(queue=queue, workers=2)
        thread = start_worker_thread(queue)
        records = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        for ref, got in zip(api.InlineExecutor().run_fleet(spec), records):
            assert_records_identical(ref, got)

    def test_screening_stream_matches_inline(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet()
        executor = DistributedExecutor(queue=queue, workers=2)
        thread = start_worker_thread(queue)
        got = list(api.iter_results(spec, backend=executor,
                                    screening=True))
        thread.join(timeout=30)
        ref = list(api.iter_results(spec, screening=True))
        assert len(got) == len(ref)
        for r, g in zip(ref, got):
            assert_records_identical(r, g)
        assert all(g.spec["screening"] for g in got)

    def test_partial_degradation_matches_supervised_semantics(
            self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=3)
        executor = DistributedExecutor(
            queue=queue, workers=3,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            on_error="partial",
            faults=FaultInjector.parse("engine_error:5@cell01"))
        thread = start_worker_thread(queue)
        records = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        assert len(records) == 3
        failed = [r for r in records if r.failed]
        assert len(failed) == 1
        assert failed[0].job_name == "cell01"
        assert failed[0].attempts == 2
        assert failed[0].error_type == "ExecutionError"
        assert "injected transient engine error" in failed[0].error
        reference = {r.job_name: r
                     for r in api.InlineExecutor().run_fleet(spec)}
        for record in records:
            if not record.failed:
                assert_records_identical(reference[record.job_name],
                                         record)
        last = records[-1]
        assert last.resilience is not None
        assert last.resilience.engine_errors == 2
        assert last.resilience.retries == 1
        assert last.resilience.failed_jobs == 1

    def test_exhausted_job_raises_by_default(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=2)
        executor = DistributedExecutor(
            queue=queue, workers=2,
            retry=RetryPolicy(max_attempts=1),
            faults=FaultInjector.parse("engine_error:5@cell00"))
        thread = start_worker_thread(queue)
        with pytest.raises(ExecutionError, match="cell00 failed after 1"):
            list(executor.run_fleet(spec))
        thread.join(timeout=30)


class TestStoreAwareWorkers:
    def test_warm_cluster_rerun_solves_nothing(self, tmp_path, monkeypatch):
        queue = tmp_path / "q"
        spec = small_fleet()
        executor = DistributedExecutor(queue=queue, workers=2)
        thread = start_worker_thread(queue)
        cold = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        assert not any(r.cached for r in cold)
        # A different worker, the same shared store: every engine row is
        # warm, and a store-less run still streams fresh records.
        thread = start_worker_thread(queue)
        warm = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        assert not any(r.cached for r in warm)
        for ref, got in zip(cold, warm):
            assert_records_identical(ref, got)
        # The acceptance observable: the re-run performed zero live
        # engine solves, every row served from the workers' store.
        assert warm[-1].engine.n_solve_steps == 0
        assert warm[-1].n_store_rows > 0
        # Job hits come from a store-backed run's own plan: the first
        # such run writes the job records, the second is all cached.
        store = RunStore(default_store_root(queue))
        thread = start_worker_thread(queue)
        first = list(api.iter_results(spec, backend=executor, store=store))
        assert not any(r.cached for r in first)
        published, publish = [], executor._publish

        def spy(*args):
            published.append(args)
            return publish(*args)

        monkeypatch.setattr(executor, "_publish", spy)
        again = list(api.iter_results(spec, backend=executor, store=store))
        thread.join(timeout=30)
        assert all(isinstance(r, api.CachedAssayRecord) for r in again)
        assert published == []
        for ref, got in zip(cold, again):
            assert_records_identical(ref, got)

    def test_worker_writeback_counts_into_store_stats(self, tmp_path):
        queue = tmp_path / "q"
        thread = start_worker_thread(queue)
        executor = DistributedExecutor(queue=queue, workers=1)
        list(executor.run_fleet(small_fleet(cells=2)))
        store = RunStore(default_store_root(queue))
        # The worker keeps engine rows and no job record.
        assert len(store) == 0
        assert store.stats().records == 0
        assert store.stats().row_records > 0
        # A store-backed submitter writes the 2 job records.
        list(api.iter_results(small_fleet(cells=2), backend=executor,
                              store=store))
        thread.join(timeout=30)
        assert len(store) == 2
        assert store.stats().records == 2


class TestOneOwnerOfJobRecords:
    """The submitter looks up and writes every job record; a worker
    only solves, serving and warming engine rows."""

    def test_one_lookup_and_one_write_per_job(self, tmp_path, monkeypatch):
        calls = {"get_job": 0, "put_job": 0}
        for name in calls:
            def counted(self, *args, _real=getattr(RunStore, name),
                        _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)
            monkeypatch.setattr(RunStore, name, counted)
        queue = tmp_path / "q"
        store = RunStore(default_store_root(queue))
        before = store.stats()
        thread = start_worker_thread(queue)
        records = list(api.iter_results(
            small_fleet(cells=2),
            backend=DistributedExecutor(queue=queue, workers=2),
            store=store))
        thread.join(timeout=30)
        assert not any(r.cached for r in records)
        assert calls == {"get_job": 2, "put_job": 2}
        assert store.stats().misses - before.misses == 2

    def test_persisted_per_job_deltas_are_never_negative(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=2)
        # The workers' store already holds job 0; the submitter's store
        # is separate and empty.
        list(api.iter_results(
            api.FleetSpec(name="first", assays=spec.assays[:1]),
            store=RunStore(default_store_root(queue))))
        store = RunStore(tmp_path / "submitter")
        thread = start_worker_thread(queue)
        record = api.run(spec, store=store,
                         backend=DistributedExecutor(queue=queue,
                                                     workers=1))
        thread.join(timeout=30)
        hits = [store.get_job(api.JobKey.for_assay(assay))
                for assay in spec.assays]
        persisted = [hit.engine for hit in hits if hit is not None]
        for engine in persisted:
            assert all(getattr(engine, f.name) >= 0
                       for f in dataclasses.fields(engine))
        for f in dataclasses.fields(record.engine):
            assert (sum(getattr(engine, f.name) for engine in persisted)
                    == getattr(record.engine, f.name))
        assert len(persisted) == len(spec.assays)

    def test_storeless_runs_stream_fresh_records_on_every_backend(
            self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=2, seed=61)
        # Job records for every job sit in the workers' store: only a
        # run given that store may serve them.
        list(api.iter_results(spec, store=RunStore(default_store_root(queue))))
        inline = list(api.iter_results(spec, backend="inline"))
        with api.ProcessExecutor(workers=2) as executor:
            process = list(api.iter_results(spec, backend=executor))
        thread = start_worker_thread(queue)
        distributed = list(api.iter_results(
            spec, backend=DistributedExecutor(queue=queue, workers=2)))
        thread.join(timeout=30)
        for records in (inline, process, distributed):
            assert len(records) == 2
            assert all(r.cached is False for r in records)
            for ref, got in zip(inline, records):
                assert_records_identical(ref, got)


class TestDeadWorkerReclaim:
    def test_crashed_worker_shard_is_reclaimed(self, tmp_path):
        queue = tmp_path / "q"
        ensure_queue(queue)
        spec = small_fleet(cells=2)
        executor = DistributedExecutor(
            queue=queue, workers=1,
            retry=RetryPolicy(max_attempts=3, timeout_s=1.0),
            faults=FaultInjector.parse("worker_crash:1"))
        victims = [start_worker_process(queue) for _ in range(2)]
        try:
            for proc in victims:
                line = proc.stdout.readline()
                assert line.startswith("repro worker: ready "), line
            records = list(executor.run_fleet(spec))
        finally:
            (queue / "stop").touch()
            for proc in victims:
                try:
                    proc.wait(timeout=30)
                finally:
                    proc.kill()
                    proc.stdout.close()
        assert sorted(proc.returncode for proc in victims).count(170) == 1
        for ref, got in zip(api.InlineExecutor().run_fleet(spec), records):
            assert_records_identical(ref, got)
        # One crashed two-job unit: a dead claimant is told from a
        # wedged one, and both jobs go round again.
        assert records[-1].resilience == api.ResilienceStats(
            retries=2, worker_crashes=1)

    def test_hung_worker_shard_is_reclaimed(self, tmp_path):
        queue = tmp_path / "q"
        ensure_queue(queue)
        spec = small_fleet(cells=2)
        executor = DistributedExecutor(
            queue=queue, workers=1,
            retry=RetryPolicy(max_attempts=3, timeout_s=1.0),
            faults=FaultInjector.parse("worker_hang:1"))
        # Threads suffice: an injected hang only sleeps, never exits.
        threads = [start_worker_thread(queue) for _ in range(2)]
        records = list(executor.run_fleet(spec))
        for thread in threads:
            thread.join(timeout=30)
        for ref, got in zip(api.InlineExecutor().run_fleet(spec), records):
            assert_records_identical(ref, got)
        stats = records[-1].resilience
        assert stats is not None
        assert stats.retries >= 1
        assert stats.worker_hangs >= 1

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet(cells=1)
        executor = DistributedExecutor(
            queue=queue, workers=1,
            retry=RetryPolicy(max_attempts=1, timeout_s=0.5),
            faults=FaultInjector.parse("worker_hang:9"))
        thread = start_worker_thread(queue)
        with pytest.raises(ExecutionError, match="stalled or died"):
            list(executor.run_fleet(spec))
        thread.join(timeout=30)


class TestExecutorSurface:
    def test_distributed_backend_needs_queue(self):
        with pytest.raises(SpecError, match="queue"):
            api.ExecutionSpec(backend="distributed")

    def test_spec_block_round_trips_queue_and_prefetch(self):
        block = api.ExecutionSpec(backend="distributed", queue="qdir",
                                  workers=2)
        payload = json.loads(json.dumps(block.to_dict()))
        assert api.ExecutionSpec.from_dict(payload) == block
        assert payload["queue"] == "qdir"
        # Schema v6 removed ``prefetch``: a v5 block's flag is ignored
        # on read and never re-emitted.
        assert "prefetch" not in payload
        assert api.ExecutionSpec.from_dict(
            {**payload, "prefetch": True}) == block

    def test_resolve_by_name(self, tmp_path):
        from repro.api.executors import resolve_executor

        spec = api.ExecutionSpec(backend="distributed",
                                 queue=str(tmp_path / "q"))
        executor = spec.build()
        assert isinstance(executor, DistributedExecutor)
        assert executor.name == "distributed"
        resolved = resolve_executor(executor, None)
        assert resolved is executor

    def test_repr_and_close(self, tmp_path):
        executor = DistributedExecutor(queue=tmp_path / "q")
        assert "DistributedExecutor" in repr(executor)
        executor.close()  # no persistent resources: must be a no-op


class _MemoryDriver(StorageDriver):
    """The full driver interface over dicts — pluggability proof."""

    def __init__(self) -> None:
        self.blobs: dict[str, bytes] = {}
        self.used: dict[str, int] = {}
        self.quarantined: dict[str, bytes] = {}

    def read_bytes(self, key):
        return self.blobs.get(key)

    def write(self, key, data):
        self.blobs[key] = bytes(data)
        self.touch(key)
        return len(data)

    def touch(self, key):
        if key in self.blobs:
            self.used[key] = time.time_ns()

    def delete(self, key):
        return self.blobs.pop(key, None) is not None

    def size(self, key):
        data = self.blobs.get(key)
        return None if data is None else len(data)

    def list(self, prefix=""):
        return sorted((key, len(data), self.used[key])
                      for key, data in self.blobs.items()
                      if key.startswith(prefix)
                      and "/" not in key[len(prefix):])

    def quarantine(self, key):
        data = self.blobs.pop(key, None)
        if data is not None:
            self.quarantined[key] = data


class TestStorageDriver:
    # Same shape as real keys: 64 hex chars (sha-256 digests).
    KEYS = [f"{i:02x}" * 32 for i in range(6)]

    def test_local_dir_round_trip_properties(self, tmp_path):
        driver = LocalDirDriver(tmp_path)
        for i, key in enumerate(self.KEYS):
            # Arbitrary bytes, not text: every byte value, NUL included.
            data = bytes(range(256)) * (i + 1) + key.encode()
            nbytes = driver.write(key, data)
            assert nbytes == len(data)
            assert driver.read_bytes(key) == data
            assert driver.size(key) == nbytes
        listed = driver.list()
        assert listed == sorted(listed)
        assert [key for key, _, _ in listed] == sorted(self.KEYS)
        # Writes and touches stamp the blob used now; other prefixes
        # list apart.
        driver.touch(self.KEYS[0])
        newest = max(driver.list(), key=lambda entry: entry[2])
        assert newest[0] == self.KEYS[0]
        driver.write("rows/" + self.KEYS[2], b"row")
        driver.write("counters/host-1", b"{}")
        assert [key for key, _, _ in driver.list("rows/")] == [
            "rows/" + self.KEYS[2]]
        assert [key for key, _, _ in driver.list("counters/")] == [
            "counters/host-1"]
        assert [key for key, _, _ in driver.list()] == sorted(self.KEYS)
        driver.delete(self.KEYS[0])
        assert driver.read_bytes(self.KEYS[0]) is None
        assert driver.size(self.KEYS[0]) is None
        driver.quarantine(self.KEYS[1])
        assert self.KEYS[1] not in [key for key, _, _ in driver.list()]
        assert driver.read_bytes(self.KEYS[1]) is None

    def test_memory_driver_round_trip_properties(self):
        driver = _MemoryDriver()
        for key in self.KEYS:
            driver.write(key, key.encode() + b"\0\xff")
        assert [key for key, _, _ in driver.list()] == sorted(self.KEYS)
        driver.quarantine(self.KEYS[0])
        assert driver.read_bytes(self.KEYS[0]) is None
        driver.delete(self.KEYS[1])
        assert driver.size(self.KEYS[1]) is None

    def test_run_store_works_on_memory_driver(self, tmp_path):
        store = RunStore(tmp_path / "mem", driver=_MemoryDriver())
        spec = api.AssaySpec(name="memo", seed=9,
                             protocol=api.PanelProtocolSpec(
                                 ca_dwell=CA_DWELL))
        record = api.run(spec, store=store)
        assert not record.cached
        warm = api.run(spec, store=store)
        assert warm.cached
        assert_records_identical(record, warm)
        assert store.stats().records >= 1
        # Nothing reached the directory tree: the driver is the only
        # persistence seam left under RunStore.
        assert not (tmp_path / "mem").exists() or not any(
            (tmp_path / "mem").rglob("*.json"))

    def test_base_class_is_abstract(self):
        driver = StorageDriver()
        for method, args in [("read_bytes", ("k",)), ("write", ("k", b"v")),
                             ("delete", ("k",)), ("size", ("k",)),
                             ("list", ()), ("quarantine", ("k",)),
                             ("touch", ("k",))]:
            with pytest.raises(NotImplementedError):
                getattr(driver, method)(*args)
        assert {name for name in vars(StorageDriver)
                if not name.startswith("_")} == {
            "read_bytes", "write", "delete", "size", "list", "quarantine",
            "touch"}


class TestV5PrefetchSweep:
    def test_loads_and_runs_as_the_sweep_without_the_deleted_keys(
            self, tmp_path):
        queue = tmp_path / "q"
        sweep = api.SweepSpec(
            name="dwell-sweep",
            base=api.AssaySpec(name="pt", seed=11,
                               protocol=api.PanelProtocolSpec(
                                   ca_dwell=CA_DWELL)),
            grid={"protocol.ca_dwell": (2.0, 3.0)},
            execution=api.ExecutionSpec(backend="distributed",
                                        queue=str(queue), workers=2))
        v5 = json.loads(json.dumps(sweep.to_dict()))
        v5["schema"] = v5["base"]["schema"] = 5
        v5["execution"].update(shard="contiguous", prefetch=True)
        loaded = api.spec_from_dict(v5)
        assert loaded == sweep
        assert loaded.to_dict() == sweep.to_dict()
        assert loaded.to_dict()["schema"] == api.SCHEMA_VERSION == 7
        store = RunStore(default_store_root(queue))
        thread = start_worker_thread(queue)
        record = api.run(loaded, store=store)
        thread.join(timeout=60)
        reference = api.run(api.SweepSpec(name=sweep.name, base=sweep.base,
                                          grid=sweep.grid))
        assert len(record.records) == 2
        for ref, got in zip(reference.records, record.records):
            assert_records_identical(ref, got)
        # Only the grid's own jobs reached the queue and the store,
        # beside the sweep's whole-run record.
        assert not any((queue / "tasks").iterdir())
        assert set(store.hashes()) == (
            {api.JobKey.for_assay(a).digest for a in loaded.compile().assays}
            | {record.spec_hash})
