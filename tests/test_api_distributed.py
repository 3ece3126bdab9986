"""Distributed execution: shard queue, claims, store-aware workers.

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
- store-aware workers short-circuit warm jobs cluster-wide: a second
  run of the same fleet performs **zero** engine solves,
- the storage-driver seam under ``RunStore`` is genuinely pluggable —
  an in-memory driver passes the same round-trip properties the local
  directory driver does,
- speculative sweep prefetch warms exactly the neighbouring grid
  points a widened re-sweep will ask for.
"""

from __future__ import annotations

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
    sweep_prefetch_assays,
)
from repro.api.jobs import JobKey
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
    def test_warm_cluster_rerun_solves_nothing(self, tmp_path):
        queue = tmp_path / "q"
        spec = small_fleet()
        executor = DistributedExecutor(queue=queue, workers=2)
        thread = start_worker_thread(queue)
        cold = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        assert not any(r.cached for r in cold)
        # A different worker, the same shared store: every job is warm.
        thread = start_worker_thread(queue)
        warm = list(executor.run_fleet(spec))
        thread.join(timeout=30)
        assert all(r.cached for r in warm)
        for ref, got in zip(cold, warm):
            assert_records_identical(ref, got)
        # The acceptance observable: a fully warm fleet performed zero
        # live engine solves.
        thread = start_worker_thread(queue)
        record = api.run(spec, backend=executor)
        thread.join(timeout=30)
        assert record.engine.n_solve_steps == 0

    def test_worker_writeback_counts_into_store_stats(self, tmp_path):
        queue = tmp_path / "q"
        thread = start_worker_thread(queue)
        executor = DistributedExecutor(queue=queue, workers=1)
        list(executor.run_fleet(small_fleet(cells=2)))
        thread.join(timeout=30)
        store = RunStore(default_store_root(queue))
        assert len(store) == 2
        assert store.stats().records == 2


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
                                  prefetch=True, workers=2)
        payload = json.loads(json.dumps(block.to_dict()))
        back = api.ExecutionSpec.from_dict(payload)
        assert back == block
        assert payload["queue"] == "qdir"
        assert payload["prefetch"] is True

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
        self.quarantined: dict[str, bytes] = {}
        self.index: str | None = None
        self.locked = False
        self.locked_at: float | None = None

    def read_bytes(self, key):
        return self.blobs.get(key)

    def write(self, key, data):
        self.blobs[key] = bytes(data)
        return len(data)

    def delete(self, key):
        self.blobs.pop(key, None)

    def size(self, key):
        data = self.blobs.get(key)
        return None if data is None else len(data)

    def list(self):
        return sorted((key, len(data)) for key, data in self.blobs.items())

    def quarantine(self, key):
        data = self.blobs.pop(key, None)
        if data is not None:
            self.quarantined[key] = data

    def read_index(self):
        return self.index

    def write_index(self, text):
        self.index = text

    def try_lock_index(self):
        if self.locked:
            return False
        self.locked = True
        self.locked_at = time.monotonic()
        return True

    def unlock_index(self):
        self.locked = False
        self.locked_at = None

    def index_lock_age_s(self):
        if self.locked_at is None:
            return None
        return time.monotonic() - self.locked_at


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
        assert [key for key, _ in listed] == sorted(self.KEYS)
        driver.delete(self.KEYS[0])
        assert driver.read_bytes(self.KEYS[0]) is None
        assert driver.size(self.KEYS[0]) is None
        driver.quarantine(self.KEYS[1])
        assert self.KEYS[1] not in [key for key, _ in driver.list()]
        assert driver.read_bytes(self.KEYS[1]) is None

    def test_local_dir_index_lock(self, tmp_path):
        driver = LocalDirDriver(tmp_path)
        assert driver.index_lock_age_s() is None
        assert driver.try_lock_index() is True
        assert driver.try_lock_index() is False
        assert driver.index_lock_age_s() is not None
        driver.unlock_index()
        assert driver.try_lock_index() is True
        driver.unlock_index()

    def test_memory_driver_round_trip_properties(self):
        driver = _MemoryDriver()
        for key in self.KEYS:
            driver.write(key, key.encode() + b"\0\xff")
        assert [key for key, _ in driver.list()] == sorted(self.KEYS)
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
                             ("read_index", ()), ("write_index", ("v",)),
                             ("try_lock_index", ()), ("unlock_index", ()),
                             ("index_lock_age_s", ())]:
            with pytest.raises(NotImplementedError):
                getattr(driver, method)(*args)

    def test_contended_save_counts_lock_waits(self, tmp_path):
        store = RunStore(tmp_path / "s")
        other = LocalDirDriver(tmp_path / "s")
        assert other.try_lock_index()
        release = threading.Timer(0.3, other.unlock_index)
        release.start()
        spec = api.AssaySpec(name="contend", seed=3,
                             protocol=api.PanelProtocolSpec(
                                 ca_dwell=CA_DWELL))
        try:
            api.run(spec, store=store)
        finally:
            release.cancel()
            other.unlock_index()
        assert store.stats().lock_waits >= 1


class TestSweepPrefetch:
    def _sweep(self, values=(2.0, 4.0, 6.0)) -> api.SweepSpec:
        return api.SweepSpec(
            name="dwell-sweep",
            base=api.AssaySpec(name="pt", seed=11,
                               protocol=api.PanelProtocolSpec(
                                   ca_dwell=CA_DWELL)),
            grid={"protocol.ca_dwell": tuple(values)})

    def test_extrapolates_last_axis_one_step(self):
        sweep = self._sweep()
        extra = sweep_prefetch_assays(sweep)
        assert len(extra) == 1
        assert extra[0].protocol.ca_dwell == 8.0
        known = {JobKey.for_payload(a.to_dict()).digest
                 for a in sweep.compile().assays}
        assert JobKey.for_payload(extra[0].to_dict()).digest not in known

    def test_prefetched_point_is_exactly_the_widened_sweeps_next_job(
            self):
        sweep = self._sweep()
        wide = self._sweep(values=(2.0, 4.0, 6.0, 8.0))
        extra = sweep_prefetch_assays(sweep)
        wide_keys = {JobKey.for_payload(a.to_dict()).digest
                     for a in wide.compile().assays}
        assert JobKey.for_payload(extra[0].to_dict()).digest in wide_keys

    def test_unextendable_axes_yield_nothing(self):
        assert sweep_prefetch_assays(self._sweep(values=(5.0,))) == []
        assert sweep_prefetch_assays(api.SweepSpec(
            name="s", base=self._sweep().base,
            grid={"protocol.ca_dwell": (2.0, 2.0)})) == []

    def test_idle_workers_warm_the_next_grid_point(self, tmp_path):
        queue = tmp_path / "q"
        sweep = api.SweepSpec(
            name="dwell-sweep",
            base=api.AssaySpec(name="pt", seed=11,
                               protocol=api.PanelProtocolSpec(
                                   ca_dwell=CA_DWELL)),
            grid={"protocol.ca_dwell": (2.0, 3.0)},
            execution=api.ExecutionSpec(backend="distributed",
                                        queue=str(queue), workers=2,
                                        prefetch=True))
        thread = start_worker_thread(queue)
        record = api.run(sweep)
        thread.join(timeout=60)
        assert len(record.records) == 2
        store = RunStore(default_store_root(queue))
        extra = sweep_prefetch_assays(api.SweepSpec(
            name=sweep.name, base=sweep.base, grid=sweep.grid))
        assert len(extra) == 1
        key = JobKey.for_payload(extra[0].to_dict())
        assert store.get_job(key) is not None
