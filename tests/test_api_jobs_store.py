"""The job-level execution pipeline: JobKey/JobPlan, per-job store
records, store eviction + statistics, and the zero-solve acceptance bar.

Pins the acceptance criteria of the job-level redesign:

- ``JobKey`` hashing is insensitive to payload dict key order but
  sensitive to the seed, the injection schedules, and every numeric
  field of the spec (property-style sweeps over the payload),
- a fleet/sweep run against a warm per-job store is bit-identical to an
  uncached run, on both backends, with cached and fresh records merged
  in job order,
- a twice-run sweep's second pass performs **zero** engine solves
  (``EngineStats.n_solve_steps`` + a monkeypatched scheduler), and a
  partially warm sweep simulates only the missing grid points,
- ``RunStore`` evicts least-recently-used records under
  ``max_count``/``max_bytes``, counts hits/misses/evictions, survives a
  lost index, skips corrupt records with a warning when listing, and
  raises :class:`~repro.errors.StoreError` naming the file otherwise,
- ``ProcessExecutor`` never spawns idle workers when there are fewer
  jobs than workers.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro import api
from repro.api.executors import shard_indices
from repro.api.specs import hash_payload
from repro.errors import StoreError
from repro.io.sealed import seal, unseal

CA_DWELL = 5.0  # short dwell keeps the suite fast; physics unchanged


def assay(name: str = "job", seed: int = 21, **protocol) -> api.AssaySpec:
    protocol.setdefault("ca_dwell", CA_DWELL)
    return api.AssaySpec(name=name, seed=seed,
                         chain=api.ChainSpec(seed=seed),
                         protocol=api.PanelProtocolSpec(**protocol))


def small_fleet(cells: int = 3, seed: int = 40) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL)


def _json_ready(node):
    """A decoded container payload with its arrays as JSON lists."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _json_ready(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_json_ready(value) for value in node]
    return node


def assert_results_identical(ref, got):
    """Bit-for-bit equality of two PanelResults (live or rehydrated)."""
    assert set(ref.traces) == set(got.traces)
    for name in ref.traces:
        assert np.array_equal(ref.traces[name].times,
                              got.traces[name].times)
        assert np.array_equal(ref.traces[name].current,
                              got.traces[name].current)
        assert np.array_equal(ref.traces[name].true_current,
                              got.traces[name].true_current)
    assert set(ref.voltammograms) == set(got.voltammograms)
    for name in ref.voltammograms:
        for field in ("times", "potentials", "current", "sweep_sign"):
            assert np.array_equal(getattr(ref.voltammograms[name], field),
                                  getattr(got.voltammograms[name], field))
        assert (ref.voltammograms[name].scan_rate
                == got.voltammograms[name].scan_rate)
    assert set(ref.readouts) == set(got.readouts)
    for target in ref.readouts:
        a, b = ref.readouts[target], got.readouts[target]
        assert (a.signal, a.we_name, a.method, a.e_applied) \
            == (b.signal, b.we_name, b.method, b.e_applied)
        assert a.peak == b.peak
    assert ref.assay_time == got.assay_time
    assert ref.blank_current == got.blank_current
    assert ref.blank_e_applied == got.blank_e_applied


def assert_records_identical(ref, got):
    assert ref.job_name == got.job_name
    assert ref.seed == got.seed
    assert ref.spec_hash == got.spec_hash
    assert ref.spec == got.spec
    assert_results_identical(ref.result, got.result)


def _shuffled(node, rng: random.Random):
    """A deep copy with every dict's key order randomised."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: _shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled(item, rng) for item in node]
    return node


class TestJobKey:
    """Property-style pins on the job content address."""

    def test_insensitive_to_payload_key_order(self):
        spec = assay(injections=(api.InjectionEvent(2.0, "glucose", 0.5),))
        payload = spec.to_dict()
        base = api.JobKey.for_payload(payload)
        for trial in range(10):
            reordered = _shuffled(payload, random.Random(trial))
            assert list(reordered) != list(payload) or trial == 0 \
                or len(payload) < 2
            assert api.JobKey.for_payload(reordered).digest == base.digest

    def test_for_assay_matches_streamed_record_hash(self):
        spec = assay(seed=33)
        key = api.JobKey.for_assay(spec)
        assert key.digest == api.spec_hash(spec)
        assert key.seed == 33 and key.name == "job"
        record = next(iter(api.iter_results(spec)))
        assert record.spec_hash == key.digest

    def test_sensitive_to_seed(self):
        assert api.JobKey.for_assay(assay(seed=1)).digest \
            != api.JobKey.for_assay(assay(seed=2)).digest

    def test_sensitive_to_injection_schedules(self):
        base = api.JobKey.for_assay(assay()).digest
        one = api.JobKey.for_assay(assay(
            injections=(api.InjectionEvent(2.0, "glucose", 0.5),))).digest
        shifted = api.JobKey.for_assay(assay(
            injections=(api.InjectionEvent(3.0, "glucose", 0.5),))).digest
        per_we = api.JobKey.for_assay(assay(
            injections={"WE1": (api.InjectionEvent(2.0, "glucose",
                                                   0.5),)})).digest
        assert len({base, one, shifted, per_we}) == 4

    @pytest.mark.parametrize("field", [
        "ca_dwell", "cv_window_margin", "scan_rate", "sample_rate",
        "settle_between", "peak_min_height"])
    def test_sensitive_to_every_numeric_protocol_field(self, field):
        defaults = api.PanelProtocolSpec()
        bumped = assay(**{field: getattr(defaults, field) * 1.25})
        reference = assay(**{field: getattr(defaults, field)})
        assert api.JobKey.for_assay(bumped).digest \
            != api.JobKey.for_assay(reference).digest

    def test_sensitive_to_chain_and_cell_numbers(self):
        base = api.JobKey.for_assay(assay()).digest
        chain = api.AssaySpec(name="job", seed=21,
                              chain=api.ChainSpec(seed=21, n_channels=6),
                              protocol=api.PanelProtocolSpec(
                                  ca_dwell=CA_DWELL))
        cell = api.AssaySpec(name="job", seed=21,
                             chain=api.ChainSpec(seed=21),
                             cell=api.CellSpec(
                                 concentrations={"glucose": 1.5}),
                             protocol=api.PanelProtocolSpec(
                                 ca_dwell=CA_DWELL))
        other_cell = api.AssaySpec(name="job", seed=21,
                                   chain=api.ChainSpec(seed=21),
                                   cell=api.CellSpec(
                                       concentrations={"glucose": 1.6}),
                                   protocol=api.PanelProtocolSpec(
                                       ca_dwell=CA_DWELL))
        digests = {base, api.JobKey.for_assay(chain).digest,
                   api.JobKey.for_assay(cell).digest,
                   api.JobKey.for_assay(other_cell).digest}
        assert len(digests) == 4

    def test_plan_splits_hits_and_misses(self, tmp_path):
        store = api.RunStore(tmp_path)
        fleet = small_fleet(cells=3, seed=50)
        api.run(fleet.assays[1], store=store)
        plan = api.JobPlan.plan(fleet, store)
        assert len(plan) == 3
        assert plan.n_cached == 1 and set(plan.cached) == {1}
        assert plan.miss_indices == (0, 2)
        miss = plan.miss_fleet()
        assert [a.name for a in miss.assays] == ["cell00", "cell02"]
        assert miss.execution == fleet.execution
        # Fully warm: no miss fleet at all.
        api.run(fleet, store=store)
        assert api.JobPlan.plan(fleet, store).miss_fleet() is None


class TestWarmStoreBitIdentity:
    """The acceptance bar: warm == cold, bit for bit, on every backend."""

    @pytest.mark.parametrize("backend", [None, "process"])
    def test_partially_warm_fleet_matches_uncached(self, tmp_path,
                                                   backend):
        spec = small_fleet(cells=3, seed=60)
        ref = list(api.iter_results(spec))
        store = api.RunStore(tmp_path)
        # Warm one job through a standalone assay run (same JobKey).
        api.run(spec.assays[1], store=store)
        kwargs = {"backend": api.ProcessExecutor(workers=2)} \
            if backend else {}
        got = list(api.iter_results(spec, store=store, **kwargs))
        assert [r.cached for r in got] == [False, True, False]
        assert isinstance(got[1], api.CachedAssayRecord)
        for a, b in zip(ref, got):
            assert_records_identical(a, b)
        # And a fully warm replay still matches, job order preserved.
        warm = list(api.iter_results(spec, store=store, **kwargs))
        assert all(r.cached for r in warm)
        for a, b in zip(ref, warm):
            assert_records_identical(a, b)

    def test_run_collects_merged_fleet_record(self, tmp_path):
        spec = small_fleet(cells=2, seed=70)
        ref = api.run(spec)
        store = api.RunStore(tmp_path)
        api.run(spec.assays[0], store=store)
        got = api.run(spec, store=store)
        assert got.cached is False
        assert [r.cached for r in got.records] == [True, False]
        for a, b in zip(ref.records, got.records):
            assert_records_identical(a, b)
        # The fleet's engine totals describe the live pass only: the
        # miss fleet fused fewer dwells (steps per group are job-count
        # independent, so the dwell count is the discriminating stat).
        assert got.engine.n_solve_steps > 0
        assert 0 < got.engine.n_fused_dwells < ref.engine.n_fused_dwells


class TestSweepMemoisation:
    def _sweep(self, name: str = "study", seeds=(1, 2)) -> api.SweepSpec:
        return api.SweepSpec(name=name, base=assay(name="pt", seed=7),
                             grid={"seed": list(seeds)})

    def test_twice_run_sweep_second_pass_zero_engine_solves(
            self, tmp_path, monkeypatch):
        store = api.RunStore(tmp_path)
        sweep = self._sweep()
        first = api.run(sweep, store=store)
        assert first.cached is False
        assert first.engine.n_solve_steps > 0

        import repro.engine.scheduler as scheduler

        def boom(self, jobs):
            raise AssertionError("engine invoked on a warm sweep")

        monkeypatch.setattr(scheduler.AssayScheduler, "run_iter", boom)
        # The literal second pass is a whole-run hit.
        again = api.run(sweep, store=store)
        assert again.cached is True
        # A renamed sweep misses the whole-run record but every grid
        # point is warm: zero engine solves, records bit-identical.
        renamed = self._sweep(name="study-rerun")
        rec = api.run(renamed, store=store)
        assert rec.cached is False
        assert all(r.cached for r in rec.records)
        assert rec.engine == api.EngineStats(n_fused_dwells=0,
                                             n_dwell_groups=0,
                                             n_solve_steps=0)
        for a, b in zip(first.records, rec.records):
            assert_records_identical(a, b)

    def test_partially_warm_sweep_simulates_only_missing_points(
            self, tmp_path, monkeypatch):
        store = api.RunStore(tmp_path)
        api.run(self._sweep(seeds=(1, 2)), store=store)

        import repro.engine.scheduler as scheduler

        scheduled = []
        original = scheduler.AssayScheduler.run_iter

        def spy(self, jobs):
            jobs = list(jobs)
            scheduled.append([job.name for job in jobs])
            return original(self, jobs)

        monkeypatch.setattr(scheduler.AssayScheduler, "run_iter", spy)
        bigger = self._sweep(seeds=(1, 2, 3))
        rec = api.run(bigger, store=store)
        # Only grid point #2 (seed 3) reached the scheduler.
        assert scheduled == [["pt#2"]]
        assert [r.cached for r in rec.records] == [True, True, False]
        assert rec.store_stats.hits >= 2

    def test_store_stats_stamped_into_provenance(self, tmp_path):
        store = api.RunStore(tmp_path)
        rec = api.run(self._sweep(), store=store)
        stamped = rec.provenance()["store"]
        assert stamped["misses"] >= 1 and stamped["records"] == 3
        assert rec.to_dict()["provenance"]["store"] == stamped
        json.dumps(rec.to_dict())  # provenance stays JSON-serialisable
        again = api.run(self._sweep(), store=store)
        assert again.provenance()["store"]["hits"] == 1


class _FakeRecord:
    """A minimal duck-typed record for store bookkeeping tests."""

    cached = False
    kind = "assay"

    def __init__(self, digest: str, payload: str = "x"):
        self.spec_hash = digest
        self.payload = payload

    def to_dict(self) -> dict:
        return {"provenance": {"kind": self.kind, "spec_hash":
                               self.spec_hash, "schema_version": 2,
                               "seed": 1, "wall_time_s": 0.0,
                               "cached": False},
                "spec": {"kind": self.kind}, "result": {},
                "pad": self.payload}


def _digest(label: str) -> str:
    import hashlib

    return hashlib.sha256(label.encode()).hexdigest()


class TestEvictionAndStats:
    def test_lru_eviction_by_max_count(self, tmp_path):
        store = api.RunStore(tmp_path)
        digests = [_digest(f"r{i}") for i in range(4)]
        for digest in digests:
            store.put(_FakeRecord(digest))
        # Touch the oldest record so it is no longer LRU.
        assert store.get(digests[0]) is not None
        evicted, freed = store.gc(max_count=2)
        assert evicted == 2 and freed > 0
        remaining = set(store.hashes())
        assert remaining == {digests[0], digests[3]}
        stats = store.stats()
        assert stats.evictions == 2 and stats.records == 2

    def test_max_bytes_eviction(self, tmp_path):
        store = api.RunStore(tmp_path)
        for i in range(3):
            store.put(_FakeRecord(_digest(f"b{i}"), payload="y" * 2000))
        total = store.stats().bytes
        per_record = total // 3
        evicted, freed = store.gc(max_bytes=per_record + 10)
        assert evicted == 2
        assert store.stats().bytes <= per_record + 10

    def test_store_limits_enforced_on_put(self, tmp_path):
        store = api.RunStore(tmp_path, max_count=2)
        for i in range(5):
            store.put(_FakeRecord(_digest(f"c{i}")))
        assert len(store) == 2
        # Most-recently-written records survive.
        assert set(store.hashes()) == {_digest("c3"), _digest("c4")}
        assert store.stats().evictions == 3

    def test_invalid_limits_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="max_count"):
            api.RunStore(tmp_path, max_count=-1)
        with pytest.raises(StoreError, match="max_bytes"):
            api.RunStore(tmp_path, max_bytes=-5)

    def test_index_rebuilt_when_lost(self, tmp_path):
        store = api.RunStore(tmp_path)
        for i in range(3):
            store.put(_FakeRecord(_digest(f"d{i}")))
        store.index_path.unlink()
        fresh = api.RunStore(tmp_path)
        stats = fresh.stats()
        assert stats.records == 3 and stats.bytes > 0
        # Rebuilt counters start over; eviction still works.
        assert stats.hits == stats.misses == stats.evictions == 0
        evicted, _ = fresh.gc(max_count=1)
        assert evicted == 2 and len(fresh) == 1

    def test_hit_miss_counters(self, tmp_path):
        store = api.RunStore(tmp_path)
        digest = _digest("counted")
        assert store.get(digest) is None
        store.put(_FakeRecord(digest))
        assert store.get(digest) is not None
        assert store.get_job(digest) is not None  # summary-only fallback
        stats = store.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)
        # Listing is not a lookup: counters unchanged.
        list(store.records())
        assert store.stats().hits == 2

    def test_counters_survive_clear(self, tmp_path):
        store = api.RunStore(tmp_path)
        store.put(_FakeRecord(_digest("e")))
        assert store.get(_digest("e")) is not None
        assert store.clear() == 1
        stats = store.stats()
        assert stats.records == 0 and stats.hits == 1


class TestStoreConcurrency:
    """Concurrent writers on one root must not drop index updates."""

    def test_two_threads_hammering_put_and_gc(self, tmp_path):
        import threading

        # Two RunStore instances on the same root — the worst case:
        # no shared in-memory index, so every save is a cross-process
        # style read-modify-write serialised only by index.lock.
        stores = [api.RunStore(tmp_path), api.RunStore(tmp_path)]
        errors = []

        def hammer(worker: int) -> None:
            try:
                store = stores[worker]
                for i in range(25):
                    store.put(_FakeRecord(_digest(f"w{worker}r{i}")))
                    if i % 5 == 4:
                        store.gc(max_count=200)  # never evicts; syncs
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert not (tmp_path / "index.lock").exists()
        # Every record file landed, and — the regression — the saved
        # index agrees without a rebuild: neither writer's entries were
        # lost to the other's read-modify-write.
        expected = {_digest(f"w{w}r{i}") for w in range(2)
                    for i in range(25)}
        fresh = api.RunStore(tmp_path)
        assert set(fresh.hashes()) == expected
        index = json.loads(fresh.index_path.read_text())
        assert set(index["records"]) == expected

    def test_one_store_shared_by_threads_counts_every_hit(self, tmp_path):
        import threading

        store = api.RunStore(tmp_path)
        digest = _digest("shared")
        store.put(_FakeRecord(digest))
        errors = []

        def reader() -> None:
            try:
                for _ in range(20):
                    assert store.get(digest) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # The in-process mutex makes hit counting exact for one shared
        # instance (cross-process counters are only best-effort).
        assert store.stats().hits == 40

    def test_same_key_writers_in_one_process(self, tmp_path):
        # Service dispatcher threads can put the same job at once, and
        # RunStore writes outside its mutex: each writer needs its own
        # temp file, or one thread's os.replace steals another's.
        import os
        import sys
        import threading
        import time

        store = api.RunStore(tmp_path)
        key = _digest("contended")
        n_writers = 2 * (os.cpu_count() or 1) + 1
        records = [_FakeRecord(key, payload=chr(65 + w) * 1_000_000)
                   for w in range(n_writers)]
        blobs = {seal(record.to_dict()) for record in records}
        errors, torn = [], []
        deadline = time.monotonic() + 2.0

        def writer(record) -> None:
            try:
                for _ in range(40):
                    if time.monotonic() > deadline:
                        break
                    store.put(record)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            while time.monotonic() < deadline:
                data = store.driver.read_bytes(key)
                if data is not None and data not in blobs:
                    torn.append(len(data))  # pragma: no cover

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = ([threading.Thread(target=writer, args=(r,))
                        for r in records]
                       + [threading.Thread(target=reader) for _ in range(2)])
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and torn == []
        assert store.driver.read_bytes(key) in blobs
        assert not list(tmp_path.glob("**/*.tmp"))
        assert store.get(key) is not None

    def test_stale_lockfile_is_broken_not_waited_out(self, tmp_path):
        import os as _os

        store = api.RunStore(tmp_path)
        lock = tmp_path / "index.lock"
        tmp_path.mkdir(exist_ok=True)
        lock.write_text("")
        old = 100.0  # mtime far past the staleness horizon
        _os.utime(lock, (old, old))
        store.put(_FakeRecord(_digest("after-stale")))  # must not block
        assert not lock.exists()
        assert len(store) == 1

    def test_held_lockfile_times_out_with_warning(self, tmp_path):
        store = api.RunStore(tmp_path)
        lock = tmp_path / "index.lock"
        lock.write_text("")  # fresh mtime: a live holder
        with pytest.warns(RuntimeWarning, match="index.lock"):
            with store._index_lock(wait_s=0.05):
                pass
        # The foreign lockfile is not ours to remove.
        assert lock.exists()


class TestStoreRobustness:
    def test_get_job_corrupt_json_quarantines_as_miss(self, tmp_path):
        store = api.RunStore(tmp_path)
        record = api.run(assay(seed=91), store=store)
        path = store.path_for(record.spec_hash)
        path.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match=path.name):
            assert store.get_job(record.spec_hash) is None
        assert (tmp_path / "quarantine" / path.name).exists()
        assert not path.exists()
        stats = store.stats()
        assert stats.quarantined == 1
        # A second lookup is a plain miss: the corrupt file is gone.
        assert store.get(record.spec_hash) is None
        assert store.stats().quarantined == 1

    def test_get_job_malformed_samples_quarantines(self, tmp_path):
        store = api.RunStore(tmp_path)
        record = api.run(assay(seed=92), store=store)
        path = store.path_for(record.spec_hash)
        # Editing the header in place breaks the seal first ...
        path.write_bytes(path.read_bytes().replace(
            b'"samples":{', b'"samples":{"traces":"nonsense",', 1))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert store.get_job(record.spec_hash) is None
        # ... and a correctly sealed record with nonsense samples still
        # fails the structural (malformed samples) check.
        api.run(assay(seed=92), store=store)  # re-warm
        payload = unseal(path.read_bytes())
        payload["samples"] = {"traces": "nonsense"}
        path.write_bytes(seal(payload))
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.get_job(record.spec_hash) is None
        assert store.stats().quarantined == 2

    def test_checksum_mismatch_quarantines(self, tmp_path):
        # A single changed value in an otherwise well-formed record
        # fails verify-on-read — this is what distinguishes the sealed
        # store from a parse-only one.
        store = api.RunStore(tmp_path)
        record = api.run(assay(seed=93), store=store)
        path = store.path_for(record.spec_hash)
        data = path.read_bytes()
        tampered = data.replace(b'"wall_time_s":', b'"wall_time_s":1', 1)
        assert tampered != data and unseal(data)  # the original verifies
        path.write_bytes(tampered)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get_job(record.spec_hash) is None
        assert store.stats().quarantined == 1

    @staticmethod
    def _as_json_record(store, record, integrity: bool):
        """Rewrite a stored record in the all-JSON format that preceded
        the container, with or without its ``integrity`` section."""
        path = store.path_for(record.spec_hash)
        payload = _json_ready(unseal(path.read_bytes()))
        if integrity:
            payload["integrity"] = {"algo": "sha256",
                                    "digest": hash_payload(payload)}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path, payload

    def test_legacy_record_without_integrity_still_loads(self, tmp_path):
        store = api.RunStore(tmp_path)
        record = api.run(assay(seed=94), store=store)
        self._as_json_record(store, record, integrity=False)
        warm = store.get_job(record.spec_hash)
        assert warm is not None and warm.cached
        assert_results_identical(record.result, warm.result)

    def test_legacy_record_with_integrity_is_verified(self, tmp_path):
        store = api.RunStore(tmp_path)
        record = api.run(assay(seed=95), store=store)
        path, payload = self._as_json_record(store, record, integrity=True)
        warm = store.get_job(record.spec_hash)
        assert warm is not None and warm.cached
        assert_results_identical(record.result, warm.result)
        payload["provenance"]["wall_time_s"] += 1.0
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get_job(record.spec_hash) is None

    def test_records_quarantines_corrupt(self, tmp_path):
        store = api.RunStore(tmp_path)
        store.put(_FakeRecord(_digest("good")))
        bad = store.path_for(_digest("bad"))
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            listed = list(store.records())
        assert [r.spec_hash for r in listed] == [_digest("good")]
        # Quarantine is permanent: the next listing is clean, and an
        # index rebuild never readopts the quarantined file.
        assert list(store.records())[0].spec_hash == _digest("good")
        assert list(store.hashes()) == [_digest("good")]
        assert (tmp_path / "quarantine" / bad.name).exists()

    def test_persisted_job_stats_are_deltas_not_fleet_cumulative(
            self, tmp_path):
        # Streamed records carry stream-cumulative stats; the persisted
        # per-job copies must describe only their own job, so a later
        # standalone rehydrate does not claim the whole fleet's work.
        store = api.RunStore(tmp_path)
        spec = small_fleet(cells=3, seed=85)
        fleet = api.run(spec, store=store)
        stored = [store.get_job(api.JobKey.for_assay(a))
                  for a in spec.assays]
        assert all(isinstance(r, api.CachedAssayRecord) for r in stored)
        for field in ("n_fused_dwells", "n_dwell_groups", "n_solve_steps"):
            per_job = [getattr(r.engine, field) for r in stored]
            assert sum(per_job) == getattr(fleet.engine, field)
        # The shared dwell group is charged to the job that triggered
        # it; later members added no solves of their own.
        assert stored[0].engine.n_solve_steps > 0
        assert stored[1].engine.n_solve_steps == 0
        assert all(0.0 <= r.wall_time_s <= fleet.wall_time_s
                   for r in stored)

    def test_cached_assay_record_round_trips_peaks(self, tmp_path):
        store = api.RunStore(tmp_path)
        live = api.run(assay(seed=93), store=store)
        warm = api.run(assay(seed=93), store=store)
        assert isinstance(warm, api.CachedAssayRecord)
        assert warm.cached and warm.engine == live.engine
        cyp = [r for r in live.result.readouts.values()
               if r.peak is not None]
        assert cyp, "panel should quantify at least one CV target"
        assert_results_identical(live.result, warm.result)
        # The summary serialisation is unchanged by the round trip.
        assert warm.to_dict()["result"] == live.to_dict()["result"]


class TestProcessExecutorIdleWorkers:
    def test_fewer_jobs_than_workers_spawns_no_idle_workers(
            self, monkeypatch):
        import repro.api.executors as executors

        spawns = []
        real = executors.ProcessPoolExecutor

        class Spy(real):
            def __init__(self, max_workers=None, **kwargs):
                spawns.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", Spy)
        spec = small_fleet(cells=2, seed=95)
        with api.ProcessExecutor(workers=8) as backend:
            records = list(api.iter_results(spec, backend=backend))
        assert [r.job_name for r in records] == ["cell00", "cell01"]
        # One single-worker slot per unit in flight, not eight.
        assert spawns == [1, 1]

    @pytest.mark.parametrize("mode", ["interleave", "contiguous"])
    def test_shard_indices_never_returns_empty_shards(self, mode):
        for n_jobs in (1, 2, 3, 7):
            for n_shards in (1, 2, 5, 16):
                shards = shard_indices(n_jobs, n_shards, mode)
                assert all(shards)
                assert len(shards) == min(n_jobs, n_shards)
        assert shard_indices(2, 8, mode) == [[0], [1]]
