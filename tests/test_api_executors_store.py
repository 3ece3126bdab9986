"""Execution backends, the run store, and sweep specs.

Pins the acceptance bar of the backend/store redesign:

- ``ProcessExecutor`` fleet results are bit-identical to
  ``InlineExecutor`` (names, seeds, hashes, every sample),
- a repeated ``run(spec, store=...)`` returns the stored record
  (``cached=True``) without invoking the engine,
- ``SweepSpec`` compiles its grid deterministically and round-trips
  through JSON like every other spec kind,
- the declarative ``execution`` block and the programmatic
  ``backend=`` argument select the same executors,
- shard partitioning covers every job exactly once.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.api.executors import shard_indices
from repro.errors import SpecError, StoreError
from repro.io.sealed import unseal

CA_DWELL = 6.0  # short dwell keeps the suite fast; physics unchanged


def small_fleet(cells: int = 3, seed: int = 40,
                execution: api.ExecutionSpec | None = None) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL,
                                     execution=execution)


def assert_records_identical(ref, got):
    assert ref.job_name == got.job_name
    assert ref.seed == got.seed
    assert ref.spec_hash == got.spec_hash
    assert ref.spec == got.spec
    assert set(ref.result.traces) == set(got.result.traces)
    for name in ref.result.traces:
        assert np.array_equal(ref.result.traces[name].current,
                              got.result.traces[name].current)
        assert np.array_equal(ref.result.traces[name].true_current,
                              got.result.traces[name].true_current)
    for name in ref.result.voltammograms:
        assert np.array_equal(ref.result.voltammograms[name].current,
                              got.result.voltammograms[name].current)
    for target in ref.result.readouts:
        assert (ref.result.readouts[target].signal
                == got.result.readouts[target].signal)
    assert ref.result.assay_time == got.result.assay_time


class TestProcessBackendParity:
    """The acceptance bar: process == inline, bit for bit."""

    # The "interleave" id names the round-robin dealing every backend
    # uses; it is kept so the test's id stays stable.
    @pytest.mark.parametrize("workers", [pytest.param(2, id="interleave")])
    def test_process_matches_inline(self, workers):
        spec = small_fleet(cells=3)
        inline = list(api.iter_results(spec, backend=api.InlineExecutor()))
        sharded = list(api.iter_results(
            spec, backend=api.ProcessExecutor(workers=workers)))
        assert len(inline) == len(sharded) == 3
        for ref, got in zip(inline, sharded):
            assert_records_identical(ref, got)

    def test_process_run_collects_same_fleet_record(self):
        spec = small_fleet(cells=2, seed=60)
        ref = api.run(spec)
        got = api.run(spec, backend=api.ProcessExecutor(workers=2))
        assert got.spec_hash == ref.spec_hash
        assert got.names == ref.names
        assert got.seeds == ref.seeds == (60, 61)
        for a, b in zip(ref.records, got.records):
            assert_records_identical(a, b)
        # Fleet totals agree even though per-worker grouping differs.
        assert got.engine.n_fused_dwells == ref.engine.n_fused_dwells

    def test_more_workers_than_jobs(self):
        spec = small_fleet(cells=2, seed=70)
        records = list(api.iter_results(
            spec, backend=api.ProcessExecutor(workers=8)))
        assert [r.job_name for r in records] == ["cell00", "cell01"]

    def test_declarative_execution_block_selects_backend(self):
        spec = small_fleet(
            cells=2, seed=75,
            execution=api.ExecutionSpec(backend="process", workers=2))
        ref = list(api.iter_results(
            small_fleet(cells=2, seed=75), backend=api.InlineExecutor()))
        got = list(api.iter_results(spec))  # backend from the spec block
        for a, b in zip(ref, got):
            assert_records_identical(a, b)

    def test_assay_through_backend(self):
        assay = api.AssaySpec(name="solo", seed=5,
                              chain=api.ChainSpec(seed=5),
                              protocol=api.PanelProtocolSpec(
                                  ca_dwell=CA_DWELL))
        ref = api.run(assay)
        got = api.run(assay, backend="process")
        assert got.spec_hash == ref.spec_hash
        assert_records_identical(ref, got)


class TestExecutorResolution:
    def test_resolve_default_is_inline(self):
        assert isinstance(api.resolve_executor(None), api.InlineExecutor)

    def test_resolve_by_name_uses_block_workers(self):
        executor = api.resolve_executor(
            "process", api.ExecutionSpec(workers=3))
        assert isinstance(executor, api.ProcessExecutor)
        assert executor.workers == 3

    def test_resolve_instance_passes_through(self):
        backend = api.ProcessExecutor(workers=2)
        assert api.resolve_executor(backend) is backend

    def test_resolve_rejects_unknown_name_and_type(self):
        with pytest.raises(SpecError, match="unknown execution backend"):
            api.resolve_executor("threads")
        with pytest.raises(SpecError, match="not an execution backend"):
            api.resolve_executor(object())

    def test_custom_executor_protocol_is_structural(self):
        class Recording:
            def __init__(self):
                self.calls = 0

            def run_fleet(self, spec):
                self.calls += 1
                yield from api.InlineExecutor().run_fleet(spec)

        backend = Recording()
        records = list(api.iter_results(small_fleet(cells=1),
                                        backend=backend))
        assert backend.calls == 1 and len(records) == 1

    def test_backend_rejected_for_non_fleet_kinds(self):
        with pytest.raises(SpecError, match="backends apply to"):
            api.run(api.CalibrationSpec(target="glucose"),
                    backend="process")

    def test_execution_spec_validation(self):
        with pytest.raises(SpecError, match="unknown backend"):
            api.ExecutionSpec(backend="threads")
        with pytest.raises(SpecError, match="workers"):
            api.ExecutionSpec(workers=0)
        with pytest.raises(SpecError, match="workers"):
            api.ProcessExecutor(workers=0)
        # Programmatic workers are type-checked like file workers: a
        # float, a string or a bool fails at construction, not mid-run.
        for bad in (2.5, "2", True):
            with pytest.raises(SpecError, match="workers"):
                api.ExecutionSpec(workers=bad)
            with pytest.raises(SpecError, match="workers"):
                api.ProcessExecutor(workers=bad)
            with pytest.raises(SpecError, match="workers"):
                api.DistributedExecutor(queue="q", workers=bad)

    def test_execution_file_errors_name_the_path(self):
        payload = api.FleetSpec.homogeneous(cells=1).to_dict()
        payload["execution"] = {"backend": "threads"}
        with pytest.raises(SpecError, match=r"execution\.backend.*threads"):
            api.spec_from_dict(payload)
        payload["execution"] = {"workers": 2.5}
        with pytest.raises(SpecError, match=r"execution\.workers.*2\.5"):
            api.spec_from_dict(payload)


class TestShardIndices:
    # The "-interleave" ids name the round-robin dealing and keep the
    # tests' ids stable.
    @pytest.mark.parametrize("n_jobs,n_shards", [
        pytest.param(n_jobs, n_shards, id=f"{n_jobs}-{n_shards}-interleave")
        for n_jobs, n_shards in [(1, 1), (5, 2), (4, 4), (3, 8), (10, 3)]])
    def test_partition_covers_every_job_once(self, n_jobs, n_shards):
        shards = shard_indices(n_jobs, n_shards)
        assert all(shard for shard in shards)
        assert len(shards) == min(n_jobs, n_shards)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(n_jobs))

    def test_strategies(self):
        assert shard_indices(5, 2) == [[0, 2, 4], [1, 3]]
        assert shard_indices(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]

    def test_invalid_inputs(self):
        with pytest.raises(SpecError, match="at least one job"):
            shard_indices(0, 2)


class TestRunStore:
    def test_miss_runs_and_persists(self, tmp_path):
        store = api.RunStore(tmp_path / "runs")
        spec = small_fleet(cells=2, seed=80)
        record = api.run(spec, store=store)
        assert record.cached is False
        assert api.spec_hash(spec) in store
        # Whole-run record plus one full-sample record per assay job.
        assert len(store) == 3
        for assay in spec.assays:
            assert api.spec_hash(assay) in store
        path = store.path_for(record.spec_hash)
        assert path.parent.name == record.spec_hash[:2]
        assert unseal(path.read_bytes())["provenance"]["spec_hash"] \
            == record.spec_hash

    def test_hit_skips_the_engine(self, tmp_path, monkeypatch):
        store = api.RunStore(tmp_path)
        spec = small_fleet(cells=2, seed=81)
        first = api.run(spec, store=store)

        import repro.engine.scheduler as scheduler

        def boom(self, jobs):
            raise AssertionError("engine invoked on a cache hit")

        monkeypatch.setattr(scheduler.AssayScheduler, "run_iter", boom)
        again = api.run(spec, store=store)
        assert again.cached is True
        assert isinstance(again, api.StoredRunRecord)
        assert again.spec_hash == first.spec_hash
        assert again.spec == first.spec
        assert again.provenance()["seeds"] == [81, 82]
        assert again.to_dict()["result"] == first.to_dict()["result"]

    def test_store_accepts_path_and_string(self, tmp_path):
        spec = api.CalibrationSpec(target="glucose", points=4, seed=3)
        first = api.run(spec, store=tmp_path)
        again = api.run(spec, store=str(tmp_path))
        assert first.cached is False and again.cached is True
        assert again.seed == 3 and again.kind == "calibration"

    def test_different_specs_miss(self, tmp_path):
        store = api.RunStore(tmp_path)
        api.run(small_fleet(cells=1, seed=90), store=store)
        other = api.run(small_fleet(cells=1, seed=91), store=store)
        assert other.cached is False
        # Two whole-run records + one per-job record each.
        assert len(store) == 4

    def test_records_and_clear(self, tmp_path):
        store = api.RunStore(tmp_path)
        api.run(small_fleet(cells=1, seed=92), store=store)
        api.run(small_fleet(cells=1, seed=93), store=store)
        listed = list(store.records())
        assert len(listed) == 4  # 2 whole-run + 2 per-job records
        assert all(r.cached for r in listed)
        assert {r.kind for r in listed} == {"fleet", "assay"}
        assert list(store.hashes()) == sorted(r.spec_hash for r in listed)
        assert store.clear() == 4
        assert len(store) == 0

    def test_corrupt_record_quarantined_and_rerun(self, tmp_path):
        store = api.RunStore(tmp_path)
        record = api.run(small_fleet(cells=1, seed=94), store=store)
        path = store.path_for(record.spec_hash)
        path.write_bytes(path.read_bytes()[:-1])  # lose the last byte
        # Corruption degrades to recomputation: the record is moved to
        # quarantine, the lookup counts as a miss, and the run replays.
        with pytest.warns(RuntimeWarning, match="quarantined"):
            again = api.run(small_fleet(cells=1, seed=94), store=store)
        assert again.cached is False
        assert again.spec_hash == record.spec_hash
        assert (tmp_path / "quarantine" / path.name).exists()
        assert store.stats().quarantined == 1
        # The clean re-write serves the next run from the store again.
        third = api.run(small_fleet(cells=1, seed=94), store=store)
        assert third.cached is True

    def test_bad_hash_string_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="not a spec hash"):
            api.RunStore(tmp_path).get("nothex")

    def test_empty_store_listing(self, tmp_path):
        store = api.RunStore(tmp_path / "never-created")
        assert len(store) == 0
        assert list(store.records()) == []
        assert store.clear() == 0


class TestSweepSpec:
    def _sweep(self, **kwargs) -> api.SweepSpec:
        defaults = dict(
            name="study",
            base=api.AssaySpec(name="pt", seed=7,
                               chain=api.ChainSpec(seed=7),
                               protocol=api.PanelProtocolSpec(
                                   ca_dwell=CA_DWELL)),
            grid={"seed": [1, 2], "protocol.ca_dwell": [CA_DWELL]})
        defaults.update(kwargs)
        return api.SweepSpec(**defaults)

    def test_round_trips_like_other_kinds(self):
        sweep = self._sweep()
        payload = json.loads(json.dumps(sweep.to_dict()))
        back = api.spec_from_dict(payload)
        assert back == sweep
        assert api.spec_hash(back) == api.spec_hash(sweep)
        assert payload["kind"] == "sweep"
        assert payload["schema"] == api.SCHEMA_VERSION

    def test_compiles_sorted_axes_file_order_values(self):
        sweep = self._sweep(grid={"protocol.ca_dwell": [CA_DWELL, 12.0],
                                  "seed": [5, 3]})
        fleet = sweep.compile()
        assert len(sweep) == 4 and len(fleet) == 4
        # Axes sorted by path: ca_dwell is the outer loop, seed inner.
        combos = [(a.protocol.ca_dwell, a.seed) for a in fleet.assays]
        assert combos == [(CA_DWELL, 5), (CA_DWELL, 3),
                          (12.0, 5), (12.0, 3)]
        assert [a.name for a in fleet.assays] == \
            ["pt#0", "pt#1", "pt#2", "pt#3"]

    def test_grid_creates_nested_objects(self):
        sweep = self._sweep(
            grid={"cell.concentrations.glucose": [0.5, 2.0]})
        fleet = sweep.compile()
        assert fleet.assays[1].cell.concentrations == {"glucose": 2.0}

    def test_runs_through_backends_and_store(self, tmp_path):
        sweep = self._sweep()
        record = api.run(sweep)
        assert record.kind == "sweep"
        assert record.spec_hash == api.spec_hash(sweep)
        assert len(record.records) == 2
        assert record.seeds == (1, 2)
        sharded = api.run(sweep, backend=api.ProcessExecutor(workers=2))
        for a, b in zip(record.records, sharded.records):
            assert_records_identical(a, b)
        store = api.RunStore(tmp_path)
        assert api.run(sweep, store=store).cached is False
        assert api.run(sweep, store=store).cached is True

    def test_streams_compiled_grid(self):
        records = list(api.iter_results(self._sweep()))
        assert [r.job_name for r in records] == ["pt#0", "pt#1"]
        assert [r.seed for r in records] == [1, 2]

    def test_invalid_grids_rejected(self):
        with pytest.raises(SpecError, match="at least one grid axis"):
            self._sweep(grid={})
        with pytest.raises(SpecError, match="must be a list"):
            self._sweep(grid={"seed": 7})
        with pytest.raises(SpecError, match="at least one value"):
            self._sweep(grid={"seed": []})

    def test_bad_override_names_the_grid_point(self):
        sweep = self._sweep(grid={"protocol.ca_dwell": ["long"]})
        with pytest.raises(SpecError, match=r"grid point 0.*ca_dwell"):
            sweep.compile()

    def test_override_through_non_object_rejected(self):
        sweep = self._sweep(grid={"seed.sub": [1]})
        with pytest.raises(SpecError, match="non-object key"):
            sweep.compile()

    def test_v1_fleet_payload_still_loads(self):
        # A version-1 file: no execution block, schema 1 envelope.
        payload = small_fleet(cells=1, seed=99).to_dict()
        for node in [payload, *payload["assays"]]:
            node["schema"] = 1
        del payload["execution"]
        spec = api.spec_from_dict(json.loads(json.dumps(payload)))
        assert spec.execution == api.ExecutionSpec()
        assert len(spec) == 1

    def test_v5_fleet_payload_drops_shard_and_prefetch(self):
        # Schema v6 removed both keys; they only ever moved work, so a
        # v5 file carrying them is the same fleet without them.
        fleet = small_fleet(cells=3, seed=121, execution=api.ExecutionSpec(
            backend="process", workers=2))
        payload = json.loads(json.dumps(fleet.to_dict()))
        for node in [payload, *payload["assays"]]:
            node["schema"] = 5
        payload["execution"].update(shard="contiguous", prefetch=True)
        spec = api.spec_from_dict(payload)
        assert spec == fleet
        emitted = spec.to_dict()
        assert emitted == fleet.to_dict()
        assert {node["schema"] for node in [emitted, *emitted["assays"]]} \
            == {7}
        assert not {"shard", "prefetch"} & set(emitted["execution"])
        reference = list(api.iter_results(fleet))
        records = list(api.iter_results(spec))
        assert len(records) == len(reference) == 3
        for ref, got in zip(reference, records):
            assert_records_identical(ref, got)


class TestEarlyTermination:
    """Closing a stream mid-fleet leaves no dangling scheduler state."""

    def test_closed_stream_then_fresh_run_matches_run_many(self):
        from repro.engine import AssayScheduler
        from repro.measurement import PanelProtocol

        spec = small_fleet(cells=3, seed=110)
        stream = api.iter_results(spec)
        first = next(stream)
        assert first.job_name == "cell00"
        stream.close()
        assert stream.gi_frame is None  # generator finished, locals freed

        # A fresh stream replays the whole fleet bit-identically to the
        # class-level scheduler over hand-built jobs.
        records = list(api.iter_results(spec))
        fleet = AssayScheduler(PanelProtocol(ca_dwell=CA_DWELL)).run_many(
            spec.build_jobs())
        assert tuple(r.job_name for r in records) == fleet.names
        for record, ref in zip(records, fleet.results):
            for name in ref.traces:
                assert np.array_equal(ref.traces[name].current,
                                      record.result.traces[name].current)

    def test_scheduler_run_iter_close_clears_plans(self):
        from repro.engine import AssayScheduler
        from repro.measurement import PanelProtocol

        spec = small_fleet(cells=2, seed=120)
        scheduler = AssayScheduler(PanelProtocol(ca_dwell=CA_DWELL))
        stream = scheduler.run_iter(spec.build_jobs())
        next(stream)
        stream.close()
        assert stream.gi_frame is None
        # Closing before the first item must also be clean.
        untouched = scheduler.run_iter(spec.build_jobs())
        untouched.close()
        assert untouched.gi_frame is None

    def test_partial_process_stream_shuts_down_pool(self):
        spec = small_fleet(cells=2, seed=130)
        stream = api.iter_results(spec,
                                  backend=api.ProcessExecutor(workers=2))
        first = next(stream)
        assert first.job_name == "cell00"
        stream.close()  # must not hang or leak the worker pool
        records = list(api.iter_results(spec))
        assert len(records) == 2


class TestPersistentPool:
    """Explicit executors keep their worker slots warm across runs."""

    def test_explicit_executor_spawns_one_pool_for_n_runs(
            self, monkeypatch):
        import repro.api.executors as executors

        spawns = []
        real = executors.ProcessPoolExecutor

        class Spy(real):
            def __init__(self, max_workers=None, **kwargs):
                spawns.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", Spy)
        spec = small_fleet(cells=2, seed=140)
        with api.ProcessExecutor(workers=2) as backend:
            for _ in range(3):
                records = list(api.iter_results(spec, backend=backend))
                assert [r.job_name for r in records] == ["cell00", "cell01"]
        # Two single-worker slots, spawned by the first run only.
        assert spawns == [1, 1]

    def test_pool_grows_when_a_run_needs_more_shards(self, monkeypatch):
        import repro.api.executors as executors

        spawns = []
        real = executors.ProcessPoolExecutor

        class Spy(real):
            def __init__(self, max_workers=None, **kwargs):
                spawns.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", Spy)
        with api.ProcessExecutor(workers=4) as backend:
            list(api.iter_results(small_fleet(cells=2, seed=150),
                                  backend=backend))
            # Bigger fleet: two more slots join the two warm ones.
            list(api.iter_results(small_fleet(cells=4, seed=150),
                                  backend=backend))
            # Smaller fleet again: the warm slots are reused.
            list(api.iter_results(small_fleet(cells=2, seed=150),
                                  backend=backend))
        assert spawns == [1, 1, 1, 1]

    def test_spec_built_executor_is_not_persistent(self, monkeypatch):
        # The runner closes the executors it builds from a spec block...
        closed = []
        real_close = api.ProcessExecutor.close

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(api.ProcessExecutor, "close", close)
        spec = small_fleet(cells=2, seed=160, execution=api.ExecutionSpec(
            backend="process", workers=2))
        list(api.iter_results(spec))
        assert len(closed) == 1 and closed[0]._slots == [None, None]
        # ...but never a caller-supplied instance.
        with api.ProcessExecutor(workers=2) as warm:
            list(api.iter_results(spec, backend=warm))
            assert len(closed) == 1
        # And reused slots stay bit-identical to inline.
        spec = small_fleet(cells=2, seed=160)
        ref = list(api.iter_results(spec, backend=api.InlineExecutor()))
        with api.ProcessExecutor(workers=2) as warm:
            first = list(api.iter_results(spec, backend=warm))
            second = list(api.iter_results(spec, backend=warm))
        for a, b, c in zip(ref, first, second):
            assert_records_identical(a, b)
            assert_records_identical(a, c)

    def test_abandoned_stream_resets_persistent_pool(self):
        spec = small_fleet(cells=2, seed=170)
        # cell01's unit stalls, so it is still running when cell00
        # streams and the stream is abandoned.
        with api.ProcessExecutor(workers=2, faults=api.FaultInjector.parse(
                "worker_hang:1@cell01")) as backend:
            stream = api.iter_results(spec, backend=backend)
            next(stream)
            stream.close()  # kills the slot still running cell01...
            assert backend._slots[0] is not None
            assert backend._slots[1] is None
            # ...and the next run transparently respawns it.
            backend.faults = None
            records = list(api.iter_results(spec, backend=backend))
            assert len(records) == 2
            assert all(pool is not None for pool in backend._slots)
