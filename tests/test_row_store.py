"""The engine-row layer of the run store: solve a row once per store.

A store-backed scheduler pass looks every distinct engine row up before
it builds an engine (:meth:`repro.api.store.RunStore.get_row`) and
writes the rows it solves back.  These tests pin:

- the record itself: exact key bytes round-trip, part boundaries and
  hash collisions never alias two rows, a foreign record at a row's
  address is a miss, and the store's counting rule (``len``,
  ``hashes``, ``max_count`` job records only; ``max_bytes`` and
  ``clear`` both kinds);
- faults: a ``store_corrupt`` row write is quarantined on read, counted
  and solved again, with records bit-identical to an uncached run;
- backends: a fresh-seed fleet over a row-warm store solves no row on
  the inline, process and distributed backends alike, and its records
  are fresh (``cached=False``) and bit-identical to an uncached run;
- goldens: the golden-layer workloads over a row-warm store keep all
  nine digests;
- schema bumps: a ``SCHEMA_VERSION`` bump re-keys every job but no
  engine row, so the re-run misses every job and solves nothing;
- concurrency: cold writers racing on one root leave every row
  servable.
"""

from __future__ import annotations

import pickle
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api import specs as specs_module
from repro.api import store as store_module
from repro.api.distributed import ensure_queue, run_worker
from repro.api.resilience import FaultInjector, FaultRule
from repro.io.export import panel_result_to_payload
from repro.io.sealed import seal

import test_golden_layers as golden

CA_DWELL = 2.0  # short dwell keeps the suite fast; physics unchanged


def fleet(seed: int, cells: int = 2) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL)


def result_bytes(record) -> bytes:
    """Every sample of a record's result, as exact bytes."""
    return seal(panel_result_to_payload(record.result, arrays=True))


def assert_bit_identical(reference, records) -> None:
    assert [r.spec_hash for r in records] == [r.spec_hash
                                               for r in reference]
    for ref, got in zip(reference, records):
        assert result_bytes(got) == result_bytes(ref)


def row_addresses(root: Path) -> list[str]:
    """The row records under the root's row prefix (their documented
    on-disk form)."""
    return sorted(path.stem for path in (root / "rows").glob("??/*.json"))


KEY = (b"\x00" * 16, np.arange(3.0).tobytes(), (7).to_bytes(8, "little"))


def _row(scale: float = 1.0):
    return (np.linspace(0.0, scale, 5),
            {"c_ox": np.full(4, scale), "c_red": np.zeros(4)})


class TestRowRecords:
    def test_round_trip_is_exact(self, tmp_path):
        store = api.RunStore(tmp_path)
        fluxes, state = _row()
        fluxes[1] = -0.0
        store.put_row(KEY, fluxes, state)
        got_fluxes, got_state = store.get_row(KEY)
        assert got_fluxes.tobytes() == fluxes.tobytes()
        assert sorted(got_state) == ["c_ox", "c_red"]
        assert got_state["c_ox"].tobytes() == state["c_ox"].tobytes()
        stats = store.stats()
        assert (stats.row_records, stats.row_hits, stats.row_misses) \
            == (1, 1, 0)
        assert stats.row_bytes > 0
        # Job-level observables do not see the row.
        assert (stats.records, stats.bytes, stats.hits, stats.misses) \
            == (0, 0, 0, 0)
        assert len(store) == 0 and list(store.hashes()) == []

    def test_part_boundaries_never_alias(self, tmp_path):
        store = api.RunStore(tmp_path)
        store.put_row((b"ab", b"c"), *_row())
        assert store.get_row((b"a", b"bc")) is None
        assert store.get_row((b"abc",)) is None
        assert store.get_row((b"ab", b"c")) is not None

    def test_colliding_addresses_never_alias(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "row_address",
                            lambda blob: "ab" * 32)
        store = api.RunStore(tmp_path)
        other = (*KEY[:2], (8).to_bytes(8, "little"))
        store.put_row(KEY, *_row(1.0))
        assert store.get_row(other) is None
        store.put_row(other, *_row(2.0))
        assert store.get_row(KEY) is None
        fluxes, _ = store.get_row(other)
        assert fluxes[-1] == 2.0
        assert store.stats().quarantined == 0

    def test_foreign_record_at_a_row_address_is_a_miss(self, tmp_path,
                                                       monkeypatch):
        store = api.RunStore(tmp_path)
        record = api.run(api.AssaySpec(
            name="a", seed=3,
            protocol=api.PanelProtocolSpec(ca_dwell=CA_DWELL)),
            store=store)
        monkeypatch.setattr(store_module, "row_address",
                            lambda blob: record.spec_hash)
        assert store.get_row(KEY) is None
        assert store.stats().quarantined == 0
        assert store.get_job(record.spec_hash) is not None

    def test_counting_rule_for_gc_and_clear(self, tmp_path):
        store = api.RunStore(tmp_path)
        api.run(fleet(seed=5, cells=1), store=store)
        stats = store.stats()
        assert stats.records == 2 and stats.row_records > 0
        # max_count counts (and evicts) job records only.
        store.gc(max_count=0)
        stats = store.stats()
        assert stats.records == 0 and len(store) == 0
        assert stats.row_records > 0
        # max_bytes bounds both kinds.
        evicted, _ = store.gc(max_bytes=0)
        assert evicted == stats.row_records
        assert store.stats().row_records == 0
        api.run(fleet(seed=6, cells=1), store=store)
        assert store.clear() == 2
        stats = store.stats()
        assert stats.records == stats.row_records == 0

    def test_store_pickles_as_a_handle_on_the_same_records(self, tmp_path):
        store = api.RunStore(tmp_path, max_count=9)
        store.put_row(KEY, *_row())
        copy = pickle.loads(pickle.dumps(store))
        assert copy is not store and copy.max_count == 9
        assert copy.get_row(KEY) is not None


class TestRowFaults:
    def test_corrupt_row_write_is_quarantined_and_solved_again(
            self, tmp_path):
        probe = tmp_path / "probe"
        api.run(fleet(seed=21), store=api.RunStore(probe))
        victim = row_addresses(probe)[0]
        faults = FaultInjector([FaultRule("store_corrupt", count=1,
                                          match=victim)])
        store = api.RunStore(tmp_path / "s", faults=faults)
        api.run(fleet(seed=21), store=store)
        assert victim in row_addresses(tmp_path / "s")

        spec = fleet(seed=22)
        reference = list(api.iter_results(spec))
        with pytest.warns(RuntimeWarning, match=f"quarantined.*{victim}"):
            got = list(api.iter_results(spec, store=store))
        assert_bit_identical(reference, got)
        assert store.stats().quarantined == 1
        # Exactly the quarantined row was solved again; the rest came
        # from the store.
        assert got[-1].n_solved_systems == 1
        assert got[-1].n_store_rows > 0
        assert (tmp_path / "s" / "quarantine" / f"{victim}.json").exists()
        # Its clean re-write now serves the next fresh seed.
        spec = fleet(seed=23)
        again = list(api.iter_results(spec, store=store))
        assert_bit_identical(list(api.iter_results(spec)), again)
        assert again[-1].n_solved_systems == 0
        assert store.stats().quarantined == 1

    def test_colliding_rows_each_get_their_own_flux(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(store_module, "row_address",
                            lambda blob: "cd" * 32)
        store = api.RunStore(tmp_path)
        for seed in (31, 32, 33):
            spec = fleet(seed=seed)
            got = list(api.iter_results(spec, store=store))
            assert_bit_identical(list(api.iter_results(spec)), got)
            assert all(not r.cached for r in got)
        stats = store.stats()
        assert stats.row_records == 1 and stats.quarantined == 0


def test_concurrent_cold_writers_leave_every_row_servable(tmp_path):
    import threading

    root = tmp_path / "shared"
    specs = [fleet(seed=61 + k) for k in range(4)]
    got: dict = {}

    def run(k: int) -> None:
        # One store handle per thread: the cross-process case, where
        # only the lockfile and atomic writes keep the index honest.
        got[k] = list(api.iter_results(specs[k], store=api.RunStore(root)))

    threads = [threading.Thread(target=run, args=(k,), daemon=True)
               for k in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, spec in enumerate(specs):
        assert_bit_identical(list(api.iter_results(spec)), got[k])
    spec = fleet(seed=70)
    again = list(api.iter_results(spec, store=api.RunStore(root)))
    assert_bit_identical(list(api.iter_results(spec)), again)
    assert again[-1].n_solved_systems == 0


class TestRowKeys:
    """The stored key covers the segment's drive and length."""

    def test_a_longer_dwell_never_reuses_a_shorter_row(self, tmp_path):
        store = api.RunStore(tmp_path)
        api.run(fleet(seed=51), store=store)
        spec = api.FleetSpec.homogeneous(cells=2, seed=52,
                                         ca_dwell=CA_DWELL + 1.0)
        got = list(api.iter_results(spec, store=store))
        assert_bit_identical(list(api.iter_results(spec)), got)
        assert got[-1].n_solved_systems > 0

    def test_one_sample_of_the_potential_program_splits_the_row(
            self, tmp_path):
        import copy

        from repro.data import bench_chain
        from repro.data.catalog import paper_panel_cell
        from repro.engine import SweepBatch
        from repro.measurement.panel import PanelProtocol

        base = PanelProtocol(ca_dwell=CA_DWELL).plan_sweeps(
            paper_panel_cell(), bench_chain(seed=1))[0]
        twin = copy.deepcopy(base)
        twin.potentials = twin.potentials.copy()
        k = twin.potentials.size // 2
        twin.potentials[k] = np.nextafter(twin.potentials[k], np.inf)
        store = api.RunStore(tmp_path)
        SweepBatch([copy.deepcopy(base)], store=store).simulate()
        batch = SweepBatch([copy.deepcopy(twin)], store=store)
        row = batch.simulate()[0]
        alone = SweepBatch([copy.deepcopy(twin)]).simulate()[0]
        assert row.tobytes() == alone.tobytes()
        assert batch.n_store_rows == 0
        # The base itself is now served whole from the store.
        again = SweepBatch([copy.deepcopy(base)], store=store)
        row = again.simulate()[0]
        assert again.n_solved_systems == again.n_solve_steps == 0
        assert row.tobytes() == SweepBatch(
            [copy.deepcopy(base)]).simulate()[0].tobytes()


class TestRowWarmBackends:
    """A fresh seed over a row-warm store solves nothing, anywhere."""

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rows") / "warm"
        api.run(fleet(seed=41, cells=3), store=api.RunStore(root))
        return root

    @pytest.fixture(scope="class")
    def reference(self):
        return list(api.iter_results(fleet(seed=42, cells=3)))

    @pytest.mark.parametrize("backend", ["inline", "process",
                                         "distributed"])
    def test_fresh_seed_solves_no_row(self, backend, warm, reference,
                                      tmp_path):
        root = tmp_path / "store"
        shutil.copytree(warm, root)
        store = api.RunStore(root)
        before = store.stats()
        spec = fleet(seed=42, cells=3)
        if backend == "inline":
            got = list(api.iter_results(spec, store=store))
        elif backend == "process":
            with api.ProcessExecutor(workers=2) as executor:
                got = list(api.iter_results(spec, backend=executor,
                                            store=store))
        else:
            got = self._distributed(spec, store, tmp_path / "q")
        assert_bit_identical(reference, got)
        assert all(r.cached is False for r in got)
        assert all(r.n_solved_systems == 0 for r in got)
        assert got[-1].n_store_rows > 0
        assert got[-1].engine.n_solve_steps == 0
        after = store.stats()
        assert after.row_records == before.row_records
        assert after.records == before.records + len(got)

    @staticmethod
    def _distributed(spec, store, queue):
        import threading

        ensure_queue(queue)
        # The worker's own shared store is the same row-warm root.
        worker = threading.Thread(target=run_worker, daemon=True,
                                  kwargs={"queue": queue,
                                          "store": store.root})
        worker.start()
        try:
            return list(api.iter_results(
                spec, backend=api.DistributedExecutor(queue=queue,
                                                      workers=2),
                store=store))
        finally:
            (queue / "stop").touch()
            worker.join(timeout=60)
            assert not worker.is_alive()


def test_engine_rows_survive_a_schema_bump(tmp_path, monkeypatch):
    """A bump re-keys every job (``schema`` is in the assay payload) but
    not the engine rows, which are keyed by their chemistry bytes."""
    spec = fleet(seed=43, cells=3)
    reference = list(api.iter_results(spec))
    store = api.RunStore(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(specs_module, "SCHEMA_VERSION", 6)
        old = list(api.iter_results(spec, store=store))
    assert {r.spec["schema"] for r in old} == {6}
    before = store.stats()
    records = list(api.iter_results(spec, store=store))
    after = store.stats()
    assert after.misses - before.misses == len(records) == 3
    assert after.hits == before.hits
    assert not any(r.cached for r in records)
    assert {r.spec["schema"] for r in records} == {7}
    assert records[-1].engine.n_solve_steps == 0
    assert after.row_misses == before.row_misses
    assert_bit_identical(reference, records)


@pytest.mark.parametrize("workload", sorted(golden.WORKLOADS))
def test_golden_digests_over_a_row_warm_store(workload, tmp_path):
    store = api.RunStore(tmp_path)
    golden.WORKLOADS[workload](store=store)
    # Drop the job records, keep the rows: the rerun misses every job
    # and must find every engine row warm.
    store.gc(max_count=0)
    before = store.stats()
    assert before.records == 0 and before.row_records > 0
    digests = golden.layer_digests(*golden.WORKLOADS[workload](store=store))
    assert digests == golden._golden()[workload]
    after = store.stats()
    assert after.row_misses == before.row_misses
    assert after.row_hits > before.row_hits
