"""The repro.api front door: spec round-trips, bit-identity, streaming.

Pins the acceptance bar of the spec/run redesign:

- every spec kind survives spec -> JSON -> spec -> run,
- ``run(spec)`` / ``iter_results(spec)`` results are bit-identical to
  the class-level entry points (``PanelProtocol.run``,
  ``AssayScheduler.run_many``, ``run_calibration``),
- the streaming iterator matches ``run_many`` order and content,
- every run record carries spec hash + schema version + seed,
- spec-parsing failures surface as SpecError naming the offending
  key/path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.analysis import run_calibration
from repro.data import (
    PAPER_PANEL_MID_CONCENTRATIONS,
    bench_chain,
    integrated_chain,
    paper_panel_cell,
    performance_record,
    reference_cell,
)
from repro.data.catalog import table1_working_electrode
from repro.engine import AssayJob, AssayScheduler
from repro.errors import ProtocolError, SpecError
from repro.io.export import run_record_to_json
from repro.measurement import PanelProtocol

CA_DWELL = 6.0  # short dwell keeps the suite fast; physics unchanged


def quick_spec(seed: int = 7, name: str = "quick", **protocol) -> api.AssaySpec:
    protocol.setdefault("ca_dwell", CA_DWELL)
    return api.AssaySpec(name=name, seed=seed,
                         chain=api.ChainSpec(seed=seed),
                         protocol=api.PanelProtocolSpec(**protocol))


def assert_panel_results_equal(ref, got):
    assert set(ref.traces) == set(got.traces)
    for name in ref.traces:
        assert np.array_equal(ref.traces[name].current,
                              got.traces[name].current)
        assert np.array_equal(ref.traces[name].true_current,
                              got.traces[name].true_current)
    assert set(ref.voltammograms) == set(got.voltammograms)
    for name in ref.voltammograms:
        assert np.array_equal(ref.voltammograms[name].current,
                              got.voltammograms[name].current)
    assert set(ref.readouts) == set(got.readouts)
    for target in ref.readouts:
        assert ref.readouts[target].signal == got.readouts[target].signal
        assert ref.readouts[target].we_name == got.readouts[target].we_name
    assert ref.assay_time == got.assay_time
    assert ref.blank_current == got.blank_current


class TestSpecRoundTrips:
    def _round_trip(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        return api.spec_from_dict(payload)

    def test_assay_round_trip(self):
        spec = quick_spec(seed=3)
        back = self._round_trip(spec)
        assert back == spec
        assert api.spec_hash(back) == api.spec_hash(spec)

    def test_assay_with_injections_round_trip(self):
        spec = quick_spec(injections=(
            api.InjectionEvent(2.0, "glucose", 1.0),
            api.InjectionEvent(4.0, "lactate", 0.5)))
        back = self._round_trip(spec)
        assert back == spec

    def test_assay_with_per_we_injections_round_trip(self):
        spec = quick_spec(injections={
            "WE1": (api.InjectionEvent(2.0, "glucose", 1.0),)})
        back = self._round_trip(spec)
        assert back.protocol.injections["WE1"] == \
            spec.protocol.injections["WE1"]

    def test_fleet_round_trip(self):
        spec = api.FleetSpec.homogeneous(cells=3, seed=9, ca_dwell=CA_DWELL)
        back = self._round_trip(spec)
        assert back == spec
        assert len(back) == 3
        assert back.assays[2].seed == 11

    def test_calibration_round_trip(self):
        spec = api.CalibrationSpec(target="lactate", points=5, seed=4)
        assert self._round_trip(spec) == spec

    def test_explore_round_trip(self):
        from repro.core import panel_to_dict, paper_panel_spec
        spec = api.ExploreSpec(panel=panel_to_dict(paper_panel_spec()))
        assert self._round_trip(spec) == spec

    def test_platform_round_trip(self):
        design = _mini_design_payload()
        spec = api.PlatformSpec(design=design,
                                concentrations={"glucose": 2.0},
                                ca_dwell=CA_DWELL)
        assert self._round_trip(spec) == spec

    def test_hash_changes_with_content(self):
        assert api.spec_hash(quick_spec(seed=1)) != \
            api.spec_hash(quick_spec(seed=2))

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "assay.json"
        path.write_text(json.dumps(quick_spec().to_dict()))
        loaded = api.load_spec(path)
        assert loaded == quick_spec()


class TestSpecErrors:
    def test_unknown_kind_named(self):
        with pytest.raises(SpecError, match="unknown spec kind 'bogus'"):
            api.spec_from_dict({"schema": 1, "kind": "bogus"})

    def test_missing_kind_named(self):
        with pytest.raises(SpecError, match="missing required key 'kind'"):
            api.spec_from_dict({"schema": 1})

    def test_wrong_schema_version(self):
        payload = quick_spec().to_dict()
        payload["schema"] = 99
        with pytest.raises(SpecError, match="unsupported schema version"):
            api.spec_from_dict(payload)

    def test_bad_injection_path_in_message(self):
        payload = quick_spec().to_dict()
        payload["protocol"]["injections"] = [{"time": 1.0}]
        with pytest.raises(SpecError,
                           match=r"injections\[0\].*'species'"):
            api.spec_from_dict(payload)

    def test_fleet_assay_path_in_message(self):
        payload = api.FleetSpec.homogeneous(cells=2).to_dict()
        del payload["assays"][1]["kind"]
        with pytest.raises(SpecError, match=r"assays\[1\]"):
            api.spec_from_dict(payload)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            api.load_spec(tmp_path / "missing.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            api.load_spec(path)

    def test_calibration_needs_two_points(self):
        with pytest.raises(SpecError, match="points"):
            api.spec_from_dict({"schema": 1, "kind": "calibration",
                                "target": "glucose", "points": 1})

    def test_unknown_calibration_target(self):
        with pytest.raises(SpecError, match="no performance record"):
            api.run(api.CalibrationSpec(target="unobtainium"))

    def test_run_rejects_non_spec(self):
        with pytest.raises(SpecError, match="not a runnable spec"):
            api.run(object())


class TestRunBitIdentity:
    def test_assay_matches_direct_protocol_run(self):
        record = api.run(quick_spec(seed=7))
        ref = PanelProtocol(ca_dwell=CA_DWELL).run(
            paper_panel_cell(),
            integrated_chain("cyp_micro", n_channels=5, seed=7),
            rng=np.random.default_rng(7))
        assert_panel_results_equal(ref, record.result)

    def test_sequential_assay_matches_reference_path(self):
        # Every spec-built assay runs batched, with engine statistics,
        # and matches the class-level sequential per-WE reference.
        record = api.run(quick_spec(seed=5))
        assert record.engine is not None
        assert record.engine.n_solve_steps > 0
        ref = PanelProtocol(ca_dwell=CA_DWELL, batch_electrodes=False).run(
            paper_panel_cell(),
            integrated_chain("cyp_micro", n_channels=5, seed=5),
            rng=np.random.default_rng(5))
        assert_panel_results_equal(ref, record.result)

    def test_assay_record_alike_plain_inline_and_stored(self, tmp_path):
        # One route: the default, an explicit inline backend and a run
        # store all run the assay as the same one-job fleet.
        spec = quick_spec(seed=9)

        def comparable(record):
            out = record.to_dict()
            del out["provenance"]["wall_time_s"]
            out["provenance"].pop("store", None)
            return out

        plain = api.run(spec)
        inline = api.run(spec, backend="inline")
        stored = api.run(spec, store=api.RunStore(tmp_path))
        assert not stored.cached
        assert comparable(plain) == comparable(inline) == comparable(stored)
        for record in (inline, stored):
            assert_panel_results_equal(plain.result, record.result)

    def test_run_accepts_payload_dict(self):
        record = api.run(quick_spec(seed=7).to_dict())
        assert record.job_name == "quick"
        assert record.seed == 7

    def test_fleet_matches_hand_built_scheduler(self):
        spec = api.FleetSpec.homogeneous(cells=3, seed=13,
                                         ca_dwell=CA_DWELL)
        record = api.run(spec)
        jobs = [AssayJob(cell=paper_panel_cell(),
                         chain=integrated_chain("cyp_micro", n_channels=5,
                                                seed=13 + k),
                         name=f"cell{k:02d}",
                         rng=np.random.default_rng(13 + k))
                for k in range(3)]
        fleet = AssayScheduler(PanelProtocol(ca_dwell=CA_DWELL)).run_many(jobs)
        assert record.names == fleet.names
        assert record.engine.n_fused_dwells == fleet.n_fused_dwells
        assert record.engine.n_dwell_groups == fleet.n_dwell_groups
        for rec, ref in zip(record.records, fleet.results):
            assert_panel_results_equal(ref, rec.result)

    def test_calibration_matches_direct_closure(self):
        record = api.run(api.CalibrationSpec(target="glucose", points=4,
                                             seed=3))
        paper = performance_record("glucose")
        cell = reference_cell("glucose")
        chain = bench_chain(seed=3)
        we = cell.working_electrodes[0]
        e = table1_working_electrode(
            "glucose").effective_h2o2_wave().potential_for_efficiency(0.95)

        def signal_at(c):
            cell.chamber.set_bulk("glucose", c)
            return chain.measure_constant(
                cell.measured_current(we.name, e), duration=5.0, we=we)

        lo, hi = paper.linear_range
        ref = run_calibration(signal_at, list(np.linspace(lo, hi * 1.5, 4)))
        assert ref.blank_mean == record.curve.blank_mean
        assert ref.blank_std == record.curve.blank_std
        for p, q in zip(ref.points, record.curve.points):
            assert (p.concentration, p.signal) == (q.concentration, q.signal)

    def test_cv_detected_target_raises(self):
        with pytest.raises(ProtocolError, match="CV-detected"):
            api.run(api.CalibrationSpec(target="cholesterol"))


class TestStreaming:
    def test_iter_matches_run_many_order_and_content(self):
        spec = api.FleetSpec.homogeneous(cells=4, seed=21,
                                         ca_dwell=CA_DWELL)
        streamed = list(api.iter_results(spec))
        assert [r.job_name for r in streamed] == \
            [f"cell{k:02d}" for k in range(4)]
        collected = api.run(spec)
        for s, c in zip(streamed, collected.records):
            assert s.job_name == c.job_name
            assert_panel_results_equal(c.result, s.result)

    def test_scheduler_run_iter_matches_run_many(self):
        def jobs():
            return [AssayJob(cell=paper_panel_cell(),
                             chain=integrated_chain("cyp_micro",
                                                    n_channels=5,
                                                    seed=31 + k),
                             name=f"j{k}",
                             rng=np.random.default_rng(31 + k))
                    for k in range(3)]

        scheduler = AssayScheduler(PanelProtocol(ca_dwell=CA_DWELL))
        items = list(scheduler.run_iter(jobs()))
        fleet = scheduler.run_many(jobs())
        assert tuple(i.name for i in items) == fleet.names
        assert items[-1].n_fused_dwells == fleet.n_fused_dwells
        assert items[-1].n_dwell_groups == fleet.n_dwell_groups
        for item, ref in zip(items, fleet.results):
            assert_panel_results_equal(ref, item.result)

    def test_lazy_groups_accumulate_per_protocol(self):
        # Two protocol parameter sets -> two dwell groups, simulated
        # lazily: the first job's yield must not have run group 2 yet.
        fast = PanelProtocol(ca_dwell=CA_DWELL)
        slow = PanelProtocol(ca_dwell=2 * CA_DWELL)
        jobs = [AssayJob(cell=paper_panel_cell(),
                         chain=integrated_chain("cyp_micro", n_channels=5,
                                                seed=41 + k),
                         name=f"j{k}", rng=np.random.default_rng(41 + k),
                         protocol=fast if k == 0 else slow)
                for k in range(2)]
        items = list(AssayScheduler().run_iter(jobs))
        assert items[0].n_dwell_groups == 1
        assert items[1].n_dwell_groups == 2
        assert items[1].n_fused_dwells == 2 * items[0].n_fused_dwells

    def test_iter_results_accepts_single_assay(self):
        records = list(api.iter_results(quick_spec(seed=2)))
        assert len(records) == 1
        assert records[0].job_name == "quick"


class TestRunRecords:
    def test_records_carry_provenance(self):
        spec = quick_spec(seed=7)
        record = api.run(spec)
        assert record.spec_hash == api.spec_hash(spec)
        assert record.schema_version == api.SCHEMA_VERSION
        assert record.seed == 7
        assert record.kind == "assay"
        assert record.wall_time_s > 0.0
        assert record.engine.n_dwell_groups == 1

    def test_fleet_records_carry_per_job_provenance(self):
        spec = api.FleetSpec.homogeneous(cells=2, seed=5, ca_dwell=CA_DWELL)
        record = api.run(spec)
        assert record.spec_hash == api.spec_hash(spec)
        assert record.seed is None
        # A fleet has no single seed, but its record carries every
        # job's seed in job order (and exports it in to_dict()).
        assert record.seeds == (5, 6)
        assert record.provenance()["seeds"] == [5, 6]
        assert record.to_dict()["provenance"]["seeds"] == [5, 6]
        for k, rec in enumerate(record.records):
            assert rec.seed == 5 + k
            assert rec.spec_hash == api.spec_hash(spec.assays[k])

    def test_records_report_uncached(self):
        record = api.run(quick_spec(seed=9))
        assert record.cached is False
        assert record.provenance()["cached"] is False

    def test_record_export_json(self, tmp_path):
        record = api.run(quick_spec(seed=7))
        path = run_record_to_json(record, tmp_path / "record.json")
        payload = json.loads(path.read_text())
        assert payload["provenance"]["spec_hash"] == record.spec_hash
        assert payload["spec"] == record.spec
        assert "glucose" in payload["result"]["readouts"]
        assert payload["result"]["engine"]["n_fused_dwells"] > 0

    def test_platform_record(self):
        record = api.run(api.PlatformSpec(
            design=_mini_design_payload(),
            concentrations={"glucose": 2.0}, ca_dwell=CA_DWELL))
        assert record.kind == "platform"
        assert "glucose" in record.result.readouts
        assert "Platform" in record.summary

    def test_explore_record(self):
        from repro.core import panel_to_dict
        from repro.core.targets import PanelSpec, TargetSpec
        mini = PanelSpec(name="mini",
                         targets=(TargetSpec("glucose", 0.5, 4.0),))
        record = api.run(api.ExploreSpec(panel=panel_to_dict(mini)))
        assert record.result.n_feasible > 0
        assert record.to_dict()["result"]["n_pareto"] >= 1


def _mini_design_payload() -> dict:
    from repro.core import (
        design_from_choices,
        design_to_dict,
        probe_options,
    )
    from repro.core.library import PAPER_ELECTRODE_AREA
    from repro.core.targets import PanelSpec, TargetSpec

    panel = PanelSpec(name="mini",
                      targets=(TargetSpec("glucose", 0.5, 4.0),))
    choices = {"glucose": probe_options("glucose")[0]}
    design = design_from_choices(
        panel, choices, structure="shared_chamber", readout="mux_shared",
        noise="cds", nanostructure=None, we_area=PAPER_ELECTRODE_AREA,
        scan_rate=0.02)
    return design_to_dict(design)


class TestSpecShapeGuards:
    """Malformed payload *shapes* surface as SpecError, never TypeError."""

    def test_non_list_fleet_assays(self):
        with pytest.raises(SpecError, match=r"assays: expected a list"):
            api.spec_from_dict({"schema": 1, "kind": "fleet", "assays": 5})

    def test_non_object_platform_design(self):
        with pytest.raises(SpecError, match=r"design: expected"):
            api.spec_from_dict({"schema": 1, "kind": "platform",
                                "design": [1, 2, 3]})

    def test_unhashable_kind(self):
        with pytest.raises(SpecError, match="unknown spec kind"):
            api.spec_from_dict({"schema": 1, "kind": ["assay"]})

    def test_non_list_panel_targets(self):
        from repro.core.spec import panel_from_dict
        with pytest.raises(SpecError, match=r"targets: expected a list"):
            panel_from_dict({"kind": "panel", "schema": 1, "name": "x",
                             "targets": 5})

    def test_non_list_design_assignments(self):
        from repro.core.spec import design_from_dict
        with pytest.raises(SpecError, match=r"assignments: expected a list"):
            design_from_dict({"kind": "design", "schema": 1, "name": "x",
                              "assignments": "nope"})

    def test_numeric_coercion_failures_are_spec_errors(self):
        payload = {"schema": 1, "kind": "calibration",
                   "target": "glucose", "points": "many"}
        with pytest.raises(SpecError, match=r"points: expected an integer"):
            api.spec_from_dict(payload)
        bad_assay = quick_spec().to_dict()
        bad_assay["protocol"]["ca_dwell"] = "long"
        with pytest.raises(SpecError, match=r"ca_dwell: expected a number"):
            api.spec_from_dict(bad_assay)

    def test_v6_batch_electrodes_key_drops(self):
        # Schema v7 removed the flag: its values gave the same bytes, so
        # a v6 file carrying it (even a malformed string) is the same
        # assay without it.
        spec = quick_spec(seed=4)
        reference = api.run(spec).to_dict()
        del reference["provenance"]["wall_time_s"]
        for flag in (True, False, "false"):
            payload = json.loads(json.dumps(spec.to_dict()))
            payload["schema"] = 6
            payload["protocol"]["batch_electrodes"] = flag
            loaded = api.spec_from_dict(payload)
            assert loaded == spec
            emitted = loaded.to_dict()
            assert emitted == spec.to_dict()
            assert emitted["schema"] == api.SCHEMA_VERSION == 7
            assert "batch_electrodes" not in emitted["protocol"]
            got = api.run(loaded).to_dict()
            del got["provenance"]["wall_time_s"]
            assert got == reference

    def test_empty_fleet_rejected_at_construction(self):
        with pytest.raises(SpecError, match="at least one assay"):
            api.FleetSpec()

    def test_hash_stable_for_handwritten_int_fields(self):
        spec = api.AssaySpec(
            protocol=api.PanelProtocolSpec(ca_dwell=30))  # int, not float
        payload = json.loads(json.dumps(spec.to_dict()))
        payload["protocol"]["ca_dwell"] = 30  # as a hand-written file
        assert api.spec_hash(payload) == api.spec_hash(spec)
        assert api.spec_hash(api.spec_from_dict(payload)) == \
            api.spec_hash(spec)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(SpecError, match=r"seed: expected an integer"):
            api.spec_from_dict({"schema": 1, "kind": "assay", "seed": 7.9})

    def test_embedded_design_payload_canonicalised_for_hash(self):
        import copy
        design = _mini_design_payload()
        handwritten = copy.deepcopy(design)
        del handwritten["nanostructure"]  # optional key omitted in a file
        assert api.spec_hash(api.PlatformSpec(design=design)) == \
            api.spec_hash(api.PlatformSpec(design=handwritten))

    def test_bool_and_string_numbers_rejected(self):
        payload = quick_spec().to_dict()
        payload["protocol"]["ca_dwell"] = True
        with pytest.raises(SpecError, match=r"ca_dwell: expected a number"):
            api.spec_from_dict(payload)
        payload["protocol"]["ca_dwell"] = "30"
        with pytest.raises(SpecError, match=r"ca_dwell: expected a number"):
            api.spec_from_dict(payload)

    def test_reference_cell_applies_concentrations(self):
        cell = api.CellSpec(kind="reference", target="glucose",
                            concentrations={"glucose": 2.7}).build()
        assert cell.chamber.bulk("glucose") == 2.7

    def test_paper_panel_rejects_target(self):
        with pytest.raises(SpecError, match="only for kind 'reference'"):
            api.CellSpec(kind="paper_panel", target="glucose").build()

    def test_bench_chain_hash_ignores_irrelevant_fields(self):
        a = api.ChainSpec(kind="bench", readout="cyp", n_channels=3, seed=1)
        b = api.ChainSpec(kind="bench", seed=1)
        assert a.to_dict() == b.to_dict()

    def test_unknown_reference_target_is_spec_error(self):
        spec = api.AssaySpec(cell=api.CellSpec(kind="reference",
                                               target="bogus"))
        with pytest.raises(SpecError, match="bogus"):
            api.run(spec)

    def test_string_numbers_in_panel_targets_are_spec_errors(self):
        from repro.core.spec import panel_from_dict
        with pytest.raises(SpecError, match="malformed"):
            panel_from_dict({"schema": 1, "kind": "panel", "name": "p",
                             "targets": [{"species": "glucose",
                                          "c_min": "0.5", "c_max": 4.0}]})


class TestScreening:
    """The opt-in screening profile: provenance-flagged, never default.

    Screening swaps in a coarser chemistry grid — it changes physics —
    so it must be content-addressed apart from its full-fidelity twin
    at every granularity (spec hash and per-job key), stamped into
    record provenance, and engaged only by explicit request.
    """

    def test_screening_spec_has_distinct_hash_and_job_key(self):
        import dataclasses

        full = quick_spec(seed=11)
        screening = dataclasses.replace(full, screening=True)
        assert api.spec_hash(screening) != api.spec_hash(full)
        assert (api.JobKey.for_assay(screening).digest
                != api.JobKey.for_assay(full).digest)

    def test_screening_round_trips(self):
        import dataclasses

        spec = dataclasses.replace(quick_spec(seed=3), screening=True)
        back = api.spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.screening is True
        # Default payloads omit nothing: the flag is always emitted, so
        # the canonical payload (and hash) is stable across round trips.
        assert quick_spec(seed=3).to_dict()["screening"] is False

    def test_default_run_is_full_fidelity(self):
        record = api.run(quick_spec(seed=21))
        assert record.provenance()["screening"] is False

    def test_screening_kwarg_flags_provenance_and_changes_physics(self):
        import dataclasses

        spec = quick_spec(seed=21)
        full = api.run(spec)
        screened = api.run(spec, screening=True)
        assert screened.provenance()["screening"] is True
        assert screened.spec_hash != full.spec_hash
        # The kwarg is shorthand for the spec field: identical record.
        explicit = api.run(dataclasses.replace(spec, screening=True))
        assert explicit.spec_hash == screened.spec_hash
        assert np.array_equal(
            explicit.result.traces["WE1"].current,
            screened.result.traces["WE1"].current)
        # Coarser grid -> different chemistry than the full run.
        assert not np.array_equal(
            screened.result.traces["WE1"].true_current,
            full.result.traces["WE1"].true_current)

    def test_screening_and_full_runs_coexist_in_one_store(self, tmp_path):
        spec = quick_spec(seed=33)
        store = api.RunStore(tmp_path / "runs")
        full = api.run(spec, store=store)
        screened = api.run(spec, store=store, screening=True)
        assert not full.cached and not screened.cached
        # Re-runs hit their own entries; neither shadows the other.
        assert api.run(spec, store=store).cached
        again = api.run(spec, store=store, screening=True)
        assert again.cached and again.spec_hash == screened.spec_hash

    def test_screening_kwarg_applies_to_fleets_and_sweeps(self):
        fleet = api.FleetSpec.homogeneous(cells=2, seed=5,
                                          ca_dwell=CA_DWELL)
        record = api.run(fleet, screening=True)
        assert record.provenance()["screening"] is True
        for rec in record.records:
            assert rec.provenance()["screening"] is True
        sweep = api.SweepSpec(base=quick_spec(seed=2),
                              grid={"seed": [2, 3]}, screening=True)
        compiled = sweep.compile()
        assert all(assay.screening for assay in compiled.assays)

    def test_screening_kwarg_rejected_for_other_kinds(self):
        spec = api.CalibrationSpec(target="glucose", points=3, seed=1)
        with pytest.raises(SpecError, match="screening"):
            api.run(spec, screening=True)
