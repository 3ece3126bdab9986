"""Cross-electrode panel batching and the multi-assay fleet scheduler.

The acceptance bar of PR 2: the fused paths — all chronoamperometric
dwells of a cell in one engine solve (`PanelProtocol`), and all dwells
of many cells fused across jobs (`AssayScheduler`) — must reproduce the
sequential per-WE reference path *bit for bit*, because chemistry
consumes no randomness and digitisation draws per WE in the original
electrode order.  These tests pin that equivalence on cells mixing
oxidase, CYP and blank electrodes, with mid-dwell injection schedules
and permuted electrode orders, plus the quick (smoke) mode of the
throughput bench so a perf/correctness regression in the batched path
fails tier-1 fast.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chem.solution import InjectionSchedule
from repro.data import bench_chain
from repro.electronics.waveform import uniform_sample_times
from repro.engine import AssayJob, AssayScheduler, DwellBatch, SweepBatch
from repro.errors import ProtocolError, SimulationError
from repro.measurement.chronoamperometry import Chronoamperometry
from repro.measurement.panel import PanelProtocol
from repro.sensors.electrode import Electrode, ElectrodeRole, WorkingElectrode
from repro.sensors.functionalization import (
    blank,
    with_cytochrome,
    with_oxidase,
)
from repro.sensors.materials import get_material


def _we(name, functionalization, material="screen_printed_carbon",
        area=7.0e-6):
    return WorkingElectrode(
        electrode=Electrode(name=name, role=ElectrodeRole.WORKING,
                            material=get_material(material), area=area),
        functionalization=functionalization)


@pytest.fixture
def mixed_cell(glucose_oxidase, cyp2b4_probe, cell_factory):
    """Oxidase + CYP + blank WEs behind one chamber, dopamine loaded.

    Dopamine oxidises directly on any electrode, so even the blank dwell
    carries chemistry — the CDS-breaking case the panel must batch.
    """
    def build(order=("ox", "cyp", "blank")):
        wes = {"ox": _we("WE_ox", with_oxidase(glucose_oxidase)),
               "cyp": _we("WE_cyp", with_cytochrome(cyp2b4_probe),
                          material="rhodium_graphite"),
               "blank": _we("WE_blank", blank(), material="gold")}
        cell = cell_factory([wes[k] for k in order])
        cell.chamber.set_bulk("glucose", 2.0)
        cell.chamber.set_bulk("benzphetamine", 0.8)
        cell.chamber.set_bulk("aminopyrine", 2.0)
        cell.chamber.set_bulk("dopamine", 0.3)
        return cell

    return build


def assert_panel_results_equal(ref, got):
    """Bit-for-bit equality of two PanelResult records."""
    assert ref.traces.keys() == got.traces.keys()
    for name in ref.traces:
        assert np.array_equal(ref.traces[name].times, got.traces[name].times)
        assert np.array_equal(ref.traces[name].current,
                              got.traces[name].current)
        assert np.array_equal(ref.traces[name].true_current,
                              got.traces[name].true_current)
    assert ref.voltammograms.keys() == got.voltammograms.keys()
    for name in ref.voltammograms:
        assert np.array_equal(ref.voltammograms[name].current,
                              got.voltammograms[name].current)
    assert ref.readouts.keys() == got.readouts.keys()
    for target in ref.readouts:
        assert ref.readouts[target].signal == got.readouts[target].signal
        assert ref.readouts[target].e_applied == got.readouts[target].e_applied
    assert ref.assay_time == got.assay_time
    assert ref.blank_current == got.blank_current
    assert ref.blank_e_applied == got.blank_e_applied


def run_both_paths(cell, protocol_kwargs=None, seed=17):
    kwargs = dict(ca_dwell=20.0, sample_rate=5.0)
    kwargs.update(protocol_kwargs or {})
    sequential = PanelProtocol(batch_electrodes=False, **kwargs).run(
        cell, bench_chain(seed=1), rng=np.random.default_rng(seed))
    batched = PanelProtocol(batch_electrodes=True, **kwargs).run(
        cell, bench_chain(seed=1), rng=np.random.default_rng(seed))
    return sequential, batched


class TestBatchedPanelEquivalence:
    """Fused cross-electrode dwells vs the sequential reference path."""

    def test_mixed_cell_bit_identical(self, mixed_cell):
        sequential, batched = run_both_paths(mixed_cell())
        assert_panel_results_equal(sequential, batched)
        # The batched run really did fuse: blank + oxidase dwells exist.
        assert set(batched.traces) == {"WE_ox", "WE_blank"}
        assert "WE_cyp" in batched.voltammograms

    @pytest.mark.parametrize("order", [("blank", "cyp", "ox"),
                                       ("cyp", "ox", "blank")])
    def test_permuted_electrode_order(self, mixed_cell, order):
        sequential, batched = run_both_paths(mixed_cell(order))
        assert_panel_results_equal(sequential, batched)

    def test_mid_dwell_injections_bit_identical(self, mixed_cell):
        schedule = {
            "WE_ox": InjectionSchedule.staircase("glucose", 1.0, 2, 6.0,
                                                 start=4.0),
            "WE_blank": InjectionSchedule.single(8.0, "dopamine", 0.5),
        }
        sequential, batched = run_both_paths(
            mixed_cell(), {"ca_injections": schedule})
        assert_panel_results_equal(sequential, batched)
        # The staircase visibly moved the oxidase record.
        flat, _ = run_both_paths(mixed_cell())
        assert (sequential.traces["WE_ox"].true_current[-1]
                > flat.traces["WE_ox"].true_current[-1])

    def test_shared_schedule_applies_to_every_ca_we(self, mixed_cell):
        schedule = InjectionSchedule.single(5.0, "dopamine", 0.4)
        sequential, batched = run_both_paths(
            mixed_cell(), {"ca_injections": schedule})
        assert_panel_results_equal(sequential, batched)

    def test_injection_outside_dwell_rejected(self):
        with pytest.raises(ProtocolError, match="outside the record"):
            PanelProtocol(ca_dwell=10.0,
                          ca_injections=InjectionSchedule.single(
                              12.0, "glucose", 1.0))
        with pytest.raises(ProtocolError, match="outside the record"):
            PanelProtocol(ca_dwell=10.0, ca_injections={
                "WE_ox": InjectionSchedule.single(12.0, "glucose", 1.0)})

    def test_mapping_with_none_schedule_means_no_injections(self, mixed_cell):
        # None inside a mapping spells "no schedule for this WE".
        schedule = {"WE_ox": InjectionSchedule.single(5.0, "glucose", 1.0),
                    "WE_blank": None}
        sequential, batched = run_both_paths(
            mixed_cell(), {"ca_injections": schedule})
        assert_panel_results_equal(sequential, batched)

    def test_readout_surfaces_applied_potential(self, mixed_cell):
        _, batched = run_both_paths(mixed_cell())
        chain = bench_chain(seed=1)
        glucose = batched.readouts["glucose"]
        we = mixed_cell().working_electrode("WE_ox")
        e_set = we.effective_h2o2_wave().potential_for_efficiency(0.95)
        assert glucose.e_applied == pytest.approx(
            float(chain.potentiostat.applied_potential(e_set)))
        # Blank record: the generic H2O2 potential of Sec. I-B.
        assert batched.blank_e_applied == pytest.approx(
            float(chain.potentiostat.applied_potential(0.65)), abs=1e-12)
        # CV readouts sweep a program; no single applied potential.
        assert batched.readouts["benzphetamine"].e_applied is None


class TestDwellBatch:
    def test_fused_rows_match_standalone_dwells(self, mixed_cell):
        cell = mixed_cell()
        proto = Chronoamperometry(e_setpoint=0.55, duration=15.0,
                                  sample_rate=5.0)
        times = uniform_sample_times(proto.duration, proto.sample_rate)
        fused = DwellBatch(
            [proto.build_dwell(cell, "WE_ox"),
             proto.build_dwell(cell, "WE_blank")], times).simulate()
        for j, we_name in enumerate(["WE_ox", "WE_blank"]):
            _, alone = proto.simulate_true_current(cell, we_name)
            assert np.array_equal(fused[j], alone)

    def test_heterogeneous_grids_fuse(self, mixed_cell, glucose_oxidase,
                                      cell_factory):
        # A second oxidase WE with a different area -> different Nernst
        # layer -> different grid; the batch pads and stays exact.
        cell = mixed_cell()
        big = _we("WE_big", with_oxidase(glucose_oxidase), area=2.5e-5)
        cell2 = cell_factory([cell.working_electrode("WE_ox"), big])
        cell2.chamber.set_bulk("glucose", 2.0)
        proto = Chronoamperometry(e_setpoint=0.45, duration=10.0,
                                  sample_rate=5.0)
        times = uniform_sample_times(proto.duration, proto.sample_rate)
        dwells = [proto.build_dwell(cell2, name)
                  for name in ("WE_ox", "WE_big")]
        grids = {d.mechanisms["glucose"].solver.grid.x[1] for d in dwells}
        assert len(grids) == 2  # genuinely heterogeneous spacings
        fused = DwellBatch(dwells, times).simulate()
        for j, name in enumerate(["WE_ox", "WE_big"]):
            _, alone = proto.simulate_true_current(cell2, name)
            assert np.array_equal(fused[j], alone)

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError, match="at least one dwell"):
            DwellBatch([], np.linspace(0.0, 1.0, 5))

    def test_mismatched_time_axis_rejected(self, mixed_cell):
        proto = Chronoamperometry(e_setpoint=0.55, duration=15.0,
                                  sample_rate=5.0)  # dwell dt = 0.2
        dwell = proto.build_dwell(mixed_cell(), "WE_ox")
        with pytest.raises(SimulationError, match="time axis"):
            DwellBatch([dwell], uniform_sample_times(15.0, 10.0))

    def test_first_mismatched_dwell_is_named(self):
        def dwell(name, dt):
            return SimpleNamespace(we_name=name, dt=dt,
                                   injections=SimpleNamespace(injections=()))

        times = uniform_sample_times(15.0, 10.0)
        good = [dwell(f"ok{k}", 0.1) for k in range(3)]
        with pytest.raises(SimulationError, match="'slow1'"):
            DwellBatch([*good, dwell("slow1", 0.2), dwell("slow2", 0.2)],
                       times)
        assert DwellBatch(good, times).n_dwells == 3


class TestAssayScheduler:
    def _jobs(self, mixed_cell, glucose_cell, n=3):
        jobs, references = [], []
        protocol = PanelProtocol(ca_dwell=12.0, sample_rate=5.0,
                                 batch_electrodes=False)
        for k in range(n):
            cell = mixed_cell() if k % 2 == 0 else glucose_cell
            jobs.append(AssayJob(cell=cell, chain=bench_chain(seed=50 + k),
                                 name=f"assay{k}",
                                 rng=np.random.default_rng(50 + k)))
            references.append(protocol.run(
                cell, bench_chain(seed=50 + k),
                rng=np.random.default_rng(50 + k)))
        return jobs, references

    def test_fleet_bit_identical_to_sequential_panels(self, mixed_cell,
                                                      glucose_cell):
        jobs, references = self._jobs(mixed_cell, glucose_cell)
        fleet = AssayScheduler(
            PanelProtocol(ca_dwell=12.0, sample_rate=5.0)).run_many(jobs)
        assert len(fleet) == len(jobs)
        assert fleet.n_dwell_groups == 1  # one shared protocol -> one group
        assert fleet.n_fused_dwells >= 4  # dwells fused across cells
        for reference, result in zip(references, fleet.results):
            assert_panel_results_equal(reference, result)

    def test_per_job_protocol_forms_its_own_group(self, glucose_cell):
        short = PanelProtocol(ca_dwell=8.0, sample_rate=5.0)
        jobs = [
            AssayJob(cell=glucose_cell, chain=bench_chain(seed=3),
                     name="default", rng=np.random.default_rng(3)),
            AssayJob(cell=glucose_cell, chain=bench_chain(seed=4),
                     name="short", rng=np.random.default_rng(4),
                     protocol=short),
        ]
        fleet = AssayScheduler(
            PanelProtocol(ca_dwell=12.0, sample_rate=5.0)).run_many(jobs)
        assert fleet.n_dwell_groups == 2
        assert (fleet.result_for("short").traces["WE1"].n_samples
                < fleet.result_for("default").traces["WE1"].n_samples)

    def test_tuple_jobs_and_lookup(self, glucose_cell):
        fleet = AssayScheduler(
            PanelProtocol(ca_dwell=8.0, sample_rate=5.0)).run_many(
                [(glucose_cell, bench_chain(seed=9))])
        assert fleet.names == ("job0",)
        assert "glucose" in fleet.by_name["job0"].readouts
        with pytest.raises(SimulationError, match="no job named"):
            fleet.result_for("missing")

    def test_duplicate_job_names_rejected_before_any_chemistry(
            self, glucose_cell):
        # Silent shadowing in by_name would lose a result; the scheduler
        # must refuse at planning time, before any engine work runs.
        jobs = [AssayJob(cell=glucose_cell, chain=bench_chain(seed=1),
                         name="twin", rng=np.random.default_rng(1)),
                AssayJob(cell=glucose_cell, chain=bench_chain(seed=2),
                         name="twin", rng=np.random.default_rng(2))]
        scheduler = AssayScheduler(PanelProtocol(ca_dwell=8.0,
                                                 sample_rate=5.0))
        with pytest.raises(SimulationError,
                           match="duplicate job names in fleet: twin"):
            scheduler.run_many(jobs)
        # The streaming form fails just as early: the error surfaces
        # before the first item is yielded.
        with pytest.raises(SimulationError, match="duplicate job names"):
            next(scheduler.run_iter(jobs))


class TestFusedCvSweeps:
    """Cross-cell CV fusion vs the per-cell sequential reference.

    Round 2 of the scheduler fuses the CYP voltammetry sweeps across
    jobs exactly like the chronoamperometric dwells.  These tests pin
    the bit-identity property on fleets mixing CV-bearing and CA-only
    cells, under every rotation of the job order, and check the new
    fusion counters actually report the fused work.
    """

    KWARGS = {"ca_dwell": 12.0, "sample_rate": 5.0}

    def _fleet_and_references(self, cells, seeds, names):
        reference_protocol = PanelProtocol(batch_electrodes=False,
                                           **self.KWARGS)
        references = [
            reference_protocol.run(cell, bench_chain(seed=seed),
                                   rng=np.random.default_rng(seed))
            for cell, seed in zip(cells, seeds)]
        jobs = [AssayJob(cell=cell, chain=bench_chain(seed=seed),
                         name=name, rng=np.random.default_rng(seed))
                for cell, seed, name in zip(cells, seeds, names)]
        fleet = AssayScheduler(PanelProtocol(**self.KWARGS)).run_many(jobs)
        return fleet, references

    @pytest.mark.parametrize("rotation", [0, 1, 2])
    def test_mixed_cv_ca_fleet_bit_identical_under_job_order(
            self, mixed_cell, glucose_cell, rotation):
        # Two CV-bearing cells (permuted electrode orders) plus one
        # CA-only cell, rotated through every job position: each job's
        # result must match its own sequential reference regardless of
        # where it lands in the fused batches.
        cells = [mixed_cell(), glucose_cell,
                 mixed_cell(("cyp", "ox", "blank"))]
        seeds = [90, 91, 92]
        names = ["assay0", "assay1", "assay2"]
        indices = [(k + rotation) % 3 for k in range(3)]
        fleet, references = self._fleet_and_references(
            [cells[i] for i in indices], [seeds[i] for i in indices],
            [names[i] for i in indices])
        # Both CYP sweeps share one waveform/rate -> one fused group.
        assert fleet.n_fused_sweeps == 2
        assert fleet.n_sweep_groups == 1
        for reference, result in zip(references, fleet.results):
            assert_panel_results_equal(reference, result)

    def test_ca_only_fleet_reports_no_fused_sweeps(self, glucose_cell):
        fleet = AssayScheduler(
            PanelProtocol(ca_dwell=8.0, sample_rate=5.0)).run_many(
                [(glucose_cell, bench_chain(seed=9))])
        assert fleet.n_fused_sweeps == 0
        assert fleet.n_sweep_groups == 0

    def test_fused_sweep_steps_counted_in_solve_steps(self, mixed_cell):
        # CV fusion work must show up in the cumulative step counter
        # (the store's zero-engine-work proof depends on it).
        cell = mixed_cell()
        fleet = AssayScheduler(PanelProtocol(**self.KWARGS)).run_many(
            [AssayJob(cell=cell, chain=bench_chain(seed=5), name="one",
                      rng=np.random.default_rng(5))])
        assert fleet.n_fused_sweeps == 1
        assert fleet.n_sweep_groups == 1
        sweep, = PanelProtocol(**self.KWARGS).plan_sweeps(
            cell, bench_chain(seed=5))
        assert fleet.n_solve_steps > sweep.times.size


class TestSampleRateFusion:
    """One SweepBatch per sample rate: windows of different length fuse.

    The paper panel's two CYP WEs sweep different windows (CYP2B4 over
    its two drug waves, CYP11A1 over cholesterol's), so their records
    differ in length; at one sample rate the shorter time axis is a
    prefix of the longer and both fuse into one group, the shorter
    sweep's rows retiring when its record ends.
    """

    KWARGS = {"ca_dwell": 6.0, "sample_rate": 4.0}
    LOADINGS = (
        None,                                        # mid-range panel
        {"glucose": 3.0, "lactate": 1.0, "glutamate": 0.6,
         "benzphetamine": 0.4, "aminopyrine": 2.5, "cholesterol": 0.08},
        # No cholesterol: WE5 plans a sweep with no redox channel.
        {"glucose": 1.0, "lactate": 2.0, "glutamate": 1.5,
         "benzphetamine": 0.9, "aminopyrine": 5.0, "cholesterol": 0.0},
    )

    @pytest.fixture(scope="class")
    def references(self):
        from repro.data.catalog import paper_panel_cell

        cells = [paper_panel_cell(loading) for loading in self.LOADINGS]
        protocol = PanelProtocol(batch_electrodes=False, **self.KWARGS)
        refs = [protocol.run(cell, bench_chain(seed=70 + k),
                             rng=np.random.default_rng(70 + k))
                for k, cell in enumerate(cells)]
        return cells, refs

    def _fleet(self, cells, order):
        jobs = [AssayJob(cell=cells[k], chain=bench_chain(seed=70 + k),
                         name=f"panel{k}", rng=np.random.default_rng(70 + k))
                for k in order]
        return AssayScheduler(PanelProtocol(**self.KWARGS)).run_many(jobs)

    def test_windows_really_differ(self, references):
        cells, _ = references
        sweeps = PanelProtocol(**self.KWARGS).plan_sweeps(
            cells[0], bench_chain(seed=70))
        sizes = sorted(sweep.times.size for sweep in sweeps)
        assert len(sizes) == 2 and sizes[0] < sizes[1]

    @pytest.mark.parametrize("rotation", [0, 1, 2])
    def test_fleet_fuses_to_one_group_bit_identical(self, references,
                                                    rotation):
        cells, refs = references
        order = [(k + rotation) % 3 for k in range(3)]
        fleet = self._fleet(cells, order)
        assert fleet.n_fused_sweeps == 6
        assert fleet.n_sweep_groups == 1
        for k, result in zip(order, fleet.results):
            assert_panel_results_equal(refs[k], result)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_cell_fleet_bit_identical(self, references, k):
        cells, refs = references
        fleet = self._fleet(cells, [k])
        assert fleet.n_sweep_groups == 1
        assert_panel_results_equal(refs[k], fleet.results[0])

    def test_rows_retire_at_their_record_length(self, references):
        cells, _ = references
        protocol = PanelProtocol(**self.KWARGS)

        def plan():
            return [sweep for cell in cells for sweep in
                    protocol.plan_sweeps(cell, bench_chain(seed=70))]

        batch = SweepBatch(plan())
        rows = batch.simulate()
        sizes = [sweep.times.size for sweep in batch.sweeps]
        assert len(set(sizes)) == 2
        # Steps stop at the longest record, not the sum of both windows.
        assert batch.n_solve_steps == max(sizes)
        for sweep, row, alone in zip(batch.sweeps, rows, plan()):
            assert row.size == sweep.times.size
            standalone = SweepBatch([alone])
            assert np.array_equal(standalone.simulate()[0], row)
            assert standalone.n_solve_steps == (row.size if alone.channels
                                                else 0)

    def test_different_sample_rates_stay_separate(self, glucose_cell,
                                                  mixed_cell):
        cell = mixed_cell()
        slow = PanelProtocol(ca_dwell=6.0, sample_rate=4.0)
        fast = PanelProtocol(ca_dwell=6.0, sample_rate=5.0)
        jobs = [AssayJob(cell=cell, chain=bench_chain(seed=3), name="slow",
                         rng=np.random.default_rng(3), protocol=slow),
                AssayJob(cell=cell, chain=bench_chain(seed=4), name="fast",
                         rng=np.random.default_rng(4), protocol=fast)]
        fleet = AssayScheduler(slow).run_many(jobs)
        assert fleet.n_fused_sweeps == 2
        assert fleet.n_sweep_groups == 2
        for job, result in zip(jobs, fleet.results):
            reference = PanelProtocol(
                batch_electrodes=False, ca_dwell=6.0,
                sample_rate=job.protocol.sample_rate).run(
                    cell, bench_chain(seed=3 if job.name == "slow" else 4),
                    rng=np.random.default_rng(
                        3 if job.name == "slow" else 4))
            assert_panel_results_equal(reference, result)

    def test_non_prefix_time_axis_rejected(self):
        def sweep(name, times):
            return SimpleNamespace(we_name=name, times=times, channels=[],
                                   potentials=np.zeros(times.size))

        long = sweep("long", np.arange(9) * 0.25)
        with pytest.raises(SimulationError, match="not a prefix"):
            SweepBatch([long, sweep("rate", np.arange(5) * 0.2)])
        with pytest.raises(SimulationError, match="not a prefix"):
            SweepBatch([sweep("offset", 0.1 + np.arange(5) * 0.25), long])
        # A true prefix is accepted, in either order.
        batch = SweepBatch([sweep("short", np.arange(5) * 0.25), long])
        assert batch.times.size == 9


class TestDigitizeBatch:
    def test_matches_sequential_digitize_calls(self, glucose_cell):
        chain = bench_chain(seed=6)
        we = glucose_cell.working_electrodes[0]
        times = np.arange(64) / 10.0
        currents = 1.0e-7 * (1.0 + np.vstack([np.sin(times), np.cos(times)]))
        batch = chain.digitize_batch(times, currents, wes=[we, we],
                                     rng=np.random.default_rng(21))
        reference_rng = np.random.default_rng(21)
        for j in range(2):
            reference = chain.digitize(times, currents[j], we=we,
                                       rng=reference_rng)
            assert np.array_equal(batch[j].current_estimate,
                                  reference.current_estimate)
            assert np.array_equal(batch[j].codes, reference.codes)

    def test_shape_validation(self, glucose_cell):
        chain = bench_chain(seed=6)
        times = np.arange(16) / 10.0
        from repro.errors import ElectronicsError
        with pytest.raises(ElectronicsError, match="channels, samples"):
            chain.digitize_batch(times, np.zeros(16))
        with pytest.raises(ElectronicsError, match="working electrodes"):
            chain.digitize_batch(times, np.zeros((2, 16)),
                                 wes=[glucose_cell.working_electrodes[0]])


class TestBenchSmoke:
    """Tier-1 gate: the throughput bench's quick mode must stay green."""

    @pytest.fixture(scope="class")
    def bench(self):
        import os

        path = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "bench_panel_throughput.py")
        previous = os.environ.get("REPRO_BENCH_QUICK")
        os.environ["REPRO_BENCH_QUICK"] = "1"
        try:
            spec = importlib.util.spec_from_file_location(
                "bench_panel_throughput_smoke", path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
        finally:
            if previous is None:
                os.environ.pop("REPRO_BENCH_QUICK", None)
            else:
                os.environ["REPRO_BENCH_QUICK"] = previous
        yield module
        sys.modules.pop(spec.name, None)

    def test_quick_fleet_stays_fast_and_exact(self, bench):
        assert bench.QUICK and bench.N_CELLS <= 4
        out = bench.run_experiment()
        # Correctness regression: fused fleet must stay bit-identical.
        assert out["relative_deviation"] <= 1.0e-12
        # Perf regression: the fused path must not fall behind the
        # sequential reference (full bench enforces >= 3x; the smoke
        # floor is loose so CI scheduling noise cannot flake it).
        assert out["speedup"] >= 0.8
