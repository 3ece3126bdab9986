"""Plan once per chemistry.

A seed selects only a job's acquisition noise, so assays equal but for
``name`` and ``seed`` share one built cell, chain and protocol within a
solve pass (``AssaySpec.build_job`` with the pass's memo), and the
scheduler plans and solves each shared ``(cell, chain, protocol)``
triple once, fanning its rows out to every job.  Every case here runs
the same assays built without sharing — ``[a.build_job() for a in
assays]``, one triple per job — through ``AssayScheduler`` and asks for
the same bytes and the same engine statistics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.api.executors import solve
from repro.engine import AssayScheduler
from repro.measurement.chronoamperometry import ChronoDwell
from repro.measurement.panel import PanelProtocol

FAST = api.PanelProtocolSpec(ca_dwell=4.0, scan_rate=0.1)


def _digest(result) -> str:
    """sha256 over every sample array and readout of a panel result."""
    sha = hashlib.sha256()
    for name in sorted(result.traces):
        trace = result.traces[name]
        reading = trace.reading
        sha.update(name.encode())
        for array in (trace.times, trace.current, trace.true_current,
                      reading.input_current, reading.codes,
                      reading.saturated):
            sha.update(np.ascontiguousarray(array).tobytes())
    for name in sorted(result.voltammograms):
        vg = result.voltammograms[name]
        sha.update(name.encode())
        for array in (vg.times, vg.potentials, vg.current, vg.sweep_sign,
                      vg.true_current, vg.reading.codes):
            sha.update(np.ascontiguousarray(array).tobytes())
    for target in sorted(result.readouts):
        sha.update(target.encode())
        sha.update(np.float64(result.readouts[target].signal).tobytes())
    sha.update(np.float64(result.assay_time).tobytes())
    return sha.hexdigest()


def _fleet(glucose=(1.0, 2.5), seeds=(7, 8, 9), screening=False,
           injections=None) -> tuple[api.AssaySpec, ...]:
    """Replicates over ``seeds`` of one chemistry per glucose loading,
    interleaved so a chemistry's jobs are not adjacent."""
    protocol = (FAST if injections is None else api.PanelProtocolSpec(
        ca_dwell=FAST.ca_dwell, scan_rate=FAST.scan_rate,
        injections=injections))
    return tuple(
        api.AssaySpec(name=f"s{seed}-g{g}", seed=seed,
                      cell=api.CellSpec(concentrations={"glucose": g}),
                      protocol=protocol, screening=screening)
        for seed in seeds for g in glucose)


def _item_stats(item) -> tuple:
    return (item.n_fused_dwells, item.n_dwell_groups, item.n_solve_steps,
            item.n_fused_sweeps, item.n_sweep_groups, item.n_solved_systems,
            item.n_store_rows)


def _unshared(assays) -> list:
    return list(AssayScheduler().run_iter([a.build_job() for a in assays]))


def _shared(assays) -> list:
    memo: dict = {}
    return list(AssayScheduler().run_iter([a.build_job(memo)
                                           for a in assays]))


class TestBuildOnce:
    def test_memo_shares_one_triple_per_chemistry(self):
        assays = _fleet()
        memo: dict = {}
        jobs = [a.build_job(memo) for a in assays]
        assert len(memo) == 2
        for a, b in zip(jobs, jobs[2:]):
            assert a.cell is b.cell and a.chain is b.chain
            assert a.protocol is b.protocol
        assert jobs[0].cell is not jobs[1].cell
        assert [job.name for job in jobs] == [a.name for a in assays]
        # Each job keeps its own generator, seeded by its own seed.
        for job, assay in zip(jobs, assays):
            assert (job.rng.random() ==
                    np.random.default_rng(assay.seed).random())

    def test_key_ignores_only_name_and_seed(self):
        base = api.AssaySpec(name="a", seed=1, protocol=FAST)
        memo: dict = {}
        first = base.build_job(memo)
        renamed = api.AssaySpec(name="b", seed=2, protocol=FAST)
        assert renamed.chemistry_key() == base.chemistry_key()
        assert renamed.build_job(memo).cell is first.cell
        for other in (
                api.AssaySpec(name="a", seed=1, protocol=FAST,
                              screening=True),
                api.AssaySpec(name="a", seed=1, protocol=FAST,
                              chain=api.ChainSpec(seed=5)),
                api.AssaySpec(name="a", seed=1, protocol=api.
                              PanelProtocolSpec(ca_dwell=5.0,
                                                scan_rate=0.1))):
            assert other.chemistry_key() != base.chemistry_key()
            assert other.build_job(memo).cell is not first.cell

    def test_without_a_memo_nothing_is_shared(self):
        assay = api.AssaySpec(protocol=FAST)
        assert assay.build_job().cell is not assay.build_job().cell


class TestPlanOnce:
    @pytest.mark.parametrize("screening", [False, True])
    def test_replicates_equal_unshared_jobs(self, screening):
        assays = _fleet(screening=screening)
        ref, got = _unshared(assays), _shared(assays)
        assert [_digest(i.result) for i in got] == [_digest(i.result)
                                                    for i in ref]
        assert [_item_stats(i) for i in got] == [_item_stats(i)
                                                 for i in ref]
        assert [i.name for i in got] == [a.name for a in assays]

    def test_solve_deltas_equal_unshared_jobs(self):
        assays = _fleet()
        ref, prev = [], (0, 0, 0, 0, 0)
        for item in _unshared(assays):
            now = (item.n_fused_dwells, item.n_dwell_groups,
                   item.n_solve_steps, item.n_solved_systems,
                   item.n_store_rows)
            ref.append((_digest(item.result),
                        *(a - b for a, b in zip(now, prev))))
            prev = now
        got = [(_digest(result), *deltas) for _, result, *deltas
               in solve(list(enumerate(assays)))]
        assert got == ref

    def test_mixed_chemistry_fleet(self):
        assays = (*_fleet(glucose=(0.5,), seeds=(1, 2)),
                  api.AssaySpec(name="bench", seed=1, protocol=FAST,
                                chain=api.ChainSpec(kind="bench")),
                  api.AssaySpec(name="slow", seed=3, protocol=api.
                                PanelProtocolSpec(ca_dwell=6.0,
                                                  scan_rate=0.1)),
                  *_fleet(glucose=(3.0,), seeds=(4, 5)))
        memo: dict = {}
        [a.build_job(memo) for a in assays]
        assert len(memo) == 4
        ref, got = _unshared(assays), _shared(assays)
        assert [_digest(i.result) for i in got] == [_digest(i.result)
                                                    for i in ref]
        assert [_item_stats(i) for i in got] == [_item_stats(i)
                                                 for i in ref]

    def test_plans_once_per_chemistry(self, monkeypatch):
        calls = {"plan_dwells": 0, "plan_sweeps": 0}
        for attr in calls:
            original = getattr(PanelProtocol, attr)

            def counted(self, *args, _original=original, _attr=attr):
                calls[_attr] += 1
                return _original(self, *args)

            monkeypatch.setattr(PanelProtocol, attr, counted)
        assays = _fleet(seeds=(1, 2, 3, 4))
        _unshared(assays)
        assert calls == {"plan_dwells": 8, "plan_sweeps": 8}
        calls.update(plan_dwells=0, plan_sweeps=0)
        list(solve(list(enumerate(assays))))
        assert calls == {"plan_dwells": 2, "plan_sweeps": 2}

    def test_replicates_see_each_injection_once(self, monkeypatch):
        events = [api.InjectionEvent(time=2.0, species="glucose",
                                     concentration_step=0.5)]
        assays = _fleet(seeds=(1, 2, 3), injections=events)
        applied: list = []
        original = ChronoDwell.apply_injection_events

        def counted(self, batch):
            applied.append(self)
            return original(self, batch)

        monkeypatch.setattr(ChronoDwell, "apply_injection_events", counted)
        ref = _unshared(assays)
        n_dwells = len(applied) // len(assays)
        assert n_dwells > 0 and len(set(map(id, applied))) == len(applied)
        applied.clear()
        got = _shared(assays)
        # One application per distinct dwell: two chemistries' worth.
        assert len(applied) == 2 * n_dwells
        assert len(set(map(id, applied))) == len(applied)
        assert [_digest(i.result) for i in got] == [_digest(i.result)
                                                    for i in ref]


class TestPasses:
    def test_consecutive_passes_are_equal(self):
        fleet = api.FleetSpec(name="twice", assays=_fleet())
        first = [_digest(r.result) for r in api.iter_results(fleet)]
        second = [_digest(r.result) for r in api.iter_results(fleet)]
        assert first == second
        assert first == [_digest(i.result) for i in _unshared(fleet.assays)]

    def test_process_slots_equal_unshared_jobs(self):
        fleet = api.FleetSpec(name="slots", assays=_fleet(seeds=(1, 2)))
        executor = api.ProcessExecutor(workers=2)
        try:
            records = list(api.iter_results(fleet, backend=executor))
        finally:
            executor.close()
        assert [_digest(r.result) for r in records] == [
            _digest(i.result) for i in _unshared(fleet.assays)]
