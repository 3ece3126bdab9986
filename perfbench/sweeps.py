"""The three sweep workloads: ``sweep_cold``, ``sweep_extend`` and
``store_replay``.

All three run the same 16-point sweep, generated from the workload
seed: paper-panel cells (three CA oxidase WEs, a blank, two CV
cytochrome WEs), 15 s dwell, eight acquisition seeds times two glucose
loadings.  They differ only in the store the sweep runs against:

- ``sweep_cold``: no store.  Planning, engine, noise, digitisation and
  assembly do all the work; this is the uncached baseline.
- ``sweep_extend``: a store pre-warmed with every other grid point, so
  each run reads half the points and simulates and writes the rest.
  Each run starts from a fresh copy of the half-warm store.
- ``store_replay``: a fully warm store, so a run is job planning plus
  store reads and performs no engine solve.

One unit is one ``iter_results`` drain of the sweep, timed on its own
right after a host probe; throughput, CPU per assay and set-up time are
medians over units calibrated to the reference host speed
(``common.calibrated``).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    Outcome,
    UNATTRIBUTED_TOLERANCE,
    calibrated,
    host_speed,
    median,
    probe,
    result_digest,
)

#: Dwell of every chronoamperometric WE, seconds.
CA_DWELL = 15.0
#: Grid: acquisition seeds x glucose loadings.
N_SEEDS = 8
N_GLUCOSE = 2

#: Set-ups per run; ``setup_s`` is their calibrated median.
N_SETUPS = 5


def make_sweep(seed: int):
    """The workload's sweep, a pure function of the seed."""
    from repro import api
    from repro.data.catalog import PAPER_PANEL_MID_CONCENTRATIONS

    rng = np.random.default_rng(seed)
    first = 100_000 + 16 * seed
    loading = {name: round(value * float(rng.uniform(0.8, 1.2)), 4)
               for name, value in
               sorted(PAPER_PANEL_MID_CONCENTRATIONS.items())}
    glucose = sorted(round(float(v), 3)
                     for v in rng.uniform(0.5, 3.5, N_GLUCOSE))
    base = api.AssaySpec(
        name=f"pt{seed}", seed=first, chain=api.ChainSpec(seed=first),
        cell=api.CellSpec(concentrations=loading),
        protocol=api.PanelProtocolSpec(ca_dwell=CA_DWELL))
    return api.SweepSpec(
        name=f"sweep{seed}", base=base,
        grid={"seed": list(range(first, first + N_SEEDS)),
              "cell.concentrations.glucose": glucose})


@dataclass
class _State:
    sweep: object
    n_assays: int
    reference: dict        # job key -> digest
    expect_cached: dict    # job key -> bool
    store_root: Path | None
    cold_s: float          # the uncached reference run, seconds


def _setup(kind: str, seed: int, work: Path, index: int) -> _State:
    from repro import api

    sweep = make_sweep(seed)
    fleet = sweep.compile()
    start = time.perf_counter()
    records = list(api.iter_results(sweep))
    cold_s = time.perf_counter() - start
    reference = {r.spec_hash: result_digest(r.result) for r in records}
    keys = [r.spec_hash for r in records]
    store_root = None
    expect = {key: False for key in keys}
    if kind == "sweep_extend":
        store_root = work / f"half{index}"
        warm = list(range(0, len(keys), 2))
        list(api.iter_results(fleet.subset(warm),
                              store=api.RunStore(store_root)))
        expect.update({keys[i]: True for i in warm})
    elif kind == "store_replay":
        store_root = work / f"warm{index}"
        list(api.iter_results(sweep, store=api.RunStore(store_root)))
        expect = {key: True for key in keys}
    return _State(sweep=sweep, n_assays=len(keys), reference=reference,
                  expect_cached=expect, store_root=store_root, cold_s=cold_s)


def _one_run(kind: str, state: _State, work: Path, tracer=None):
    """One timed sweep after a host probe:
    ``(probe_s, wall_s, cpu_s, records, store, deltas)``, ``deltas``
    being the store's lock-wait and quarantine counts when traced."""
    from repro import api

    store = None
    if kind == "sweep_extend":
        run_root = work / "extend-run"
        shutil.rmtree(run_root, ignore_errors=True)
        shutil.copytree(state.store_root, run_root)
        store = api.RunStore(run_root)
    elif kind == "store_replay":
        store = api.RunStore(state.store_root)
    before = store.stats() if store is not None and tracer else None
    probe_s = probe()
    cpu = time.process_time()
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.sweep", "bench"):
            records = list(api.iter_results(state.sweep, store=store))
    else:
        records = list(api.iter_results(state.sweep, store=store))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    deltas = {}
    if before is not None:
        after = store.stats()
        deltas = {"store.lock_waits": after.lock_waits - before.lock_waits,
                  "store.quarantined": after.quarantined - before.quarantined}
    return probe_s, wall, cpu, records, store, deltas


def _check(outcome: Outcome, state: _State, records) -> None:
    seen = set()
    for record in records:
        key = record.spec_hash
        seen.add(key)
        ok = (not record.failed
              and key in state.reference
              and bool(record.cached) == state.expect_cached[key]
              and result_digest(record.result) == state.reference[key])
        outcome.check(ok)
    missing = len(set(state.reference) - seen)
    if missing:
        outcome.check(False, missing)


def run(kind: str, seed: int, seconds: float, traced: bool,
        work: Path) -> Outcome:
    from spans import Tracer, install, layer_metrics, reconcile

    outcome = Outcome()
    setup_times, setup_probes, cold_times = [], [], []
    state = None
    for index in range(N_SETUPS if not traced else 1):
        setup_probes.append(probe())
        start = time.perf_counter()
        state = _setup(kind, seed, work, index)
        setup_times.append(time.perf_counter() - start)
        cold_times.append(state.cold_s)

    probes, walls, cpus = [], [], []
    stored_bytes = []
    deadline = time.perf_counter() + (seconds / 2 if traced else seconds)
    while not walls or time.perf_counter() < deadline:
        probe_s, wall, cpu, records, store, _ = _one_run(kind, state, work)
        probes.append(probe_s)
        walls.append(wall)
        cpus.append(cpu)
        _check(outcome, state, records)
        if store is not None:
            stats = store.stats()
            stored_bytes.append(stats.bytes / max(stats.records, 1))

    n = state.n_assays
    unit_s = calibrated(walls, probes)
    assays_per_s = n / unit_s
    cold_rate = n / calibrated(cold_times, setup_probes)
    report = {
        "assays_per_run": n,
        "runs": len(walls),
        "host_speed": {"value": host_speed(probes), "unit": "ratio",
                       "base": "common.PROBE_REFERENCE_S"},
        "median_wall_s_per_assay": {"value": median(walls) / n, "unit": "s",
                                    "base": "raw, not calibrated"},
        "median_cpu_s_per_assay": {"value": median(cpus) / n, "unit": "s",
                                   "base": "raw, not calibrated"},
        "uncached_cold_assays_per_s": {
            "value": cold_rate, "unit": "1/s",
            "base": "inline uncached runs of the same sweep in set-up, "
                    "calibrated"},
    }
    if kind != "sweep_cold":
        report["stored_bytes_per_assay"] = {"value": median(stored_bytes),
                                            "unit": "bytes"}
        report["speedup_vs_uncached_cold"] = {
            "value": assays_per_s / cold_rate, "unit": "ratio",
            "base": "uncached_cold_assays_per_s"}

    if not traced:
        outcome.metrics = {
            "assays_per_s": assays_per_s,
            "cpu_s_per_assay": calibrated(cpus, probes) / n,
            "setup_s": calibrated(setup_times, setup_probes),
        }
        outcome.report = report
        return outcome

    tracer = Tracer()
    install(tracer)
    traced_probes, traced_walls = [], []
    totals = {"store.lock_waits": 0, "store.quarantined": 0}
    try:
        deadline = time.perf_counter() + seconds / 2
        while not traced_walls or time.perf_counter() < deadline:
            probe_s, wall, _, records, _, deltas = _one_run(
                kind, state, work, tracer)
            traced_probes.append(probe_s)
            traced_walls.append(wall)
            for key, value in deltas.items():
                totals[key] += value
            _check(outcome, state, records)
    finally:
        tracer.uninstall()
    records = [r for r in tracer.records() if r["rooted"]]
    n_traced = n * len(traced_walls)
    metrics = layer_metrics(records, n_traced)
    for key, value in totals.items():
        metrics[key] = value / n_traced
    wall, attributed, unattributed = reconcile(records)
    metrics["trace.unattributed_s"] = unattributed / n_traced
    metrics["trace.unattributed_share"] = unattributed / wall
    metrics["trace.overhead_ratio"] = (
        calibrated(traced_walls, traced_probes) / unit_s)
    report["trace"] = {"wall_s": wall, "attributed_s": attributed,
                       "unattributed_s": unattributed,
                       "tolerance_share": UNATTRIBUTED_TOLERANCE}
    if unattributed / wall > UNATTRIBUTED_TOLERANCE:
        outcome.correct = False
        report["trace"]["error"] = "unattributed share above tolerance"
    if kind == "store_replay" and (metrics["jobs.hit_ratio"] != 1.0
                                   or metrics["engine.solve_steps"] != 0):
        outcome.correct = False
        report["trace"]["error"] = "store_replay touched the engine"
    outcome.metrics = metrics
    outcome.report = report
    return outcome
