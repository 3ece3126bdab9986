"""The names ``perfbench/`` measures the program by.

``perfbench/spans.py`` wraps a fixed set of functions by attribute name,
and the sweep and service workloads read ``StoreStats.lock_waits``.  The
benchmark is versioned apart from ``src/``: renaming or deleting any of
these names, or moving work out of the functions it wraps, makes every
traced run fail at ``install`` or report the work as unattributed.
These tests pin that contract from the program's side.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api.store import StoreStats
from repro.data.catalog import bench_chain

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: The spans every panel assay reaches.
PANEL_SPANS = ("panel.plan_dwells", "panel.plan_sweeps", "panel.assemble",
               "electronics.noise", "electronics.digitize",
               "engine.dwell_solve", "engine.sweep_solve")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute(spans):
    import repro.api.store as store

    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = list(tracer._restore)
        assert wrapped
        for owner, attr, raw in wrapped:
            assert inspect.getattr_static(owner, attr) is not raw, (
                f"{owner.__name__}.{attr} was not wrapped")
    finally:
        tracer.uninstall()
    for owner, attr, raw in wrapped:
        assert inspect.getattr_static(owner, attr) is raw, (
            f"{owner.__name__}.{attr} was not restored")
    assert store.json is json


def test_store_stats_keep_lock_waits():
    assert StoreStats().lock_waits == 0


def test_one_assay_fleet_reaches_every_panel_span(spans):
    protocol = api.PanelProtocolSpec(ca_dwell=4.0, scan_rate=0.1)
    spec = api.FleetSpec(name="contract", assays=(
        api.AssaySpec(name="one", protocol=protocol),))
    chain = bench_chain()
    times = np.arange(16) / 10.0
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        record = api.run(spec)
        # Both public entries, each drawing its own noise.
        chain.digitize(times, np.zeros(16))
        chain.digitize_batch(times, np.zeros((2, 16)))
    finally:
        tracer.uninstall()
    assert len(record.records) == 1
    names = {span[spans._NAME] for span in tracer.spans}
    for name in PANEL_SPANS:
        assert name in names, f"no {name} span"
    for span in tracer.spans:
        if span[spans._NAME] != "electronics.digitize":
            continue
        parent = span[spans._PARENT]
        while parent is not None:
            assert parent[spans._NAME] != "electronics.digitize", (
                "an electronics.digitize span nests inside another")
            parent = parent[spans._PARENT]


def test_replicate_fleet_plans_once_per_chemistry(spans):
    protocol = api.PanelProtocolSpec(ca_dwell=4.0, scan_rate=0.1)
    spec = api.FleetSpec(name="contract", assays=tuple(
        api.AssaySpec(name=f"s{seed}-g{glucose}", seed=seed,
                      cell=api.CellSpec(concentrations={"glucose": glucose}),
                      protocol=protocol)
        for seed in range(4) for glucose in (1.0, 2.5)))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        records = list(api.iter_results(spec))
    finally:
        tracer.uninstall()
    assert len(records) == 8
    names = Counter(span[spans._NAME] for span in tracer.spans)
    # Two chemistries: one build-and-plan each, every job still built.
    assert names["panel.plan_dwells"] == 2
    assert names["panel.plan_sweeps"] == 2
    assert names["specs.build_job"] == 8
    assert names["panel.assemble"] == 8
    for name in PANEL_SPANS:
        assert names[name], f"no {name} span"
