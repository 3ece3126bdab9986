"""Layer-localised golden digests of three seeded workloads.

Each workload's output is cut into three layers and each layer is pinned
by one sha256 in ``tests/data/golden_layers.json``:

- ``true``: the noiseless cell currents the engine produced, before the
  acquisition chain touched them;
- ``digitised``: what the chain made of them (ADC codes, the host's
  current estimate and the saturation flags);
- ``readouts``: the quantities the analysis layer reports (panel
  readouts, blank current, assay time; the fitted calibration points).

A change that moves a digit fails the test named after the workload and
the *first* layer it reaches, so an engine change shows up as ``true``
and a chain change as ``digitised`` with ``true`` still passing.

The workloads are the paper panel (``repro panel --seed 2011``), a
replicate mixed CA/CV sweep (4 acquisition seeds x 2 glucose loadings,
so replicate chemistry repeats) and a calibration ladder (a glucose
ladder of panel assays plus ``repro calibrate glucose``'s record).
Each takes an optional run store, which ``tests/test_row_store.py``
uses to run them over a store holding every engine row already.  Every
digest is checked twice: with the compiled Thomas kernel when it loads,
and with the kernel switched off, on the Python sweep it falls back to.

Regenerate the file only when a change is meant to move numbers::

    PYTHONPATH=src python tests/test_golden_layers.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "data" / "golden_layers.json"
LAYERS = ("true", "digitised", "readouts")


def _panel(store=None):
    from repro import api

    spec = api.AssaySpec(name="fig4-panel", seed=2011,
                         chain=api.ChainSpec(seed=2011))
    return [api.run(spec, store=store).result], []


def _replicate_fleet(store=None):
    from repro import api

    base = api.AssaySpec(name="rep", seed=5000,
                         chain=api.ChainSpec(seed=5000),
                         protocol=api.PanelProtocolSpec(ca_dwell=5.0))
    sweep = api.SweepSpec(name="replicates", base=base, grid={
        "seed": [5000, 5001, 5002, 5003],
        "cell.concentrations.glucose": [1.0, 2.5]})
    return [record.result
            for record in api.iter_results(sweep, store=store)], []


def _calibration_ladder(store=None):
    from repro import api

    assays = tuple(
        api.AssaySpec(name=f"ladder{k}", seed=7000,
                      chain=api.ChainSpec(seed=7000),
                      cell=api.CellSpec(concentrations={"glucose": level}),
                      protocol=api.PanelProtocolSpec(ca_dwell=5.0))
        for k, level in enumerate((0.5, 1.0, 2.0, 4.0, 8.0)))
    fleet = api.FleetSpec(name="ladder", assays=assays)
    results = [record.result
               for record in api.iter_results(fleet, store=store)]
    curve = api.run(api.CalibrationSpec(target="glucose", points=5,
                                        seed=2011), store=store)
    return results, [curve.to_dict()["result"]]


WORKLOADS = {
    "panel": _panel,
    "replicate_fleet": _replicate_fleet,
    "calibration_ladder": _calibration_ladder,
}


def _feed(h, label: str, array) -> None:
    h.update(label.encode() + b"\0")
    h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _channels(result):
    """Every (name, record) of a panel result, in name order."""
    records = {**result.traces, **result.voltammograms}
    return [(name, records[name]) for name in sorted(records)]


def layer_digests(results, extras) -> dict[str, str]:
    """sha256 of each layer over a workload's panel results.

    ``extras`` are JSON-ready summaries (calibration records) that only
    the readouts layer covers.
    """
    true, digitised = hashlib.sha256(), hashlib.sha256()
    readouts = []
    for k, result in enumerate(results):
        for name, record in _channels(result):
            _feed(true, f"{k}/{name}", record.true_current)
            _feed(digitised, f"{k}/{name}/current", record.current)
            reading = record.reading
            if reading is not None:
                _feed(digitised, f"{k}/{name}/codes", reading.codes)
                _feed(digitised, f"{k}/{name}/saturated", reading.saturated)
        readouts.append(result.summary_dict())
    text = json.dumps({"results": readouts, "extras": extras},
                      sort_keys=True, separators=(",", ":"))
    return {"true": true.hexdigest(), "digitised": digitised.hexdigest(),
            "readouts": hashlib.sha256(text.encode()).hexdigest()}


@functools.lru_cache(maxsize=None)
def _computed(workload: str) -> dict[str, str]:
    return layer_digests(*WORKLOADS[workload]())


@functools.lru_cache(maxsize=None)
def _computed_without_kernel(workload: str) -> dict[str, str]:
    from repro.engine import tridiag

    kernel, tridiag._KERNEL = tridiag._KERNEL, None
    try:
        return layer_digests(*WORKLOADS[workload]())
    finally:
        tridiag._KERNEL = kernel


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["workloads"]


def test_golden_file_covers_every_workload_and_layer():
    golden = _golden()
    assert sorted(golden) == sorted(WORKLOADS)
    for workload, layers in golden.items():
        assert sorted(layers) == sorted(LAYERS), workload


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_digest(workload, layer):
    expected = _golden()[workload][layer]
    got = _computed(workload)[layer]
    assert got == expected, (
        f"golden digest moved: workload {workload!r}, layer {layer!r} "
        f"(expected {expected[:16]}..., got {got[:16]}...)")


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_digest_without_kernel(workload, layer):
    expected = _golden()[workload][layer]
    got = _computed_without_kernel(workload)[layer]
    assert got == expected, (
        f"golden digest moved on the Python Thomas sweep: workload "
        f"{workload!r}, layer {layer!r} (expected {expected[:16]}..., "
        f"got {got[:16]}...)")


def _write() -> None:
    payload = {
        "about": ("sha256 per workload and layer; regenerate with "
                  "PYTHONPATH=src python tests/test_golden_layers.py "
                  "--write"),
        "workloads": {name: layer_digests(*build())
                      for name, build in sorted(WORKLOADS.items())},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_golden_layers.py --write")
    _write()
