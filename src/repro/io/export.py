"""CSV/JSON export of traces, voltammograms and calibration curves.

Benches drop machine-readable artifacts next to their printed tables so
downstream tooling (plotting, regression tracking) can consume the same
numbers.

:func:`panel_result_to_payload` / :func:`panel_result_from_payload` are
the *lossless* JSON round trip of a live
:class:`~repro.measurement.panel.PanelResult` — every sample of every
trace and voltammogram, every readout and detected peak.  Python floats
serialise through ``repr`` and therefore round-trip bit for bit, so the
:class:`~repro.api.store.RunStore`'s per-job records can rehydrate a
result that is bit-identical to the run that produced it.  Only the raw
:class:`~repro.electronics.chain.ChannelReading` attachments (ADC codes,
saturation flags) are dropped; rehydrated records carry
``reading=None``.
"""

from __future__ import annotations

import csv
import json
import os
import secrets
from pathlib import Path

from repro.analysis.calibration import CalibrationCurve
from repro.measurement.trace import Trace, Voltammogram

__all__ = ["trace_to_csv", "voltammogram_to_csv", "calibration_to_json",
           "run_record_to_json", "write_json", "write_atomic",
           "panel_result_to_payload", "panel_result_from_payload"]


def trace_to_csv(trace: Trace, path: str | Path) -> Path:
    """Write a time/current CSV; returns the path."""
    out = Path(path)
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["time_s", "current_a"]
        if trace.true_current is not None:
            header.append("true_current_a")
        writer.writerow(header)
        for k in range(trace.n_samples):
            row = [f"{trace.times[k]:.6g}", f"{trace.current[k]:.9g}"]
            if trace.true_current is not None:
                row.append(f"{trace.true_current[k]:.9g}")
            writer.writerow(row)
    return out


def voltammogram_to_csv(voltammogram: Voltammogram, path: str | Path) -> Path:
    """Write a time/potential/current CSV; returns the path."""
    out = Path(path)
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "potential_v", "current_a", "sweep_sign"])
        for k in range(voltammogram.n_samples):
            writer.writerow([
                f"{voltammogram.times[k]:.6g}",
                f"{voltammogram.potentials[k]:.6g}",
                f"{voltammogram.current[k]:.9g}",
                f"{voltammogram.sweep_sign[k]:.0f}",
            ])
    return out


def calibration_to_json(curve: CalibrationCurve, path: str | Path) -> Path:
    """Serialise a calibration curve (points + blank stats) to JSON."""
    payload = {
        "blank_mean": curve.blank_mean,
        "blank_std": curve.blank_std,
        "points": [
            {
                "concentration": p.concentration,
                "signal": p.signal,
                "signal_std": p.signal_std,
            }
            for p in curve.points
        ],
    }
    return write_json(payload, path)


def run_record_to_json(record, path: str | Path) -> Path:
    """Serialise a :mod:`repro.api` run record to JSON.

    The payload is the record's ``to_dict()``: provenance (spec hash,
    schema version, seed, wall time), the canonical spec itself, and the
    quantified result summary — everything needed to audit or replay the
    run.  Raw sample arrays stay on the live result; export those with
    :func:`trace_to_csv` / :func:`voltammogram_to_csv`.
    """
    return write_json(record.to_dict(), path)


def _to_list(array) -> list:
    return array.tolist()


def _as_is(array):
    return array


def _trace_to_payload(trace: Trace, pack) -> dict:
    return {"times": pack(trace.times),
            "current": pack(trace.current),
            "true_current": (None if trace.true_current is None
                             else pack(trace.true_current)),
            "channel": trace.channel}


def _trace_from_payload(payload: dict) -> Trace:
    return Trace(times=payload["times"], current=payload["current"],
                 true_current=payload.get("true_current"),
                 channel=payload.get("channel", ""))


def _voltammogram_to_payload(voltammogram: Voltammogram, pack) -> dict:
    return {"times": pack(voltammogram.times),
            "potentials": pack(voltammogram.potentials),
            "current": pack(voltammogram.current),
            "sweep_sign": pack(voltammogram.sweep_sign),
            "scan_rate": voltammogram.scan_rate,
            "channel": voltammogram.channel,
            "true_current": (None if voltammogram.true_current is None
                             else pack(voltammogram.true_current))}


def _voltammogram_from_payload(payload: dict) -> Voltammogram:
    import numpy as np

    true_current = payload.get("true_current")
    return Voltammogram(
        times=np.asarray(payload["times"], dtype=float),
        potentials=np.asarray(payload["potentials"], dtype=float),
        current=np.asarray(payload["current"], dtype=float),
        sweep_sign=np.asarray(payload["sweep_sign"], dtype=float),
        scan_rate=payload["scan_rate"], channel=payload.get("channel", ""),
        true_current=(None if true_current is None
                      else np.asarray(true_current, dtype=float)))


def _readout_to_payload(readout) -> dict:
    peak = readout.peak
    return {"target": readout.target, "we_name": readout.we_name,
            "method": readout.method, "signal": readout.signal,
            "e_applied": readout.e_applied,
            "peak": (None if peak is None else
                     {"potential": peak.potential, "current": peak.current,
                      "height": peak.height, "width": peak.width,
                      "cathodic": peak.cathodic, "method": peak.method})}


def _readout_from_payload(payload: dict):
    from repro.measurement.panel import TargetReadout
    from repro.measurement.peaks import Peak

    peak = payload.get("peak")
    return TargetReadout(
        target=payload["target"], we_name=payload["we_name"],
        method=payload["method"], signal=payload["signal"],
        e_applied=payload.get("e_applied"),
        peak=None if peak is None else Peak(**peak))


def panel_result_to_payload(result, *, arrays: bool = False) -> dict:
    """Lossless JSON payload of a live :class:`~repro.measurement.panel.
    PanelResult` (raw ``ChannelReading`` attachments excepted).

    Sample arrays become JSON lists; with ``arrays=True`` they stay the
    result's own ``numpy`` arrays, for :func:`repro.io.sealed.seal` to
    store as raw float64 blocks.
    """
    pack = _as_is if arrays else _to_list
    return {
        "traces": {name: _trace_to_payload(trace, pack)
                   for name, trace in result.traces.items()},
        "voltammograms": {name: _voltammogram_to_payload(vg, pack)
                          for name, vg in result.voltammograms.items()},
        "readouts": {target: _readout_to_payload(readout)
                     for target, readout in result.readouts.items()},
        "assay_time": result.assay_time,
        "blank_current": result.blank_current,
        "blank_e_applied": result.blank_e_applied,
    }


def panel_result_from_payload(payload: dict):
    """Rebuild the live :class:`~repro.measurement.panel.PanelResult` a
    :func:`panel_result_to_payload` payload came from, bit for bit.
    Float64 arrays in place of the sample lists are used as they are,
    without a copy."""
    from repro.measurement.panel import PanelResult

    return PanelResult(
        traces={name: _trace_from_payload(item)
                for name, item in payload["traces"].items()},
        voltammograms={name: _voltammogram_from_payload(item)
                       for name, item in payload["voltammograms"].items()},
        readouts={target: _readout_from_payload(item)
                  for target, item in payload["readouts"].items()},
        assay_time=payload["assay_time"],
        blank_current=payload["blank_current"],
        blank_e_applied=payload.get("blank_e_applied"))


def write_json(payload: object, path: str | Path) -> Path:
    """Write any JSON-serialisable payload, pretty-printed, atomically
    (see :func:`write_atomic`).  A serialisation failure leaves any
    existing file untouched."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return write_atomic(text.encode(), path)


def write_atomic(data: bytes, path: str | Path) -> Path:
    """Write ``data`` to ``path`` atomically; returns the path.

    The bytes are staged to a temp file of this writer's own, created
    exclusively in the target directory, then moved into place with
    ``os.replace``: a concurrent reader (run-store lookups, parallel
    workers or threads racing on one record) sees either the old file
    or the complete new one, never a truncated write, and two writers
    of one path never share a temp file.
    """
    out = Path(path)
    tmp = out.parent / f".{out.name}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    return out
