"""Table rendering, export, and the command-line interface."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.analysis.calibration import CalibrationCurve, CalibrationPoint
from repro.api.specs import SCHEMA_VERSION
from repro.cli import main
from repro.io.export import (
    calibration_to_json,
    trace_to_csv,
    voltammogram_to_csv,
    write_json,
)
from repro.io.tables import format_quantity, render_table
from repro.measurement.trace import Trace, Voltammogram


class TestRenderTable:
    def test_basic_shape(self):
        text = render_table(["a", "b"], [["x", 1.0], ["y", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("+")
        assert "| a" in lines[1]
        assert len(lines) == 6

    def test_title(self):
        text = render_table(["a"], [["x"]], title="Table I")
        assert text.splitlines()[0] == "Table I"

    def test_none_rendered_as_dash(self):
        text = render_table(["a"], [[None]])
        assert "-" in text

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])

    def test_numeric_right_aligned(self):
        text = render_table(["name", "val"],
                            [["x", "1"], ["long_name", "22"]])
        lines = text.splitlines()
        assert lines[3].endswith("  1 |")

    def test_format_quantity(self):
        assert format_quantity(None) == "-"
        assert format_quantity(0.0) == "0"
        assert format_quantity(1.23456, "uA") == "1.23 uA"


class TestExport:
    def _trace(self):
        times = np.arange(10) / 10.0
        return Trace(times=times, current=np.linspace(0, 1e-6, 10),
                     true_current=np.linspace(0, 1e-6, 10))

    def test_trace_csv(self, tmp_path):
        path = trace_to_csv(self._trace(), tmp_path / "t.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["time_s", "current_a", "true_current_a"]
        assert len(rows) == 11

    def test_voltammogram_csv(self, tmp_path):
        n = 8
        vg = Voltammogram(times=np.arange(n) / 10.0,
                          potentials=np.linspace(0, -0.5, n),
                          current=np.zeros(n),
                          sweep_sign=np.full(n, -1.0), scan_rate=0.02)
        path = voltammogram_to_csv(vg, tmp_path / "v.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0][1] == "potential_v"
        assert len(rows) == n + 1

    def test_calibration_json(self, tmp_path):
        curve = CalibrationCurve(
            [CalibrationPoint(1.0, 1e-7), CalibrationPoint(2.0, 2e-7),
             CalibrationPoint(3.0, 3e-7)],
            blank_mean=0.0, blank_std=1e-9)
        path = calibration_to_json(curve, tmp_path / "c.json")
        payload = json.loads(path.read_text())
        assert payload["blank_std"] == 1e-9
        assert len(payload["points"]) == 3

    def test_write_json_pretty(self, tmp_path):
        path = write_json({"b": 1, "a": 2}, tmp_path / "x.json")
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys

    def test_write_json_atomic(self, tmp_path):
        # No staging temp files survive a successful write...
        path = write_json({"ok": 1}, tmp_path / "x.json")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        # ...and a failed serialisation leaves the existing file intact
        # (the payload is staged to a temp file, never written in place).
        with pytest.raises(TypeError):
            write_json({"bad": object()}, path)
        assert json.loads(path.read_text()) == {"ok": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestCli:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "CYP2B4" in out
        assert "27.7" in out

    def test_panel_command(self, capsys):
        assert main(["panel", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "glucose" in out
        assert "assay time" in out

    def test_explore_command(self, capsys, tmp_path):
        from repro.core.spec import save_panel
        from repro.core.targets import PanelSpec, TargetSpec
        panel = PanelSpec(name="mini",
                          targets=(TargetSpec("glucose", 0.5, 4.0),))
        spec = save_panel(panel, tmp_path / "p.json")
        assert main(["explore", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate", "glucose", "--points", "6"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out
        assert "linear range" in out

    def test_calibrate_cv_target_redirects(self, capsys):
        assert main(["calibrate", "cholesterol"]) == 1

    def test_selectivity_command(self, capsys):
        assert main(["selectivity"]) == 0
        out = capsys.readouterr().out
        assert "cross-response" in out
        assert "WE1" in out

    def test_selectivity_cathodic(self, capsys):
        assert main(["selectivity", "--potential", "-600"]) == 0
        out = capsys.readouterr().out
        assert "-600 mV" in out


class TestCliValidationAndExitCodes:
    """Argparse rejects bad numerics up front; ReproError exits 1."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "--cells", "0"],
        ["fleet", "--cells", "-3"],
        ["fleet", "--cells", "two"],
        ["fleet", "--ca-dwell", "0"],
        ["fleet", "--ca-dwell", "-1.5"],
        ["calibrate", "glucose", "--points", "1"],
    ])
    def test_bad_numeric_arguments_fail_fast(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error
        assert "error" in capsys.readouterr().err

    def test_fleet_streams_results(self, capsys):
        assert main(["fleet", "--cells", "2", "--ca-dwell", "5"]) == 0
        out = capsys.readouterr().out
        assert "fleet spec" in out
        assert "done cell00" in out
        assert "done cell01" in out
        assert "throughput" in out

    def test_panel_prints_provenance(self, capsys):
        assert main(["panel", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[assay] spec" in out
        assert f"schema v{SCHEMA_VERSION}" in out

    def test_calibrate_unknown_target_exits_one(self, capsys):
        assert main(["calibrate", "unobtainium"]) == 1
        assert "error" in capsys.readouterr().err

    def test_explore_bad_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["explore", "--spec", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_command_assay_spec(self, tmp_path, capsys):
        from repro import api
        spec_path = tmp_path / "assay.json"
        spec_path.write_text(json.dumps(api.AssaySpec(
            name="cli", seed=7,
            protocol=api.PanelProtocolSpec(ca_dwell=5.0)).to_dict()))
        record_path = tmp_path / "record.json"
        assert main(["run", str(spec_path), "--json",
                     str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "[assay] spec" in out
        assert "assay time" in out
        payload = json.loads(record_path.read_text())
        assert payload["provenance"]["kind"] == "assay"

    def test_run_command_missing_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "calibration"}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "target" in err

    def test_fleet_process_backend(self, capsys):
        assert main(["fleet", "--cells", "2", "--ca-dwell", "5",
                     "--backend", "process", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "done cell00" in out
        assert "done cell01" in out
        assert "process backend" in out

    def test_workers_without_process_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--cells", "2", "--workers", "2"])

    def test_fleet_store_roundtrip_and_cache_command(self, tmp_path,
                                                     capsys):
        store = tmp_path / "runs"
        argv = ["fleet", "--cells", "2", "--ca-dwell", "5",
                "--store", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "stored" in first and "[cached]" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[cached]" in second and "cache hit" in second
        assert "hit  cell00" in second

        # The backend is an execution detail, not part of the workload:
        # the same fleet under --backend process hits the same record.
        assert main(argv + ["--backend", "process", "--workers", "2"]) == 0
        assert "[cached]" in capsys.readouterr().out

        # Whole-run record + one per-job record per assay.
        assert main(["cache", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "3 record(s)" in listing and "fleet" in listing \
            and "assay" in listing
        assert main(["cache", str(store), "stats"]) == 0
        stats_out = capsys.readouterr().out
        assert "records   : 3" in stats_out and "hits" in stats_out
        assert main(["cache", str(store), "--clear"]) == 0
        assert "removed 3 record(s)" in capsys.readouterr().out
        assert main(["cache", str(store)]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_run_command_store_cache_hit(self, tmp_path, capsys):
        from repro import api
        spec_path = tmp_path / "assay.json"
        spec_path.write_text(json.dumps(api.AssaySpec(
            name="memo", seed=9,
            protocol=api.PanelProtocolSpec(ca_dwell=5.0)).to_dict()))
        store = tmp_path / "runs"
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "[cached]" in out and "cache hit" in out

    def test_run_command_sweep_spec(self, tmp_path, capsys):
        from repro import api
        spec_path = tmp_path / "sweep.json"
        sweep = api.SweepSpec(
            base=api.AssaySpec(
                name="pt", protocol=api.PanelProtocolSpec(ca_dwell=5.0)),
            grid={"seed": [1, 2]})
        spec_path.write_text(json.dumps(sweep.to_dict()))
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "[sweep] spec" in out
        assert "2-assay fleet" in out


def test_cli_import_leaves_scipy_signal_unloaded():
    """``scipy.signal`` is imported where peaks are found, so starting
    the CLI (``repro serve``, ``repro worker``) does not pay for it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = ("import sys, repro.cli, repro.api.distributed; "
             "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
