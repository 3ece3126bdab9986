"""Command-line interface: run the paper's experiments from a shell.

``repro-diagnostics <command>`` (or ``python -m repro ...``) exposes the
headline flows:

- ``tables`` — print Tables I, II and III from the data layer,
- ``panel`` — run the Fig. 4 multi-target panel end to end,
- ``fleet`` — run many concurrent panel assays through the shared
  batched engine scheduler, streaming results as they complete,
- ``explore`` — design-space exploration for the Sec. III panel (or a
  JSON panel spec),
- ``calibrate <target>`` — measured calibration of one reference sensor,
- ``run <spec.json>`` — execute any :mod:`repro.api` spec file,
- ``serve`` — stand up the diagnostics service (:mod:`repro.service`):
  a persistent asyncio HTTP/JSON server with submit/status/stream/
  cancel endpoints, a fair priority job queue, per-client rate
  limiting + usage accounting, and per-dispatcher executors over a
  shared warm store,
- ``cache <store-dir>`` — inspect a content-addressed run store
  (``--clear`` empties it; the ``stats`` sub-subcommand prints
  hit/miss/eviction counters and footprint, ``gc --max-count N
  --max-bytes B`` evicts least-recently-used records; both take
  ``--json``),
- ``lint [paths]`` — statically check the source tree against the
  platform's invariants (:mod:`repro.devtools`): determinism,
  error-taxonomy, lock-discipline, spec-schema and provenance rules,
  with ``--json`` reports, ``--rule`` filtering and a committed
  baseline.  Exit status: 0 clean, 1 findings, 2 usage error.

Every measurement subcommand builds a declarative :mod:`repro.api` spec
and executes it through :func:`repro.api.run` /
:func:`repro.api.iter_results`, so the CLI, spec files, and library
callers all go through the same front door and every run prints its
provenance (spec hash, schema version, seed).  ``fleet`` and ``run``
select an execution backend with ``--backend process --workers N``
(bit-identical results, sharded across worker processes) and memoise
through ``--store DIR`` — memoisation is *per job*: a repeated run is
a whole-run cache hit served without touching the engine, and a
partially warm fleet/sweep pulls its warm jobs from the store and
simulates only the misses (runs against a store print their hit/miss
delta).  ``--max-attempts N`` / ``--timeout-s T`` opt into supervised
execution (crashed, hung or failing workers are retried under the
budget) and ``--on-error partial`` degrades gracefully — exhausted
jobs print as ``FAIL`` lines instead of aborting the fleet.  Numeric
arguments are validated by argparse up front; any
:class:`~repro.errors.ReproError` from deeper layers — including an
:class:`~repro.errors.ExecutionError` from a run that exhausted its
retry budget — exits with status 1 and a one-line message.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import devtools
from repro.errors import ReproError
from repro.io.tables import render_table
from repro.units import si_to_um_conc, v_to_mv

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _lint_epilog() -> str:
    lines = ["'lint' statically enforces the platform invariants:"]
    lines += [f"  {rule.rule_id}  {rule.summary}"
              for rule in devtools.default_rules()]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diagnostics",
        description=("Reproduction of 'An Integrated Platform for Advanced "
                     "Diagnostics' (DATE 2011)"),
        epilog=_lint_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print the paper's Tables I, II and III")

    panel = sub.add_parser("panel", help="run the Fig. 4 multi-target panel")
    panel.add_argument("--seed", type=int, default=2011)

    fleet = sub.add_parser(
        "fleet", help="run many concurrent panel assays through the "
                      "shared batched engine scheduler")
    fleet.add_argument("--cells", type=_int_at_least(1), default=8,
                       help="number of concurrent assay cells (>= 1)")
    fleet.add_argument("--seed", type=int, default=2011)
    fleet.add_argument("--ca-dwell", type=_positive_float, default=30.0,
                       help="chronoamperometric dwell per WE, seconds (> 0)")
    _add_execution_arguments(fleet)

    explore_cmd = sub.add_parser(
        "explore", help="design-space exploration for a panel spec")
    explore_cmd.add_argument("--spec", type=str, default=None,
                             help="JSON panel spec (default: Sec. III panel)")

    calibrate = sub.add_parser(
        "calibrate", help="measured calibration of one reference sensor")
    calibrate.add_argument("target", type=str)
    calibrate.add_argument("--points", type=_int_at_least(2), default=8,
                           help="ladder concentrations (>= 2)")

    selectivity = sub.add_parser(
        "selectivity", help="cross-response matrix of the Fig. 4 panel")
    selectivity.add_argument("--potential", type=float, default=550.0,
                             help="operating potential, mV vs Ag/AgCl")

    run_cmd = sub.add_parser(
        "run", help="execute any repro.api spec file (assay, fleet, "
                    "sweep, calibration, platform, explore)")
    run_cmd.add_argument("spec", type=str, help="path to a JSON run spec")
    run_cmd.add_argument("--json", type=str, default=None, metavar="PATH",
                         help="also export the run record "
                              "(provenance + result summary) as JSON")
    _add_execution_arguments(run_cmd)

    serve = sub.add_parser(
        "serve", help="run the diagnostics service: a persistent async "
                      "HTTP/JSON server with a priority job queue and "
                      "per-dispatcher executors over the repro.api "
                      "pipeline")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=_int_at_least(0), default=0,
                       help="bind port (0: let the OS pick; the bound "
                            "port is printed on startup)")
    serve.add_argument("--backend",
                       choices=("inline", "process", "distributed"),
                       default="inline",
                       help="execution backend for every submitted run "
                            "(the server's choice is authoritative)")
    serve.add_argument("--workers", type=_int_at_least(1), default=None,
                       help="worker slots per dispatcher for --backend "
                            "process, or units per run for --backend "
                            "distributed (default: one per core)")
    serve.add_argument("--queue", type=str, default=None, metavar="DIR",
                       help="shared queue directory for --backend "
                            "distributed (attach `repro worker` processes "
                            "to execute the service's runs)")
    serve.add_argument("--dispatchers", type=_int_at_least(1), default=2,
                       help="parallel dispatcher threads, each owning an "
                            "executor for the server's lifetime")
    serve.add_argument("--store", type=str, default=None, metavar="DIR",
                       help="shared warm run store (usage accounting "
                            "persists next to it)")
    serve.add_argument("--rate-capacity", type=_positive_float,
                       default=None, metavar="N",
                       help="per-client token bucket: burst submissions "
                            "(default: unlimited)")
    serve.add_argument("--rate-refill", type=_positive_float, default=1.0,
                       metavar="R",
                       help="per-client sustained submissions/sec "
                            "(with --rate-capacity)")
    serve.add_argument("--max-attempts", type=_int_at_least(1),
                       default=None, metavar="N",
                       help="supervised execution for every run: retry "
                            "each job up to N times")
    serve.add_argument("--timeout-s", type=_positive_float, default=None,
                       metavar="T",
                       help="supervised execution: per-unit hang "
                            "timeout in seconds")
    serve.add_argument("--on-error", choices=("raise", "partial"),
                       default="raise")

    worker = sub.add_parser(
        "worker", help="attach a claim-and-execute worker process to a "
                       "distributed queue: claims published units "
                       "atomically, solves them with engine rows served "
                       "from and warmed in the shared run store, and "
                       "writes results back for the submitter to "
                       "re-merge; exits once <queue>/stop exists and "
                       "nothing is claimable")
    worker.add_argument("--queue", type=str, required=True, metavar="DIR",
                        help="the queue directory fleets are submitted to "
                             "(created if missing)")
    worker.add_argument("--store", type=str, default=None, metavar="DIR",
                        help="shared run store whose engine rows to "
                             "serve and warm (default: <queue>/store)")
    worker.add_argument("--max-shards", type=_int_at_least(1),
                        default=None, metavar="N",
                        help="exit after executing N primary units "
                             "(default: unbounded)")

    cache = sub.add_parser(
        "cache", help="inspect, garbage-collect or clear a "
                      "content-addressed run store")
    cache.add_argument("store", type=str,
                       help="run store directory (as passed to --store)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every stored record")
    cache_sub = cache.add_subparsers(dest="cache_command")
    stats_cmd = cache_sub.add_parser(
        "stats", help="hit/miss/eviction counters and store footprint")
    stats_cmd.add_argument("--json", action="store_true",
                           help="machine-readable output")
    gc_cmd = cache_sub.add_parser(
        "gc", help="evict least-recently-used records down to the "
                   "given limits")
    gc_cmd.add_argument("--max-count", type=_int_at_least(0), default=None,
                        help="keep at most N records (>= 0)")
    gc_cmd.add_argument("--max-bytes", type=_int_at_least(0), default=None,
                        help="keep at most B stored bytes (>= 0)")
    gc_cmd.add_argument("--json", action="store_true",
                        help="machine-readable output")

    lint = sub.add_parser(
        "lint", help="statically check sources against the platform "
                     "invariants (REP001-REP006)",
        epilog=_lint_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rule", action="append", metavar="REP00x",
                      choices=sorted(rule.rule_id for rule in
                                     devtools.default_rules()),
                      help="run only this rule (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (the CI artifact)")
    lint.add_argument("--baseline", type=str, default=None, metavar="FILE",
                      help="baseline file of grandfathered findings "
                           "(default: devtools/lint_baseline.json)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline to cover exactly the "
                           "current findings, then exit 0")
    lint.add_argument("--write-schema", action="store_true",
                      help="refresh devtools/schema_snapshot.json from "
                           "the current spec surface before checking")
    return parser


def _add_execution_arguments(command) -> None:
    command.add_argument("--backend",
                         choices=("inline", "process", "distributed"),
                         default=None,
                         help="execution backend (default: the spec's "
                              "execution block; results are bit-identical "
                              "either way)")
    command.add_argument("--workers", type=_int_at_least(1), default=None,
                         help="worker slots for --backend process, or "
                              "units to publish for --backend distributed "
                              "(default: one per CPU core)")
    command.add_argument("--queue", type=str, default=None, metavar="DIR",
                         help="shared queue directory for --backend "
                              "distributed; attach workers with "
                              "`repro worker --queue DIR`")
    command.add_argument("--store", type=str, default=None, metavar="DIR",
                         help="content-addressed run store: reuse a "
                              "stored record on spec-hash hit, persist "
                              "the record otherwise")
    command.add_argument("--screening", action="store_true",
                         help="opt into the coarse-grid screening profile "
                              "(faster, lower fidelity; flagged in "
                              "provenance and stored under its own "
                              "content address)")
    command.add_argument("--max-attempts", type=_int_at_least(1),
                         default=None, metavar="N",
                         help="supervised execution: retry each job up "
                              "to N times on worker crash, hang or "
                              "transient error (results stay "
                              "bit-identical to a fault-free run)")
    command.add_argument("--timeout-s", type=_positive_float, default=None,
                         metavar="T",
                         help="supervised execution: treat a unit "
                              "running longer than T seconds as hung "
                              "and retry it under the attempt budget")
    command.add_argument("--on-error", choices=("raise", "partial"),
                         default=None,
                         help="what to do when a job exhausts its "
                              "retries: abort the run (raise, the "
                              "default) or keep the survivors and "
                              "report the failures (partial)")


def _build_resilience(args):
    """``(retry, on_error)`` from --max-attempts/--timeout-s/--on-error.

    ``(None, None)`` — the common case — defers entirely to the spec's
    execution block; the run is unsupervised unless the spec says
    otherwise.
    """
    from repro import api

    retry = None
    if args.max_attempts is not None or args.timeout_s is not None:
        retry = api.RetryPolicy(
            max_attempts=(args.max_attempts
                          if args.max_attempts is not None else 3),
            timeout_s=args.timeout_s)
    return retry, args.on_error


def _build_execution(args):
    """``(backend, retry, on_error)`` for the api front door.

    With an explicit ``--backend`` the resilience flags configure the
    constructed Executor directly (an already-built instance takes no
    overrides); without one they ride as ``run()``/``iter_results()``
    arguments over the spec's execution block.
    """
    from repro import api

    if args.workers is not None and args.backend not in ("process",
                                                         "distributed"):
        raise SystemExit("error: --workers needs --backend process "
                         "or distributed")
    if args.queue is not None and args.backend != "distributed":
        raise SystemExit("error: --queue needs --backend distributed")
    retry, on_error = _build_resilience(args)
    if args.backend is None:
        return None, retry, on_error
    kwargs = {"retry": retry}
    if on_error is not None:
        kwargs["on_error"] = on_error
    if args.backend == "inline":
        return api.InlineExecutor(**kwargs), None, None
    if args.backend == "distributed":
        if args.queue is None:
            raise SystemExit("error: --backend distributed needs --queue")
        return api.DistributedExecutor(
            queue=args.queue, workers=args.workers, **kwargs), None, None
    return api.ProcessExecutor(workers=args.workers, **kwargs), None, None


def _print_provenance(record) -> None:
    seed = "-" if record.seed is None else record.seed
    cached = " [cached]" if record.cached else ""
    print(f"[{record.kind}] spec {record.spec_hash[:12]} "
          f"(schema v{record.schema_version}, seed {seed}, "
          f"{record.wall_time_s:.2f} s){cached}")
    stats = record.store_stats
    if stats is not None:
        quarantined = (f", {stats.quarantined} quarantined"
                       if stats.quarantined else "")
        print(f"store: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.evictions} eviction(s){quarantined}; "
              f"{stats.records} record(s), {_human_bytes(stats.bytes)}")
    _print_resilience(getattr(record, "resilience", None))


def _print_resilience(resilience) -> None:
    if resilience is not None and resilience.faults:
        print(f"resilience: {resilience.retries} retr(ies), "
              f"{resilience.worker_crashes} crash(es), "
              f"{resilience.worker_hangs} hang(s), "
              f"{resilience.engine_errors} engine error(s), "
              f"{resilience.failed_jobs} failed job(s)")


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "kB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024.0
    raise AssertionError("unreachable")


def _cmd_tables() -> int:
    from repro.data import TABLE_I, TABLE_II, TABLE_III
    rows1 = [[r.display_name, r.target, f"{v_to_mv(r.applied_potential):+.0f}",
              r.reference] for r in TABLE_I]
    print(render_table(
        ["Oxidase", "Target", "Applied mV (vs Ag/AgCl)", "Ref"],
        rows1, title="Table I - oxidases"))
    rows2 = [[r.isoform, r.target, f"{v_to_mv(r.reduction_potential):+.0f}",
              r.reference] for r in TABLE_II]
    print(render_table(
        ["CYP", "Target drug", "Reduction mV (vs Ag/AgCl)", "Ref"],
        rows2, title="Table II - cytochromes"))
    rows3 = [[r.target, r.probe, f"{r.sensitivity:g}",
              (f"{si_to_um_conc(r.lod):.0f}" if r.lod is not None else "-"),
              f"{r.linear_range[0]:g} - {r.linear_range[1]:g}"]
             for r in TABLE_III]
    print(render_table(
        ["Target", "Probe", "S uA/(mM cm^2)", "LOD uM", "Linear mM"],
        rows3, title="Table III - performance"))
    return 0


def _print_panel_record(record) -> None:
    from repro.data import PAPER_PANEL_MID_CONCENTRATIONS

    result = record.result
    rows = []
    for target in PAPER_PANEL_MID_CONCENTRATIONS:
        if target in result.readouts:
            readout = result.readouts[target]
            rows.append([target, readout.we_name, readout.method,
                         f"{readout.signal * 1e9:.1f}"])
        else:
            rows.append([target, "-", "NOT RECOVERED", "-"])
    print(render_table(["Target", "WE", "Method", "Signal nA"], rows,
                       title="Fig. 4 panel readouts"))
    print(f"assay time: {result.assay_time:.0f} s")


def _cmd_panel(seed: int) -> int:
    from repro import api

    spec = api.AssaySpec(name="fig4-panel", seed=seed,
                         chain=api.ChainSpec(seed=seed))
    record = api.run(spec)
    _print_provenance(record)
    _print_panel_record(record)
    return 0


def _cmd_fleet(n_cells: int, seed: int, ca_dwell: float, backend=None,
               store: str | None = None,
               screening: bool = False,
               retry=None, on_error=None) -> int:
    import time

    from repro import api
    from repro.data import PAPER_PANEL_MID_CONCENTRATIONS

    n_targets = len(PAPER_PANEL_MID_CONCENTRATIONS)
    backend_name = getattr(backend, "name", "inline")
    # The backend is an execution detail, not part of the workload: keep
    # the spec canonical (default execution block) so the same fleet
    # hashes — and store-hits — identically under every --backend.
    spec = api.FleetSpec.homogeneous(cells=n_cells, seed=seed,
                                     ca_dwell=ca_dwell)
    if screening:
        import dataclasses

        # Stamp the flag into the spec itself (not just the run call) so
        # the hash printed below is the one the store files under.
        spec = dataclasses.replace(spec, assays=tuple(
            dataclasses.replace(assay, screening=True)
            for assay in spec.assays))
    start = time.perf_counter()
    print(f"fleet spec {api.spec_hash(spec)[:12]} "
          f"(schema v{api.SCHEMA_VERSION}, {n_cells} assays"
          f"{', screening' if screening else ''})")

    def report(record) -> None:
        if record.failed:
            print(f"  FAIL {record.job_name}: {record.error_type} "
                  f"after {record.attempts} attempt(s)")
            return
        recovered = sum(1 for t in PAPER_PANEL_MID_CONCENTRATIONS
                        if t in record.result.readouts)
        print(f"  done {record.job_name}: {recovered}/{n_targets} "
              f"targets, assay {record.result.assay_time:.0f} s")

    n_failed = 0
    if store is not None:
        # The memoised path: whole-run records by spec hash, per-job
        # records by JobKey — a partially warm fleet simulates only its
        # missing jobs.
        record = api.run(spec, backend=backend, store=api.RunStore(store),
                         retry=retry, on_error=on_error)
        _print_provenance(record)
        if record.cached:
            for job in record.to_dict()["result"]["jobs"]:
                print(f"  hit  {job['job_name']}: "
                      f"{len(job['readouts'])}/{n_targets} targets, "
                      f"assay {job['assay_time_s']:.0f} s")
            mode = "run store cache hit"
        else:
            n_hits = sum(1 for rec in record.records if rec.cached)
            n_failed = record.n_failed
            for rec in record.records:
                if rec.failed:
                    report(rec)
                    continue
                recovered = sum(1 for t in PAPER_PANEL_MID_CONCENTRATIONS
                                if t in rec.result.readouts)
                print(f"  {'hit ' if rec.cached else 'done'} "
                      f"{rec.job_name}: {recovered}/{n_targets} "
                      f"targets, assay {rec.result.assay_time:.0f} s")
            stored = max(rec.n_store_rows or 0 for rec in record.records)
            mode = (f"{backend_name} backend, stored "
                    f"({n_hits}/{len(record.records)} jobs from store, "
                    f"{stored} rows from store)")
    else:
        stats = None
        solved = None
        stored = None
        resilience = None
        for record in api.iter_results(spec, backend=backend,
                                       retry=retry, on_error=on_error):
            report(record)
            n_failed += 1 if record.failed else 0
            stats = record.engine if record.engine is not None else stats
            solved = getattr(record, "n_solved_systems", None) or solved
            stored = getattr(record, "n_store_rows", None) or stored
            resilience = (getattr(record, "resilience", None)
                          or resilience)
        _print_resilience(resilience)
        rows = (f", {solved} distinct engine rows solved, "
                f"{stored or 0} rows from store"
                if solved is not None else "")
        mode = (f"{backend_name} backend "
                f"({stats.n_fused_dwells} dwell systems in "
                f"{stats.n_dwell_groups} group(s){rows})"
                if stats is not None else f"{backend_name} backend")
    elapsed = time.perf_counter() - start
    print(f"mode      : {mode}")
    print(f"wall time : {elapsed:.2f} s")
    print(f"throughput: {n_cells / elapsed:.2f} assays/sec")
    if n_failed:
        print(f"degraded  : {n_failed}/{n_cells} job(s) failed "
              f"(--on-error partial)")
    return 0


def _cmd_explore(spec_path: str | None) -> int:
    from repro import api
    from repro.core import exploration_report
    from repro.core.spec import read_payload

    panel = read_payload(spec_path) if spec_path else None
    record = api.run(api.ExploreSpec(panel=panel))
    _print_provenance(record)
    print(exploration_report(record.result))
    return 0 if record.result.n_feasible else 1


def _print_calibration_record(record) -> None:
    from repro.data import performance_record
    from repro.units import sensitivity_to_paper

    paper = performance_record(record.target)
    curve = record.curve
    rows = [[f"{p.concentration:.3g}", f"{p.signal * 1e6:.4g}"]
            for p in curve.points]
    print(render_table(["C mM", "I uA"], rows,
                       title=f"calibration of {record.target}"))
    lo_p, hi_p = paper.linear_range
    sens = curve.sensitivity(c_low=lo_p, c_high=hi_p) / record.we_area
    print(f"sensitivity : {sensitivity_to_paper(sens):.2f} uA/(mM cm^2) "
          f"(paper {paper.sensitivity:g})")
    print(f"LOD         : {si_to_um_conc(curve.limit_of_detection()):.0f} uM "
          + (f"(paper {si_to_um_conc(paper.lod):.0f})"
             if paper.lod is not None else ""))
    low, high = curve.linear_range()
    print(f"linear range: {low:.2g} - {high:.2g} mM "
          f"(paper {paper.linear_range[0]:g} - {paper.linear_range[1]:g})")


def _cmd_calibrate(target: str, n_points: int) -> int:
    from repro import api

    record = api.run(api.CalibrationSpec(target=target, points=n_points))
    _print_provenance(record)
    _print_calibration_record(record)
    return 0


def _cmd_selectivity(potential_mv: float) -> int:
    from repro.analysis.selectivity import cross_response_matrix
    from repro.data import PAPER_PANEL_TARGETS, paper_panel_cell
    from repro.units import mv_to_v

    cell = paper_panel_cell({t: 0.0 for t in PAPER_PANEL_TARGETS})
    matrix = cross_response_matrix(cell, mv_to_v(potential_mv),
                                   species=PAPER_PANEL_TARGETS,
                                   concentration=1.0)
    print(f"operating potential: {potential_mv:+.0f} mV vs Ag/AgCl")
    print(matrix.render())
    return 0


def _cmd_run(spec_path: str, json_out: str | None, backend=None,
             store: str | None = None, screening: bool = False,
             retry=None, on_error=None) -> int:
    from repro import api
    from repro.core import exploration_report
    from repro.io.export import run_record_to_json

    record = api.run(api.load_spec(spec_path), backend=backend,
                     store=api.RunStore(store) if store else None,
                     screening=True if screening else None,
                     retry=retry, on_error=on_error)
    _print_provenance(record)
    status = 0
    if record.cached:
        print(f"cache hit: stored record served from the run store "
              f"(original run took {record.wall_time_s:.2f} s)")
    # StoredRunRecord (a whole-run summary) matches none of the arms
    # below; rehydrated CachedAssayRecords are live assay records and
    # still render their panel table.
    if isinstance(record, api.AssayRunRecord):
        _print_panel_record(record)
    elif isinstance(record, api.FleetRunRecord):
        rows = [([rec.job_name, "FAIL", f"({rec.attempts} attempts)"]
                 if rec.failed else
                 [rec.job_name, len(rec.result.readouts),
                  f"{rec.result.assay_time:.0f}"])
                for rec in record.records]
        print(render_table(["Job", "Targets", "Assay s"], rows,
                           title=f"{len(record)}-assay fleet"))
        if record.n_failed:
            print(f"degraded: {record.n_failed}/{len(record)} job(s) "
                  f"failed (--on-error partial)")
    elif isinstance(record, api.CalibrationRunRecord):
        _print_calibration_record(record)
    elif isinstance(record, api.PlatformRunRecord):
        print(record.summary)
        for target, readout in record.result.readouts.items():
            print(f"  {target}: {readout.signal * 1e9:.2f} nA "
                  f"({readout.method})")
    elif isinstance(record, api.ExploreRunRecord):
        print(exploration_report(record.result))
        status = 0 if record.result.n_feasible else 1
    if json_out:
        path = run_record_to_json(record, json_out)
        print(f"record written to {path}")
    return status


def _cmd_serve(args) -> int:
    from repro import api
    from repro.service import DiagnosticsServer, ServeSpec

    retry = None
    if args.max_attempts is not None or args.timeout_s is not None:
        retry = api.RetryPolicy(
            max_attempts=(args.max_attempts
                          if args.max_attempts is not None else 3),
            timeout_s=args.timeout_s)
    spec = ServeSpec(
        host=args.host, port=args.port, backend=args.backend,
        workers=args.workers, dispatchers=args.dispatchers,
        store=args.store, queue=args.queue,
        rate_capacity=(args.rate_capacity
                       if args.rate_capacity is not None else 0.0),
        rate_refill_per_s=args.rate_refill,
        retry=retry, on_error=args.on_error)
    server = DiagnosticsServer(spec)
    port = server.start()
    # Machine-parseable announcement (CI greps it for the bound port);
    # flush so a piped parent sees it before the first request.
    print(f"repro serve: listening on http://{spec.host}:{port} "
          f"({spec.backend} backend, {spec.dispatchers} dispatcher(s)"
          f"{', store ' + spec.store if spec.store else ''})",
          flush=True)
    try:
        import threading

        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    finally:
        server.stop()
    counts = server.runtime.registry.by_status()
    print("repro serve: stopped (runs: "
          + (", ".join(f"{status}={n}" for status, n in sorted(counts.items()))
             or "none") + ")", flush=True)
    return 0


def _cmd_worker(args) -> int:
    import os

    from repro.api.distributed import (
        default_store_root,
        ensure_queue,
        run_worker,
    )

    root = ensure_queue(args.queue)
    store = args.store if args.store is not None \
        else str(default_store_root(root))
    # Machine-parseable announcement (tests and CI grep it); flush so a
    # piped parent sees it before the first claim.
    print(f"repro worker: ready queue={root} store={store} "
          f"pid={os.getpid()}", flush=True)
    try:
        done = run_worker(root, store=store, max_shards=args.max_shards)
    except KeyboardInterrupt:
        print("repro worker: shutting down", flush=True)
        return 0
    print(f"repro worker: done shards={done['shards']} "
          f"jobs={done['jobs']}", flush=True)
    return 0


def _cmd_cache(args) -> int:
    from repro import api

    store = api.RunStore(args.store)
    command = getattr(args, "cache_command", None)
    if command == "stats":
        return _cmd_cache_stats(store, args.json)
    if command == "gc":
        return _cmd_cache_gc(store, args.max_count, args.max_bytes,
                             args.json)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} record(s) from {store.root}")
        return 0
    rows = []
    for record in store.records():
        seed = record.provenance().get("seed")
        rows.append([record.spec_hash[:12], record.kind,
                     "-" if seed is None else str(seed),
                     f"{record.wall_time_s:.2f}"])
    print(render_table(["Spec hash", "Kind", "Seed", "Wall s"], rows,
                       title=f"run store {store.root}"))
    print(f"{len(rows)} record(s)")
    return 0


def _cmd_cache_stats(store, as_json: bool) -> int:
    import json as json_module

    stats = store.stats()
    if as_json:
        payload = {"root": str(store.root), **stats.to_dict(),
                   "hit_rate": stats.hit_rate}
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"run store {store.root}")
    print(f"records   : {stats.records}")
    print(f"bytes     : {stats.bytes} ({_human_bytes(stats.bytes)})")
    print(f"hits      : {stats.hits}")
    print(f"misses    : {stats.misses}")
    print(f"evictions : {stats.evictions}")
    print(f"quarantined: {stats.quarantined}")
    print(f"hit rate  : {100.0 * stats.hit_rate:.1f}%")
    print(f"row records: {stats.row_records}")
    print(f"row bytes : {stats.row_bytes} "
          f"({_human_bytes(stats.row_bytes)})")
    print(f"row hits  : {stats.row_hits}")
    print(f"row misses: {stats.row_misses}")
    return 0


def _cmd_cache_gc(store, max_count: int | None, max_bytes: int | None,
                  as_json: bool) -> int:
    import json as json_module

    if max_count is None and max_bytes is None:
        raise SystemExit("error: cache gc needs --max-count and/or "
                         "--max-bytes")
    evicted, freed = store.gc(max_count=max_count, max_bytes=max_bytes)
    stats = store.stats()
    if as_json:
        payload = {"root": str(store.root), "evicted": evicted,
                   "bytes_freed": freed, **stats.to_dict()}
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"evicted {evicted} record(s), freed {_human_bytes(freed)}; "
          f"{stats.records} record(s), {_human_bytes(stats.bytes)} remain")
    return 0


def _cmd_lint(args) -> int:
    rules = devtools.default_rules()
    if args.rule:
        wanted = set(args.rule)
        rules = [rule for rule in rules if rule.rule_id in wanted]
    baseline_path = args.baseline or devtools.DEFAULT_BASELINE
    engine = devtools.LintEngine(
        rules, root=Path.cwd(),
        baseline=devtools.Baseline.load(baseline_path))
    try:
        if args.write_schema:
            sources = devtools.collect_sources(args.paths, Path.cwd())
            devtools.write_snapshot(devtools.DEFAULT_SNAPSHOT, sources)
            print(f"wrote {devtools.DEFAULT_SNAPSHOT}", file=sys.stderr)
        result = engine.run(args.paths)
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        devtools.Baseline.write(baseline_path, result.findings)
        print(f"wrote {baseline_path} with "
              f"{len(result.findings)} entr"
              f"{'y' if len(result.findings) == 1 else 'ies'}",
              file=sys.stderr)
        return 0
    print(devtools.render_json(result) if args.json
          else devtools.render_text(result))
    return 0 if result.clean else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            return _cmd_tables()
        if args.command == "panel":
            return _cmd_panel(args.seed)
        if args.command == "fleet":
            backend, retry, on_error = _build_execution(args)
            return _cmd_fleet(args.cells, args.seed, args.ca_dwell,
                              backend=backend,
                              store=args.store, screening=args.screening,
                              retry=retry, on_error=on_error)
        if args.command == "explore":
            return _cmd_explore(args.spec)
        if args.command == "calibrate":
            return _cmd_calibrate(args.target, args.points)
        if args.command == "selectivity":
            return _cmd_selectivity(args.potential)
        if args.command == "run":
            backend, retry, on_error = _build_execution(args)
            return _cmd_run(args.spec, args.json,
                            backend=backend, store=args.store,
                            screening=args.screening,
                            retry=retry, on_error=on_error)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
