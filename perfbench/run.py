"""The repo benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):
``sweep_cold``, ``sweep_extend``, ``store_replay`` (``sweeps.py``) and
``service_mixed`` (``servicemix.py``).  Inputs are generated from
``--seed``; every output is checked against digests of an inline,
uncached run made in set-up.

With ``--trace 0`` the result carries the end-to-end metrics, their
times calibrated to a reference host speed by a probe run beside each
timed unit (``common.calibrated``); with
``--trace 1`` the per-layer metrics of a traced run (``spans.py``),
whose layer self times must reconcile with its wall time.  The line
before the result is a ``{"report": ...}`` object with the
workload-specific figures (latency percentiles, stored bytes, ratios
with their bases) and host metadata.

The program is built from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cold", "sweep_extend", "store_replay", "service_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    from common import host_metadata, peak_rss_mb

    work = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service_mixed":
            import servicemix
            outcome = servicemix.run(args.seed, args.seconds,
                                     bool(args.trace), work, ROOT)
        else:
            import sweeps
            outcome = sweeps.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(outcome.metrics)
    units = {}
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = {"assays_per_s": "1/s", "cpu_s_per_assay": "s",
                 "setup_s": "s", "peak_rss_mb": "MiB"}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_ratio": (outcome.failed / outcome.attempted
                               if outcome.attempted else 1.0),
              **outcome.report, "host": host_metadata()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or _unit(name)}
                    for name, value in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    """Units of the per-layer metrics, all normalised per assay."""
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("_s"):
        return "s/assay"
    if "bytes" in name:
        return "bytes/assay"
    if name == "engine.fused_per_group":
        return "units/group"
    return "count/assay"


if __name__ == "__main__":
    sys.exit(main())
