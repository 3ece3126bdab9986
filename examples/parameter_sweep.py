"""Parameter sweep: a dose-response grid memoised per grid point.

The platform's front door separates *what* runs from *how* it runs —
and, since the job-level pipeline, *whether it needs to run at all*.
This example shows all three axes on one parameter study:

1. describe a dose-response study declaratively — a :mod:`repro.api`
   ``SweepSpec`` whose grid crosses glucose loading with the
   acquisition seed, compiled into one fleet payload,
2. stream the grid through the pluggable backend API (the inline
   executor here; swap in ``api.ProcessExecutor(workers=4)`` — or
   ``"execution": {"backend": "process"}`` in the spec file — for
   multi-core sharding with bit-identical results) against a
   content-addressed ``RunStore``: every grid point is keyed by its
   ``JobKey`` (SHA-256 over the canonical assay payload), warm points
   are rehydrated from the store bit for bit, and only the misses
   touch the engine,
3. extend the study — one extra glucose level — and watch the
   pipeline simulate *only* the new grid points.

Run:  python examples/parameter_sweep.py

Set ``REPRO_SWEEP_STORE=dir`` to persist the store across invocations
(a second run reports every grid point cached and performs zero engine
solves — CI does exactly this); add ``REPRO_SWEEP_EXPECT_WARM=1`` to
make that claim a hard assertion.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import api
from repro.io.tables import render_table

GLUCOSE_LEVELS = (0.5, 2.0, 4.0)  # mM, spanning the paper's linear range
SEEDS = (7, 8)                    # two acquisition-noise replicates


def dose_response_sweep(levels=GLUCOSE_LEVELS) -> api.SweepSpec:
    return api.SweepSpec(
        name="glucose-dose-response",
        base=api.AssaySpec(name="dose",
                           protocol=api.PanelProtocolSpec(ca_dwell=6.0)),
        grid={"cell.concentrations.glucose": list(levels),
              "seed": list(SEEDS)})


def stream_study(sweep: api.SweepSpec, store: api.RunStore):
    """Stream a sweep through the job-level pipeline; report cache use."""
    signals: dict[float, list[float]] = {}
    records = []
    start = time.perf_counter()
    for record in api.iter_results(sweep, store=store):
        level = record.spec["cell"]["concentrations"]["glucose"]
        signals.setdefault(level, []).append(
            record.result.readouts["glucose"].signal)
        mark = "hit " if record.cached else "done"
        print(f"  {mark} {record.job_name}: glucose {level:g} mM, "
              f"seed {record.seed}")
        records.append(record)
    elapsed = time.perf_counter() - start
    n_cached = sum(1 for r in records if r.cached)
    print(f"grid points cached: {n_cached}/{len(records)} "
          f"({elapsed:.2f} s)")
    return records, signals, n_cached


def main() -> None:
    # --- 1. the study is one spec ----------------------------------------
    sweep = dose_response_sweep()
    print(f"sweep {api.spec_hash(sweep)[:12]}: {len(sweep)} grid points "
          f"({len(GLUCOSE_LEVELS)} glucose levels x {len(SEEDS)} seeds)")

    store_root = os.environ.get("REPRO_SWEEP_STORE")
    scratch = None
    if store_root is None:
        scratch = tempfile.TemporaryDirectory()
        store_root = scratch.name
    store = api.RunStore(store_root)
    try:
        # --- 2. stream it through the job-level pipeline -----------------
        records, signals, n_cached = stream_study(sweep, store)
        if os.environ.get("REPRO_SWEEP_EXPECT_WARM"):
            assert n_cached == len(records), (
                f"expected a fully warm sweep, got "
                f"{n_cached}/{len(records)} cached grid points")
            assert all(r.cached for r in records)
            print("warm re-run verified: every grid point served from "
                  "the store, zero engine solves")

        rows = []
        for level in GLUCOSE_LEVELS:
            mean = sum(signals[level]) / len(signals[level])
            spread = max(signals[level]) - min(signals[level])
            rows.append([f"{level:g}", f"{mean * 1e9:.1f}",
                         f"{spread * 1e9:.2f}"])
        print(render_table(
            ["glucose mM", "mean signal nA", "spread nA"], rows,
            title="dose response (grid means over seeds)"))

        # --- 3. extend the grid: only the new points simulate ------------
        extended = dose_response_sweep(levels=GLUCOSE_LEVELS + (8.0,))
        print(f"extended sweep: {len(extended)} grid points "
              f"({len(sweep)} shared with the study above)")
        ext_records, _, ext_cached = stream_study(extended, store)
        assert ext_cached >= len(sweep), \
            "every shared grid point should be a store hit"

        stats = store.stats()
        print(f"store: {stats.records} record(s), {stats.bytes} bytes, "
              f"{stats.hits} hit(s) / {stats.misses} miss(es) lifetime "
              f"(hit rate {100 * stats.hit_rate:.0f}%)")
    finally:
        if scratch is not None:
            scratch.cleanup()


if __name__ == "__main__":
    main()
