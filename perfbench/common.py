"""Helpers shared by the workloads: output digests, percentiles, CPU
and memory accounting, host metadata and the run outcome."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Probe time of a quiet host, seconds: the reference speed the timed
#: end-to-end metrics are calibrated to (see ``calibrated``).
PROBE_REFERENCE_S = 0.020

#: Largest share of traced wall time the layers may leave unattributed.
UNATTRIBUTED_TOLERANCE = 0.10

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def result_digest(result) -> str:
    """sha256 over every sample array of a panel result (and its
    readout signals), in a fixed order; equal digests mean bit-equal
    outputs."""
    sha = hashlib.sha256()

    def add(array) -> None:
        if array is None:
            sha.update(b"none")
        else:
            sha.update(np.ascontiguousarray(array, dtype=float).tobytes())

    for name in sorted(result.traces):
        trace = result.traces[name]
        sha.update(name.encode())
        for array in (trace.times, trace.current, trace.true_current):
            add(array)
    for name in sorted(result.voltammograms):
        vg = result.voltammograms[name]
        sha.update(name.encode())
        for array in (vg.times, vg.potentials, vg.current, vg.sweep_sign,
                      vg.true_current):
            add(array)
    for target in sorted(result.readouts):
        sha.update(target.encode())
        add(np.array([result.readouts[target].signal]))
    return sha.hexdigest()


def tail(values: list[float]) -> dict:
    """The highest ladder percentile with at least ``TAIL_BEYOND``
    samples beyond it, with that percentile and the sample count."""
    n = len(values)
    chosen = None
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            chosen = pct
    value = (float(np.percentile(values, chosen)) if chosen is not None
             else (max(values) if values else 0.0))
    return {"value": value, "unit": "s", "percentile": chosen, "samples": n}


def probe() -> float:
    """Seconds one run of a fixed kernel takes (about 20 ms on a quiet
    host): small-array numpy stencil updates, like the engine's, plus
    dict work.  The benchmark's own code, so only the host moves it."""
    grid = np.linspace(0.0, 1.0, 256)
    state = np.zeros_like(grid)
    start = time.perf_counter()
    total = 0.0
    for k in range(2400):
        state[1:-1] = (0.5 * state[1:-1] + 0.25 * (state[:-2] + state[2:])
                       + 1e-3 * grid[1:-1])
        np.cumsum(state, out=state)
        state *= 1e-3
        if k % 24 == 0:
            total += sum({i: i * 0.5 for i in range(40)}.values())
    return time.perf_counter() - start


def calibrated(times, probes) -> float:
    """Seconds a unit of work would take at the reference host speed:
    the median over units of ``time / probe``, each unit paired with
    the probe run just before it, times ``PROBE_REFERENCE_S``.

    The host is shared, and neighbours slow it to ~0.6x for minutes
    at a time, in CPU time as well as wall time, so raw times of whole
    runs spread by more than the metrics' bounds.  The probe slows with
    the unit beside it, and the benchmark never changes the probe, so a
    faster program still shows in full.  Raw medians go in the report.
    """
    return PROBE_REFERENCE_S * median(
        [t / p for t, p in zip(times, probes, strict=True)])


def host_speed(probes) -> float:
    """How fast the host ran against a quiet one, as
    ``PROBE_REFERENCE_S / median(probes)``; recorded in the report."""
    return PROBE_REFERENCE_S / median(probes)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def children_cpu_s(pids) -> float:
    """User + system CPU seconds of running child processes, read from
    ``/proc`` (Linux)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            rest = handle.read().rsplit(")", 1)[1].split()
        total += (int(rest[11]) + int(rest[12])) / ticks
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child it has
    waited for, MiB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def host_metadata() -> dict:
    """Recorded as ``benchmarks/conftest.py`` records it for BENCH files,
    plus the multiprocessing start method."""
    return {"cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "start_method": multiprocessing.get_start_method(),
            "thread_env": {name: os.environ.get(name)
                           for name in _THREAD_ENV_VARS}}


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def check(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.correct = False
