"""Backend conformance: one fault, one outcome, whatever the backend.

Every cell of {inline, process, distributed} x {no fault, engine_error,
worker_crash, worker_hang} x {raise, partial} runs the same two-job
fleet under the same two-attempt retry policy.  The fault always
targets ``cell01`` and outlasts the budget, so the outcome is fixed
before any backend runs:

- no fault: both records bit-identical to the fault-free inline run;
- ``partial``: ``cell00`` bit-identical, ``cell01`` a
  ``FailedAssayRecord`` after two attempts in its slot;
- ``raise``: ``ExecutionError`` naming ``cell01``.

Records are compared without wall time and engine statistics, which
describe the execution.  Inline runs the fleet as one unit, process and
distributed shard it per ``workers``; with two jobs the re-dispatch
ladder isolates ``cell01`` after one split, so the unit cut moves the
retry counters but never the records.  ``ResilienceStats`` are pinned
per unit cut: process and distributed at ``workers=2``, and all three
backends at ``workers=1`` for the no-fault and ``engine_error`` cells.
In-thread there is no worker to crash or hang, so inline's crash and
hang cells count engine errors.

An assay that is only found invalid when its job is built is the
caller's error on every backend: ``SpecError`` (chained to the original
where it was raised in this process) under ``raise``, a ``SpecError``
slot under ``partial``.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro import api
from repro.api.distributed import ensure_queue, run_worker
from repro.api.records import ResilienceStats
from repro.api.resilience import FaultInjector, RetryPolicy
from repro.errors import ExecutionError, SpecError
from repro.io.export import panel_result_to_payload

CA_DWELL = 2.0  # short dwell keeps the matrix fast; physics unchanged
POLICY = RetryPolicy(max_attempts=2, timeout_s=0.75)
FAULTS = (None, "engine_error", "worker_crash", "worker_hang")
MODES = ("raise", "partial")

#: ``(workers, fault) -> stats`` of the ``partial`` stream.  Two
#: single-job units (``workers=2``): ``cell01``'s unit fails twice and
#: is re-queued once.  One two-job unit (``workers=1``): the first
#: failure re-queues both jobs, the split isolates ``cell01``, which
#: fails once more.
EXPECTED_STATS = {
    (2, None): ResilienceStats(),
    (2, "engine_error"): ResilienceStats(retries=1, engine_errors=2,
                                         failed_jobs=1),
    (2, "worker_crash"): ResilienceStats(retries=1, worker_crashes=2,
                                         failed_jobs=1),
    (2, "worker_hang"): ResilienceStats(retries=1, worker_hangs=2,
                                        failed_jobs=1),
    (1, None): ResilienceStats(),
    (1, "engine_error"): ResilienceStats(retries=2, engine_errors=2,
                                         failed_jobs=1),
}

#: The failed slot's ``error_type`` per fault, on a backend with
#: workers; in-thread every fault is an ``ExecutionError``.
WORKER_ERROR_TYPES = {"engine_error": "ExecutionError",
                      "worker_crash": "BrokenProcessPool",
                      "worker_hang": "ExecutionError"}


def fleet() -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=2, seed=90, ca_dwell=CA_DWELL)


def invalid_fleet() -> api.FleetSpec:
    """``fleet()`` with ``cell01`` on a reference target that does not
    exist — valid to declare, a ``SpecError`` when its job is built."""
    good, bad = fleet().assays
    bogus = api.CellSpec(kind="reference", target="bogus")
    return replace(fleet(), assays=(good, replace(bad, cell=bogus)))


@pytest.fixture(scope="module")
def reference():
    return list(api.InlineExecutor().run_fleet(fleet()))


def canon(record) -> tuple:
    """What a slot holds, without wall time or engine statistics."""
    head = (record.job_name, record.seed, record.spec_hash, record.spec)
    if record.failed:
        return head + ("failed", record.attempts)
    return head + (panel_result_to_payload(record.result),)


@contextmanager
def worker_fleet(queue: Path, fault):
    """Workers for one distributed cell, stopped through the queue's
    stop file.  An injected crash is a real ``os._exit``, so crash
    cells run worker processes: two die on ``cell01``'s attempts and a
    third survives for ``cell00``.  Two threads serve every other cell
    (one may sit in an injected hang while the other works)."""
    if fault == "worker_crash":
        workers = [multiprocessing.Process(target=run_worker,
                                           kwargs={"queue": queue})
                   for _ in range(3)]
    else:
        workers = [threading.Thread(target=run_worker,
                                    kwargs={"queue": queue}, daemon=True)
                   for _ in range(2)]
    for worker in workers:
        worker.start()
    try:
        yield
    finally:
        (queue / "stop").touch()
        stuck = []
        for worker in workers:
            worker.join(timeout=10)
            if worker.is_alive():
                stuck.append(worker)
                if isinstance(worker, multiprocessing.Process):
                    worker.kill()
                    worker.join()
    assert not stuck, "workers ignored the stop file"


def run_cell(backend: str, workers: int, fault, mode: str, tmp_path,
             spec=None, retry=POLICY):
    """The cell's records (``partial``) or raised error (``raise``)."""
    faults = (FaultInjector.parse(f"{fault}:9@cell01")
              if fault is not None else None)
    options = dict(retry=retry, on_error=mode, faults=faults)
    spec = spec if spec is not None else fleet()

    def collect(executor):
        try:
            return list(executor.run_fleet(spec)), None
        except (ExecutionError, SpecError) as exc:
            return None, exc

    if backend == "inline":
        return collect(api.InlineExecutor(**options))
    if backend == "process":
        with api.ProcessExecutor(workers=workers, **options) as executor:
            return collect(executor)
    queue = tmp_path / "q"
    ensure_queue(queue)
    with worker_fleet(queue, fault):
        return collect(api.DistributedExecutor(queue=queue, workers=workers,
                                               **options))


def check_cell(backend, workers, fault, mode, reference, tmp_path):
    records, error = run_cell(backend, workers, fault, mode, tmp_path)
    if fault is not None and mode == "raise":
        assert records is None
        assert type(error) is ExecutionError
        assert "cell01" in str(error)
        return
    assert error is None, error
    expected = [canon(record) for record in reference]
    if fault is not None:
        expected[1] = expected[1][:4] + ("failed", POLICY.max_attempts)
        failed = records[1]
        assert failed.error_type == (
            "ExecutionError" if backend == "inline"
            else WORKER_ERROR_TYPES[fault])
    assert [canon(record) for record in records] == expected
    # In-thread, crash and hang injections surface as engine errors.
    seen = fault if backend != "inline" or fault is None else "engine_error"
    assert records[-1].resilience == EXPECTED_STATS[(workers, seen)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("backend,workers", [("inline", 1), ("process", 2),
                                             ("distributed", 2)])
def test_backend_cell(backend, workers, fault, mode, reference, tmp_path):
    check_cell(backend, workers, fault, mode, reference, tmp_path)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fault", [None, "engine_error"])
@pytest.mark.parametrize("backend", ["process", "distributed"])
def test_single_unit_cell_matches_inline(backend, fault, mode, reference,
                                         tmp_path):
    check_cell(backend, 1, fault, mode, reference, tmp_path)


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("process", 2),
                                             ("distributed", 2)])
def test_invalid_assay_raises_spec_error(backend, workers, tmp_path):
    """The default path (no policy, ``raise``, no faults) fails the run
    with the assay's own error class, not a wrapped execution error."""
    records, error = run_cell(backend, workers, None, "raise", tmp_path,
                              spec=invalid_fleet(), retry=None)
    assert records is None
    assert type(error) is SpecError
    assert "bogus" in str(error)
    if backend != "distributed":  # raised in this process: chained
        assert isinstance(error.__cause__, SpecError)


@pytest.mark.parametrize("backend,workers", [("inline", 1), ("process", 2),
                                             ("distributed", 2)])
def test_invalid_assay_partial_fills_its_slot(backend, workers, reference,
                                              tmp_path):
    records, error = run_cell(backend, workers, None, "partial", tmp_path,
                              spec=invalid_fleet())
    assert error is None, error
    assert canon(records[0]) == canon(reference[0])
    failed = records[1]
    assert failed.failed and failed.job_name == "cell01"
    assert failed.error_type == "SpecError" and "bogus" in failed.error
    assert failed.attempts == POLICY.max_attempts
