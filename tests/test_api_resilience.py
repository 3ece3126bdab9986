"""Fault-tolerant execution: supervision, retry, degradation, injection.

Pins the acceptance bar of the resilience layer:

- under injected worker crashes, hangs and transient engine errors, a
  supervised fleet retries to completion **bit-identical** to the
  fault-free inline run (faults live in the executor, never the spec,
  so both runs share every spec hash and job key),
- with retries exhausted and ``on_error="partial"`` the surviving jobs
  stay bit-identical and the failed jobs stream as
  ``FailedAssayRecord`` entries carrying their attempt counts,
- ``on_error="raise"`` (the default) aborts with ``ExecutionError``
  (never ``SpecError`` — a bad run is not a bad spec),
- the ``RetryPolicy`` rides in the execution block (schema v4) and
  older spec files keep loading,
- the ``FaultInjector`` is deterministic: seeded rules, reproducible
  decisions, environment-driven arming,
- a degraded run never persists its failed jobs, so a warm store
  re-run completes exactly the jobs that failed,
- an abandoned supervised stream shuts its workers down in bounded
  time.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import api
from repro.api.records import FailedAssayRecord
from repro.api.resilience import (
    FaultInjector,
    FaultRule,
    RetryPolicy,
    kill_pool,
)
from repro.errors import ExecutionError, SpecError

CA_DWELL = 2.0  # short dwell keeps the suite fast; physics unchanged


def small_fleet(cells: int = 4, seed: int = 40) -> api.FleetSpec:
    return api.FleetSpec.homogeneous(cells=cells, seed=seed,
                                     ca_dwell=CA_DWELL)


def assert_records_identical(ref, got):
    """Full bit-identity: provenance, every trace sample, every readout."""
    assert ref.job_name == got.job_name
    assert ref.seed == got.seed
    assert ref.spec_hash == got.spec_hash
    assert ref.spec == got.spec
    assert set(ref.result.traces) == set(got.result.traces)
    for name in ref.result.traces:
        assert np.array_equal(ref.result.traces[name].current,
                              got.result.traces[name].current)
        assert np.array_equal(ref.result.traces[name].true_current,
                              got.result.traces[name].true_current)
    for name in ref.result.voltammograms:
        assert np.array_equal(ref.result.voltammograms[name].current,
                              got.result.voltammograms[name].current)
    for target in ref.result.readouts:
        assert (ref.result.readouts[target].signal
                == got.result.readouts[target].signal)
    assert ref.result.assay_time == got.result.assay_time


class TestRetryPolicy:
    def test_defaults_and_validation(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3 and policy.timeout_s is None
        with pytest.raises(SpecError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SpecError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(SpecError, match="backoff_s"):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(SpecError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(SpecError, match="jitter_s"):
            RetryPolicy(jitter_s=-0.1)

    def test_backoff_is_exponential_and_jitter_deterministic(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_factor=2.0,
                             jitter_s=0.25, jitter_seed=7)
        base1 = policy.delay_s(1, key="cell00")
        base2 = policy.delay_s(2, key="cell00")
        assert 0.5 <= base1 < 0.75
        assert 1.0 <= base2 < 1.25
        # Same (seed, key, attempt) -> same jitter, different key -> not.
        assert policy.delay_s(1, key="cell00") == base1
        assert policy.delay_s(1, key="cell01") != base1

    def test_round_trips_through_dict(self):
        policy = RetryPolicy(max_attempts=5, timeout_s=12.5,
                             backoff_s=0.1, jitter_s=0.05, jitter_seed=3)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(
            json.loads(json.dumps(policy.to_dict()))) == policy

    def test_from_dict_names_bad_fields(self):
        with pytest.raises(SpecError, match="retry policy.max_attempts"):
            RetryPolicy.from_dict({"max_attempts": "three"})
        with pytest.raises(SpecError, match="expected a JSON object"):
            RetryPolicy.from_dict("nope")


class TestSchemaV4:
    def test_execution_block_carries_retry_and_on_error(self):
        spec = small_fleet(cells=2)
        import dataclasses
        spec = dataclasses.replace(spec, execution=api.ExecutionSpec(
            backend="process", workers=2,
            retry=RetryPolicy(max_attempts=4, timeout_s=60.0),
            on_error="partial"))
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["schema"] == api.SCHEMA_VERSION
        assert payload["execution"]["retry"]["max_attempts"] == 4
        assert payload["execution"]["on_error"] == "partial"
        back = api.spec_from_dict(payload)
        assert back == spec
        assert back.execution.retry.timeout_s == 60.0

    def test_v3_payload_without_retry_still_loads(self):
        payload = small_fleet(cells=2).to_dict()
        payload["schema"] = 3
        del payload["execution"]["retry"]
        del payload["execution"]["on_error"]
        back = api.spec_from_dict(payload)
        assert back.execution.retry is None
        assert back.execution.on_error == "raise"

    def test_bad_on_error_rejected(self):
        payload = small_fleet(cells=2).to_dict()
        payload["execution"]["on_error"] = "ignore"
        with pytest.raises(SpecError, match="on_error"):
            api.spec_from_dict(payload)

    def test_unsupervised_spec_hash_unchanged_by_version_bump(self):
        # Hash covers the payload; the new keys are emitted for every
        # v4 spec, so hashing is stable *within* v4 — and faulted runs
        # never touch the payload at all (pinned below).
        spec = small_fleet(cells=2)
        assert spec.to_dict()["execution"]["retry"] is None


class TestFaultInjector:
    def test_parse_count_rate_and_match(self):
        inj = FaultInjector.parse(
            "worker_crash:1@cell01; engine_error:0.25, worker_hang:2")
        kinds = [(r.kind, r.count, r.rate, r.match) for r in inj.rules]
        assert kinds == [("worker_crash", 1, 0.0, "cell01"),
                         ("engine_error", 0, 0.25, None),
                         ("worker_hang", 2, 0.0, None)]
        assert FaultInjector.parse(inj.describe()).describe() \
            == inj.describe()

    def test_parse_rejects_garbage(self):
        with pytest.raises(SpecError, match="kind:count or kind:rate"):
            FaultInjector.parse("worker_crash")
        with pytest.raises(SpecError, match="not a count or rate"):
            FaultInjector.parse("worker_crash:lots")
        with pytest.raises(SpecError, match="unknown fault kind"):
            FaultInjector.parse("cosmic_ray:1")
        with pytest.raises(SpecError, match="no rules"):
            FaultInjector.parse("  ;  ")

    def test_rule_validation(self):
        with pytest.raises(SpecError, match="exactly one"):
            FaultRule(kind="worker_crash")
        with pytest.raises(SpecError, match="exactly one"):
            FaultRule(kind="worker_crash", count=1, rate=0.5)
        with pytest.raises(SpecError, match="rate must be in"):
            FaultRule(kind="worker_crash", rate=1.5)

    def test_count_rule_fires_below_count_only(self):
        inj = FaultInjector.parse("worker_crash:2")
        assert inj.command(["cell00"], 0) == "crash"
        assert inj.command(["cell00"], 1) == "crash"
        assert inj.command(["cell00"], 2) is None

    def test_match_filters_by_job_name(self):
        inj = FaultInjector.parse("engine_error:1@cell03")
        assert inj.command(["cell00", "cell03"], 0) == "error"
        assert inj.command(["cell00", "cell01"], 0) is None

    def test_crash_beats_hang_beats_error(self):
        inj = FaultInjector.parse(
            "engine_error:1;worker_hang:1;worker_crash:1")
        assert inj.command(["cell00"], 0) == "crash"

    def test_rate_rule_is_seed_deterministic(self):
        a = FaultInjector.parse("engine_error:0.5", seed=1)
        b = FaultInjector.parse("engine_error:0.5", seed=1)
        c = FaultInjector.parse("engine_error:0.5", seed=2)
        names = [f"cell{i:02d}" for i in range(32)]
        decisions_a = [a.command([n], 0) for n in names]
        assert decisions_a == [b.command([n], 0) for n in names]
        assert decisions_a != [c.command([n], 0) for n in names]
        fired = sum(1 for d in decisions_a if d is not None)
        assert 0 < fired < len(names)  # a rate, not a constant

    def test_corrupts_counts_write_opportunities_per_key(self):
        inj = FaultInjector.parse("store_corrupt:1")
        assert inj.corrupts("a" * 64) is True
        assert inj.corrupts("a" * 64) is False  # re-write lands clean
        assert inj.corrupts("b" * 64) is True   # other keys independent

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:1@cell00")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        inj = FaultInjector.from_env()
        assert inj.describe() == "worker_crash:1@cell00"
        assert inj.seed == 7
        monkeypatch.setenv("REPRO_FAULTS_SEED", "many")
        with pytest.raises(SpecError, match="REPRO_FAULTS_SEED"):
            FaultInjector.from_env()


class TestSupervisedRecovery:
    """The headline acceptance bar: faulted == fault-free, bit for bit."""

    def test_crash_hang_and_error_recover_bit_identical(self):
        # 16 cells, workers=4 (so 4-job units), one unit crashed, one
        # hung past its deadline, one transiently erroring twice (unit,
        # then the half still containing the match) — every failure mode
        # of the issue in one fleet, retried to a stream bit-identical
        # to the fault-free inline reference.
        spec = small_fleet(cells=16, seed=40)
        ref = list(api.iter_results(spec, backend=api.InlineExecutor()))
        inj = FaultInjector.parse("worker_crash:1@cell01;"
                                  "worker_hang:1@cell06;"
                                  "engine_error:2@cell11")
        with api.ProcessExecutor(
                workers=4, retry=RetryPolicy(max_attempts=3, timeout_s=1.5),
                faults=inj) as backend:
            got = list(backend.run_fleet(spec))
        assert [r.job_name for r in got] == [r.job_name for r in ref]
        for a, b in zip(ref, got):
            assert_records_identical(a, b)
        stats = got[-1].resilience
        assert stats.worker_crashes == 1
        assert stats.worker_hangs == 1
        assert stats.engine_errors == 2
        assert stats.failed_jobs == 0
        assert stats.retries > 0
        assert got[-1].provenance()["resilience"]["worker_crashes"] == 1

    def test_supervised_executor_routes_through_api(self):
        # The same recovery through the public front door: a
        # ProcessExecutor constructed with retry+faults.
        spec = small_fleet(cells=4, seed=50)
        ref = list(api.iter_results(spec))
        backend = api.ProcessExecutor(
            workers=2, retry=RetryPolicy(max_attempts=2),
            faults=FaultInjector.parse("worker_crash:1@cell02"))
        got = list(api.iter_results(spec, backend=backend))
        for a, b in zip(ref, got):
            assert_records_identical(a, b)
        assert got[-1].resilience.worker_crashes == 1

    def test_retry_and_on_error_as_run_arguments(self):
        spec = small_fleet(cells=3, seed=55)
        ref = api.run(spec)
        got = api.run(spec, backend="process",
                      retry=RetryPolicy(max_attempts=2),
                      faults=FaultInjector.parse("engine_error:1@cell00"))
        for a, b in zip(ref.records, got.records):
            assert_records_identical(a, b)
        assert got.resilience is not None
        assert got.resilience.engine_errors == 1
        # retries counts re-dispatched *jobs*: every survivor of the
        # erroring unit went around again.
        assert got.provenance()["resilience"]["retries"] >= 1
        # Fleet engine totals survive supervision.  Splitting a unit
        # breaks dwell fusion, so the faulted run may solve *more*
        # steps — never fewer, and never different results.
        assert got.engine is not None
        assert got.engine.n_solve_steps >= ref.engine.n_solve_steps > 0

    def test_inline_supervision_retries_bit_identical(self):
        spec = small_fleet(cells=3, seed=60)
        ref = list(api.iter_results(spec))
        got = list(api.InlineExecutor(
            retry=RetryPolicy(max_attempts=3),
            faults=FaultInjector.parse("engine_error:1@cell01")
        ).run_fleet(spec))
        for a, b in zip(ref, got):
            assert_records_identical(a, b)
        # Inline runs the fleet as one unit: its one failed dispatch
        # re-queues all three jobs, exactly as a one-unit process fleet.
        assert got[-1].resilience.engine_errors == 1
        assert got[-1].resilience.retries == 3

    def test_inline_supervision_via_executor(self):
        spec = small_fleet(cells=2, seed=62)
        ref = list(api.iter_results(spec))
        backend = api.InlineExecutor(
            retry=RetryPolicy(max_attempts=2),
            faults=FaultInjector.parse("worker_crash:1@cell00"))
        # In-process there is no worker to crash: the fault surfaces as
        # a transient engine error and the retry recovers it.
        got = list(api.iter_results(spec, backend=backend))
        for a, b in zip(ref, got):
            assert_records_identical(a, b)
        assert got[-1].resilience.engine_errors == 1


class TestDegradation:
    def test_partial_keeps_survivors_and_reports_failures(self):
        spec = small_fleet(cells=4, seed=70)
        ref = list(api.iter_results(spec))
        inj = FaultInjector.parse("worker_crash:3@cell01")
        with api.ProcessExecutor(workers=2,
                                 retry=RetryPolicy(max_attempts=3),
                                 on_error="partial", faults=inj) as backend:
            got = list(backend.run_fleet(spec))
        assert [r.job_name for r in got] == [r.job_name for r in ref]
        failed = got[1]
        assert isinstance(failed, FailedAssayRecord)
        assert failed.failed and failed.result is None
        assert failed.attempts == 3
        assert failed.error_type == "BrokenProcessPool"
        assert failed.spec_hash == ref[1].spec_hash  # same job identity
        prov = failed.provenance()
        assert prov["failed"] is True and prov["attempts"] == 3
        for i in (0, 2, 3):
            assert_records_identical(ref[i], got[i])
        stats = got[-1].resilience
        assert stats.failed_jobs == 1 and stats.worker_crashes == 3

    def test_raise_mode_aborts_with_execution_error(self):
        spec = small_fleet(cells=3, seed=72)
        inj = FaultInjector.parse("worker_crash:2@cell01")
        with api.ProcessExecutor(workers=2,
                                 retry=RetryPolicy(max_attempts=2),
                                 faults=inj) as backend:
            with pytest.raises(ExecutionError, match="cell01"):
                list(backend.run_fleet(spec))

    def test_partial_fleet_record_counts_failures(self):
        spec = small_fleet(cells=3, seed=74)
        # workers=3 -> singleton shards, so the crash takes down only
        # cell01 even with no retry budget for collateral members.
        record = api.run(spec, backend=api.ProcessExecutor(
            workers=3, retry=RetryPolicy(max_attempts=1),
            on_error="partial",
            faults=FaultInjector.parse("worker_crash:1@cell01")))
        assert record.n_failed == 1
        assert record.provenance()["n_failed"] == 1
        assert record.records[1].failed
        # Engine totals come from the surviving jobs.
        assert record.engine is not None
        assert record.engine.n_solve_steps > 0
        # The result summary names the failure instead of readouts.
        jobs = record.to_dict()["result"]["jobs"]
        assert jobs[1]["failed"] is True
        assert jobs[1]["error_type"] == "BrokenProcessPool"

    def test_inline_partial_degrades_too(self):
        spec = small_fleet(cells=3, seed=76)
        got = list(api.InlineExecutor(
            retry=RetryPolicy(max_attempts=2), on_error="partial",
            faults=FaultInjector.parse("engine_error:9@cell02")
        ).run_fleet(spec))
        assert [r.failed for r in got] == [False, False, True]
        assert got[2].attempts == 2
        with pytest.raises(ExecutionError, match="cell02"):
            list(api.InlineExecutor(
                retry=RetryPolicy(max_attempts=2),
                faults=FaultInjector.parse("engine_error:9@cell02")
            ).run_fleet(spec))


class TestStoreInteraction:
    def test_failed_jobs_are_not_persisted_and_rerun_warm(self, tmp_path):
        spec = small_fleet(cells=3, seed=80)
        store = api.RunStore(tmp_path)
        record = api.run(spec, store=store, backend=api.ProcessExecutor(
            workers=3, retry=RetryPolicy(max_attempts=1),
            on_error="partial",
            faults=FaultInjector.parse("worker_crash:1@cell01")))
        assert record.n_failed == 1
        # Survivors persisted per job; neither the failed job nor the
        # degraded whole-run record entered the store.
        from repro.api.jobs import JobKey
        assert JobKey.for_assay(spec.assays[0]).digest in store
        assert JobKey.for_assay(spec.assays[1]).digest not in store
        assert api.spec_hash(spec) not in store
        # The warm retry (no faults) completes: survivors come from the
        # store, only the failed job re-executes.
        ref = api.run(spec)
        again = api.run(spec, store=store, backend="process",
                        retry=RetryPolicy(max_attempts=1))
        assert again.n_failed == 0
        assert sum(1 for r in again.records if r.cached) == 2
        for a, b in zip(ref.records, again.records):
            assert a.spec_hash == b.spec_hash
            for t in a.result.readouts:
                assert (a.result.readouts[t].signal
                        == b.result.readouts[t].signal)
        # Now fully warm, and the whole-run record persists this time.
        assert api.spec_hash(spec) in store

    def test_store_corruption_heals_through_the_pipeline(self, tmp_path):
        spec = small_fleet(cells=2, seed=82)
        faulted = api.RunStore(
            tmp_path, faults=FaultInjector.parse("store_corrupt:1"))
        first = api.run(spec, store=faulted)  # every write corrupted once
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = api.run(spec, store=faulted)  # heals: re-runs, rewrites
        assert second.cached is False
        assert second.store_stats.quarantined > 0
        assert second.spec_hash == first.spec_hash
        clean = api.RunStore(tmp_path)
        third = api.run(spec, store=clean)
        assert third.cached is True  # the healed store serves warm


def _die_mid_send(result_fd: int, sent: str) -> None:
    """Start a 1000-byte result message, send 7 bytes of it, and stall:
    a worker about to be killed while sending."""
    os.write(result_fd, struct.pack("!i", 1000) + b"partial")
    open(sent, "w").close()
    time.sleep(60)


class TestAbandonedStream:
    def test_supervised_stream_close_is_bounded(self):
        spec = small_fleet(cells=4, seed=84)
        stream = api.iter_results(
            spec, backend=api.ProcessExecutor(
                workers=2, retry=RetryPolicy(max_attempts=2)))
        first = next(stream)
        assert first.job_name == "cell00"
        start = time.perf_counter()
        stream.close()
        assert time.perf_counter() - start < 10.0

    def test_abandoned_hung_worker_does_not_block_close(self):
        spec = small_fleet(cells=4, seed=86)
        inj = FaultInjector.parse("worker_hang:1@cell03")
        backend = api.ProcessExecutor(
            workers=2, retry=RetryPolicy(max_attempts=2, timeout_s=30.0),
            faults=inj)
        stream = backend.run_fleet(spec)
        first = next(stream)  # cell03's unit is sleeping right now
        assert first.job_name == "cell00"
        start = time.perf_counter()
        stream.close()  # must kill the hung worker, not join it
        assert time.perf_counter() - start < 10.0
        backend.close()

    def test_worker_killed_mid_send_leaves_no_manager_thread(
            self, tmp_path):
        pool = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"))
        results = pool._result_queue
        sent = tmp_path / "sent"
        pool.submit(_die_mid_send, results._writer.fileno(), str(sent))
        manager = pool._executor_manager_thread
        deadline = time.monotonic() + 30.0
        while not sent.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sent.exists(), "worker never started"
        time.sleep(0.2)  # the manager thread is now reading the rest
        kill_pool(pool)
        # Interpreter exit joins this thread: it must end on its own.
        manager.join(timeout=10.0)
        stuck = manager.is_alive()
        results._writer.close()  # frees the thread if kill_pool did not
        assert not stuck


class TestResolution:
    def test_resolve_executor_applies_overrides(self):
        policy = RetryPolicy(max_attempts=2)
        executor = api.resolve_executor(
            "process", api.ExecutionSpec(workers=3), retry=policy,
            on_error="partial")
        assert isinstance(executor, api.ProcessExecutor)
        assert executor.workers == 3
        assert executor.retry == policy
        assert executor.on_error == "partial"

    def test_block_resilience_builds_supervised_executor(self):
        block = api.ExecutionSpec(backend="inline",
                                  retry=RetryPolicy(max_attempts=2))
        executor = api.resolve_executor(None, block)
        assert isinstance(executor, api.InlineExecutor)
        assert executor.retry.max_attempts == 2

    def test_instance_rejects_overrides(self):
        with pytest.raises(SpecError, match="already-constructed"):
            api.resolve_executor(api.InlineExecutor(),
                                 retry=RetryPolicy())
        # ...but an instance alongside a block that merely *mentions*
        # resilience passes through untouched (the block configured the
        # spec's own default, not this instance).
        backend = api.InlineExecutor()
        block = api.ExecutionSpec(retry=RetryPolicy(max_attempts=2))
        assert api.resolve_executor(backend, block) is backend

    def test_executor_validation(self):
        with pytest.raises(SpecError, match="on_error"):
            api.ProcessExecutor(on_error="ignore")
        with pytest.raises(SpecError, match="on_error"):
            api.InlineExecutor(on_error="ignore")

    def test_unsupervised_executors_stamp_no_resilience(self):
        # No retry, default on_error, no faults: records carry no
        # resilience snapshot; any one of the three knobs stamps one.
        spec = small_fleet(cells=2, seed=88)
        assert all(r.resilience is None
                   for r in api.InlineExecutor().run_fleet(spec))
        with api.ProcessExecutor(workers=2) as backend:
            assert all(r.resilience is None for r in backend.run_fleet(spec))
        for backend in (api.InlineExecutor(on_error="partial"),
                        api.InlineExecutor(retry=RetryPolicy(max_attempts=1))):
            last = list(backend.run_fleet(spec))[-1]
            assert last.resilience == api.ResilienceStats()


class TestCli:
    def test_exhausted_retries_exit_1(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:9@cell01")
        status = main(["fleet", "--cells", "2", "--ca-dwell", "2.0",
                       "--backend", "process", "--workers", "2",
                       "--max-attempts", "1"])
        assert status == 1
        assert "failed after 1 attempt" in capsys.readouterr().err

    def test_partial_mode_prints_fail_and_exits_0(self, monkeypatch,
                                                  capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:9@cell01")
        status = main(["fleet", "--cells", "2", "--ca-dwell", "2.0",
                       "--backend", "process", "--workers", "2",
                       "--max-attempts", "1", "--on-error", "partial"])
        out = capsys.readouterr().out
        assert status == 0
        assert "FAIL cell01" in out
        assert "degraded" in out

    def test_cache_stats_prints_quarantined(self, tmp_path, capsys):
        from repro.cli import main

        api.RunStore(tmp_path).put_job(
            api.run(api.AssaySpec(
                name="solo", seed=5, chain=api.ChainSpec(seed=5),
                protocol=api.PanelProtocolSpec(ca_dwell=CA_DWELL))))
        status = main(["cache", str(tmp_path), "stats"])
        out = capsys.readouterr().out
        assert status == 0
        assert "quarantined: 0" in out


def test_fresh_slot_is_not_charged_for_lazy_imports():
    """A process that never found a peak has not imported
    ``scipy.signal``.  Its first slot must not pay that import (about a
    second) inside a tight ``timeout_s``: the parent imports it before
    it forks the slot."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = """
import sys
from repro import api
assert "scipy.signal" not in sys.modules
spec = api.FleetSpec.homogeneous(cells=1, seed=41, ca_dwell=2.0)
policy = api.RetryPolicy(max_attempts=1, timeout_s=1.0)
with api.ProcessExecutor(workers=1, retry=policy) as executor:
    [record] = executor.run_fleet(spec)
print(record.failed)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
