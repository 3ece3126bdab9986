"""The ``service_mixed`` workload: the HTTP service over a worker queue.

``repro serve --backend distributed`` and one ``repro worker`` run as
subprocesses sharing a queue directory and a run store.  Two
closed-loop client threads in this process each send ``wait=1``
submissions, the next only after the previous one returned.  Three of
every four are hits: 1-cell fleets whose job records were written to
the shared store in set-up.  The fourth is a miss: a 2-cell fleet at a
seed no run has used, so it travels HTTP, the service queue, the
queue-file transport to the worker, the engine and back, through the
20 ms server, 20 ms submitter and 50 ms worker poll loops.

Served records are fetched after the window and compared with digests
of inline uncached runs.  With tracing on, the subprocesses start
through ``launch.py`` so their layers are timed too.
"""

from __future__ import annotations

import json
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    Outcome,
    UNATTRIBUTED_TOLERANCE,
    calibrated,
    children_cpu_s,
    host_speed,
    median,
    probe,
    result_digest,
    tail,
)

HERE = Path(__file__).resolve().parent

CA_DWELL = 15.0
#: Distinct warm 1-cell fleets the hits cycle through.
N_HITS = 8
#: Closed-loop client threads (at most the host's 2 cores).
N_CLIENTS = 2
#: Every MISS_EVERY-th submission of a client is a miss.
MISS_EVERY = 4
#: Shards per run the service publishes (one per miss cell).
SHARDS = 2
N_SETUPS = 3
#: Longest wait for a subprocess to announce itself or to exit.
PROCESS_WAIT_S = 60.0


def _assay(name: str, seed: int):
    from repro import api

    return api.AssaySpec(name=name, seed=seed,
                         chain=api.ChainSpec(seed=seed),
                         protocol=api.PanelProtocolSpec(ca_dwell=CA_DWELL))


def hit_fleets(seed: int) -> list:
    from repro import api

    first = 1_000_000 + 100 * seed
    return [api.FleetSpec(name=f"hit{k}",
                          assays=(_assay(f"hit{first + k}", first + k),))
            for k in range(N_HITS)]


def miss_fleet(seed: int, n: int):
    """The ``n``-th miss of the run: seeds offset by the workload seed,
    so no miss is warm within a run or in another run's store."""
    from repro import api

    first = 50_000_000 + 100_000 * seed + 2 * n
    return api.FleetSpec(name=f"miss{first}", assays=tuple(
        _assay(f"miss{first + j}", first + j) for j in range(2)))


class _Cluster:
    """One server and one worker over a fresh queue and store."""

    def __init__(self, work: Path, index: int, root: Path,
                 traced: bool) -> None:
        self.queue = work / f"queue{index}"
        self.store = work / f"store{index}"
        self.span_files = []
        self.log = open(work / f"cluster{index}.log", "w")
        self.procs = []
        for command in (["serve", "--backend", "distributed",
                         "--queue", str(self.queue),
                         "--store", str(self.store),
                         "--workers", str(SHARDS)],
                        ["worker", "--queue", str(self.queue),
                         "--store", str(self.store)]):
            if traced:
                spans = work / f"{command[0]}{index}.spans.json"
                self.span_files.append(spans)
                prefix = [sys.executable, str(HERE / "launch.py"), str(spans)]
            else:
                prefix = [sys.executable, "-m", "repro"]
            self.procs.append(subprocess.Popen(
                prefix + command, cwd=root, stdout=subprocess.PIPE,
                stderr=self.log, text=True))
        self.port = None

    def wait_ready(self) -> None:
        lines = [self._first_line(proc) for proc in self.procs]
        match = re.search(r"listening on http://[^:]+:(\d+)", lines[0])
        if match is None or not lines[1].startswith("repro worker: ready"):
            raise RuntimeError(f"service did not start: {lines!r}")
        self.port = int(match.group(1))

    @staticmethod
    def _first_line(proc) -> str:
        ready, _, _ = select.select([proc.stdout], [], [], PROCESS_WAIT_S)
        return proc.stdout.readline() if ready else ""

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.communicate(timeout=PROCESS_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        self.log.close()

    def spans(self, start: float, end: float) -> list[dict]:
        """The subprocesses' span records inside ``[start, end]``
        (``perf_counter`` is the system-wide monotonic clock on Linux,
        so the processes share one time axis)."""
        out = []
        for path in self.span_files:
            out.extend(r for r in json.loads(path.read_text())
                       if r["start"] >= start and r["end"] <= end)
        return out


def _setup(seed: int, work: Path, index: int, root: Path, traced: bool):
    from repro import api

    cluster = _Cluster(work, index, root, traced)
    try:
        # The subprocesses import while the store is warmed here.
        hits = hit_fleets(seed)
        together = api.FleetSpec(name="hits", assays=tuple(
            fleet.assays[0] for fleet in hits))
        reference = {record.spec_hash: result_digest(record.result)
                     for record in api.iter_results(together)}
        list(api.iter_results(together, store=api.RunStore(cluster.store)))
        cluster.wait_ready()
    except BaseException:
        cluster.stop()
        raise
    return cluster, hits, reference


def _window(cluster, hits, seed: int, seconds: float, counter: list,
            tracer=None) -> dict:
    """Run the closed loop for ``seconds``, in rounds.

    In a round each client sends ``MISS_EVERY - 1`` hits and then one
    miss, each after the previous reply; a barrier starts the clients'
    rounds together, so every round carries the same mix of work and
    its wall and CPU time (this process plus the server and worker) are
    well defined.  A host probe runs before each round starts.  Returns
    every request and every round.
    """
    from repro.errors import ReproError
    from repro.service import ServiceClient

    requests: list[tuple] = []
    errors: list[BaseException] = []
    # (time, cpu) as the previous round ends, the probe, then (time, cpu)
    # as the next round starts
    marks: list[tuple] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def clock() -> tuple[float, float]:
        return (time.perf_counter(),
                time.process_time() + children_cpu_s(cluster.pids))

    def mark() -> None:
        try:
            end = clock()
            probe_s = probe()
            marks.append((*end, probe_s, *clock()))
        except BaseException as exc:  # breaks the barrier; surfaced below
            errors.append(exc)
            raise

    barrier = threading.Barrier(N_CLIENTS, action=mark)

    def client_loop(k: int) -> None:
        client = ServiceClient(cluster.port, api_key=f"client{k}")
        try:
            while True:
                barrier.wait()
                if marks[-1][0] >= deadline:
                    return
                with lock:
                    n = counter[0]
                    counter[0] += 1
                plan = [(hits[(k * 3 + n + i) % N_HITS], "hit")
                        for i in range(MISS_EVERY - 1)]
                plan.append((miss_fleet(seed, n), "miss"))
                for fleet, kind in plan:
                    start = time.perf_counter()
                    try:
                        if tracer is not None:
                            with tracer.span("bench.request", "bench"):
                                status = client.submit(fleet, wait=True)
                        else:
                            status = client.submit(fleet, wait=True)
                        ok = status.get("status") == "done"
                        job_id = status.get("id")
                    except (ReproError, OSError):
                        ok, job_id = False, None
                    latency = time.perf_counter() - start
                    with lock:
                        requests.append((kind, latency, ok, job_id, fleet,
                                         len(marks) - 1))
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    rounds = []
    for index in range(len(marks) - 1):
        done = sum(len(r[4].assays) for r in requests
                   if r[2] and r[5] == index)
        rounds.append({"wall_s": marks[index + 1][0] - marks[index][3],
                       "cpu_s": marks[index + 1][1] - marks[index][4],
                       "probe_s": marks[index][2],
                       "assays": done})
    return {"requests": requests, "rounds": rounds,
            "start": marks[0][3], "end": marks[-1][0],
            "assays": sum(r["assays"] for r in rounds)}


def _verify(outcome: Outcome, cluster, window: dict, reference: dict) -> None:
    """Fetch every served record and compare it with the reference."""
    from repro import api
    from repro.errors import ReproError
    from repro.io.export import panel_result_from_payload
    from repro.service import ServiceClient

    misses = [r[4] for r in window["requests"] if r[0] == "miss"]
    if misses:
        together = api.FleetSpec(name="misses", assays=tuple(
            assay for fleet in misses for assay in fleet.assays))
        reference = dict(reference)
        reference.update({record.spec_hash: result_digest(record.result)
                          for record in api.iter_results(together)})
    client = ServiceClient(cluster.port, api_key="verify")
    for kind, _, ok, job_id, fleet, _ in window["requests"]:
        n = len(fleet.assays)
        if not ok:
            outcome.check(False, n)
            continue
        try:
            wires = client.records(job_id)
        except (ReproError, OSError):
            outcome.check(False, n)
            continue
        served = {wire["provenance"]["spec_hash"]:
                  result_digest(panel_result_from_payload(wire["samples"]))
                  for wire in wires}
        for assay in fleet.assays:
            key = api.JobKey.for_assay(assay).digest
            outcome.check(key in reference
                          and served.get(key) == reference[key])


def _latencies(window: dict) -> dict:
    out = {}
    for kind in ("hit", "miss"):
        values = [r[1] for r in window["requests"] if r[0] == kind and r[2]]
        out[f"{kind}_latency_p50_s"] = {"value": median(values), "unit": "s",
                                        "samples": len(values)}
        out[f"{kind}_latency_tail_s"] = tail(values)
    return out


def _rates(window: dict) -> tuple[float, float]:
    """Throughput and CPU per assay, calibrated medians over rounds
    (``common.calibrated``)."""
    rounds = [r for r in window["rounds"] if r["assays"]]
    if not rounds:
        return 0.0, 0.0
    probes = [r["probe_s"] for r in rounds]
    return (1.0 / calibrated([r["wall_s"] / r["assays"] for r in rounds],
                             probes),
            calibrated([r["cpu_s"] / r["assays"] for r in rounds], probes))


def _stored_bytes_per_assay(cluster) -> float:
    from repro import api

    stats = api.RunStore(cluster.store).stats()
    return stats.bytes / max(stats.records, 1)


def run(seed: int, seconds: float, traced: bool, work: Path,
        root: Path) -> Outcome:
    outcome = Outcome()
    counter = [0]
    setup_times, setup_probes = [], []
    cluster = None
    for index in range(1 if traced else N_SETUPS):
        if cluster is not None:
            cluster.stop()
        setup_probes.append(probe())
        start = time.perf_counter()
        cluster, hits, reference = _setup(seed, work, index, root, False)
        setup_times.append(time.perf_counter() - start)
    try:
        window = _window(cluster, hits, seed,
                         seconds / 2 if traced else seconds, counter)
        _verify(outcome, cluster, window, reference)
        stored = _stored_bytes_per_assay(cluster)
    finally:
        cluster.stop()

    assays_per_s, cpu_per_assay = _rates(window)
    wall = sum(r["wall_s"] for r in window["rounds"])
    report = {"requests": len(window["requests"]),
              "rounds": len(window["rounds"]),
              "assays": window["assays"],
              "clients": N_CLIENTS, "loop": "closed, barrier per round",
              "wall_s": wall,
              "mean_assays_per_s": {"value": window["assays"] / wall,
                                    "unit": "1/s",
                                    "base": "raw, not calibrated"},
              "host_speed": {"value": host_speed(
                  [r["probe_s"] for r in window["rounds"]]), "unit": "ratio",
                  "base": "common.PROBE_REFERENCE_S"},
              "median_cpu_s_per_assay": {"value": median(
                  [r["cpu_s"] / r["assays"] for r in window["rounds"]
                   if r["assays"]]), "unit": "s",
                  "base": "raw, not calibrated"},
              "stored_bytes_per_assay": {"value": stored, "unit": "bytes"},
              **_latencies(window)}
    if not traced:
        outcome.metrics = {"assays_per_s": assays_per_s,
                           "cpu_s_per_assay": cpu_per_assay,
                           "setup_s": calibrated(setup_times, setup_probes)}
        outcome.report = report
        return outcome

    from repro import api
    from spans import Tracer, install, layer_metrics, reconcile

    cluster, hits, reference = _setup(seed, work, N_SETUPS, root, True)
    tracer = Tracer()
    try:
        before = api.RunStore(cluster.store).stats()
        install(tracer)
        try:
            traced_window = _window(cluster, hits, seed, seconds / 2,
                                    counter, tracer)
        finally:
            tracer.uninstall()
        after = api.RunStore(cluster.store).stats()
        _verify(outcome, cluster, traced_window, reference)
    finally:
        cluster.stop()
    own = [r for r in tracer.records() if r["rooted"]]
    records = own + cluster.spans(traced_window["start"],
                                  traced_window["end"])
    n = max(traced_window["assays"], 1)
    metrics = layer_metrics(records, n)
    metrics["store.lock_waits"] = (after.lock_waits - before.lock_waits) / n
    metrics["store.quarantined"] = (after.quarantined
                                    - before.quarantined) / n
    wall_root, attributed, unattributed = reconcile(own)
    metrics["trace.unattributed_s"] = unattributed / n
    metrics["trace.unattributed_share"] = unattributed / wall_root
    metrics["trace.overhead_ratio"] = assays_per_s / _rates(traced_window)[0]
    report["trace"] = {"wall_s": wall_root, "attributed_s": attributed,
                       "unattributed_s": unattributed,
                       "tolerance_share": UNATTRIBUTED_TOLERANCE,
                       "note": "wall is client thread-seconds; server and "
                               "worker layers are reported beside it"}
    if unattributed / wall_root > UNATTRIBUTED_TOLERANCE:
        outcome.correct = False
        report["trace"]["error"] = "unattributed share above tolerance"
    outcome.metrics = metrics
    outcome.report = report
    return outcome
