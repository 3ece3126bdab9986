"""E1 — engine throughput: scalar per-channel loop vs batched engine.

Every protocol bottoms out in "advance M diffusion systems one dt"; this
bench measures that inner loop on an 8-channel panel workload (eight CYP
substrate channels, i.e. sixteen coupled diffusion fields — one cyclic
voltammetry sweep's worth of chemistry for a full Fig. 4 panel chip).

Four implementations run the identical potential program:

- **seed scalar** — the seed's solver: one channel at a time, each step
  performing two ``thomas_solve`` calls that re-derive the elimination
  coefficients in a pure-Python recurrence (the pre-engine hot path);
- **prefactored scalar** — today's ``_RedoxChannelSimulator.step``,
  which reuses the stepper's one-time factorization but still loops
  over channels in Python;
- **batched** — :class:`repro.engine.redox.RedoxChannelBatch`, stepped
  once per sample: all 2M fields advance in one prefactored batched
  solve;
- **segment** — :meth:`RedoxChannelBatch.run` over the whole program:
  one compiled ``redox_segment`` call when the kernel is loaded (the
  per-step loop otherwise), the path the fleet scheduler takes.

All four produce bit-identical currents (pinned in
``tests/test_engine.py``; the segment's fluxes are asserted equal to
the step loop's here too); the acceptance bar is >= 5x steps/sec for
the batched engine over the seed scalar solver.

A second axis measures **cross-cell CV fusion** (PR 6): a fleet of
``N_FUSED_SWEEPS`` cells each running the same 8-channel sweep, executed
as (a) one batched engine per sweep, sequentially — the pre-fusion
fleet's cost profile — and (b) all sweeps' channels stacked into one
engine driven by per-system potential programs, exactly what
:class:`repro.engine.scheduler.SweepBatch` builds.  Acceptance: the
fused pass delivers >= 2x total sweep-steps/sec over per-sweep batched,
at bit-identical fluxes.  Each side's time is the median of
``TIMED_PASSES`` passes, alternating which side runs first, because
one pass of a few hundred ms swings with host noise; the spread of the
passes is reported beside the medians.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro.chem import constants as C
from repro.chem.diffusion import thomas_solve
from repro.chem.enzymes import CypSubstrateChannel, CytochromeP450, ProstheticGroup
from repro.chem.redox import ButlerVolmerKinetics, RedoxCouple
from repro.chem.solution import Chamber
from repro.data.catalog import CYP_BASE_K0
from repro.electronics.waveform import TriangleWaveform, uniform_sample_times
from repro.engine import tridiag
from repro.engine.redox import RedoxChannelBatch
from repro.io.tables import render_table
from repro.measurement.voltammetry import build_channel_simulators
from repro.sensors.cell import ElectrochemicalCell
from repro.sensors.electrode import Electrode, ElectrodeRole, WorkingElectrode
from repro.sensors.functionalization import with_cytochrome
from repro.sensors.materials import get_material

N_CHANNELS = 8
SAMPLE_RATE = 10.0
SCAN_RATE = 0.02
N_FUSED_SWEEPS = 8
#: Timed passes per side of the fusion axis (and of the segment row).
TIMED_PASSES = 7

#: Eight electroactive drugs with registered diffusivities — one channel
#: per panel electrode, spread across the sweep window.
_SUBSTRATES = ("benzphetamine", "aminopyrine", "bupropion", "clozapine",
               "cyclophosphamide", "diclofenac", "erythromycin", "etoposide")


def build_panel_channels():
    """The 8-channel workload: one WE carrying every panel channel."""
    channels = tuple(
        CypSubstrateChannel(
            substrate,
            ButlerVolmerKinetics(
                RedoxCouple(substrate, -0.15 - 0.05 * k, 2),
                k0=CYP_BASE_K0),
            efficiency=0.08, km=20.0)
        for k, substrate in enumerate(_SUBSTRATES))
    probe = CytochromeP450(
        name="panel8", display_name="8-channel panel probe",
        prosthetic_group=ProstheticGroup.HEME, channels=channels)
    we = WorkingElectrode(
        electrode=Electrode(name="WE_panel", role=ElectrodeRole.WORKING,
                            material=get_material("rhodium_graphite"),
                            area=7.0e-6),
        functionalization=with_cytochrome(probe))
    chamber = Chamber(name="panel")
    for substrate in _SUBSTRATES:
        chamber.set_bulk(substrate, 1.0)
    reference = Electrode(name="RE", role=ElectrodeRole.REFERENCE,
                          material=get_material("silver"), area=we.area)
    counter = Electrode(name="CE", role=ElectrodeRole.COUNTER,
                        material=get_material("gold"), area=2.0 * we.area)
    cell = ElectrochemicalCell(chamber=chamber, working_electrodes=[we],
                               reference=reference, counter=counter)
    waveform = TriangleWaveform(e_start=0.0, e_vertex=-0.7,
                                scan_rate=SCAN_RATE)
    potentials = waveform.value(
        uniform_sample_times(waveform.duration, SAMPLE_RATE))

    def make_sims():
        return build_channel_simulators(we, cell.chamber,
                                        1.0 / SAMPLE_RATE,
                                        waveform.duration)

    return make_sims, potentials


def _seed_step(sim, e_applied: float) -> float:
    """The seed's ``_RedoxChannelSimulator.step``, verbatim.

    Re-derives the elimination coefficients on every ``thomas_solve``
    call — the cost profile this PR's engine replaced.
    """
    solver = sim.solver
    lower, diag, upper = solver.implicit_coefficients
    f = C.F_OVER_RT
    x = sim.n * f * (e_applied - sim.e_formal)
    x = min(max(x, -500.0), 500.0)
    kf = sim.k0 * math.exp(-sim.alpha * x)
    kb = sim.k0 * math.exp((1.0 - sim.alpha) * x)
    u_ox = thomas_solve(lower, diag, upper, solver.explicit_rhs(sim.c_ox))
    u_red = thomas_solve(lower, diag, upper, solver.explicit_rhs(sim.c_red))
    s = solver.surface_source_scale
    w = solver.surface_response()
    denominator = 1.0 + s * float(w[0]) * (kf + kb)
    flux = (kf * float(u_ox[0]) - kb * float(u_red[0])) / denominator
    sim.c_ox = np.clip(u_ox - flux * s * w, 0.0, None)
    sim.c_red = np.clip(u_red + flux * s * w, 0.0, None)
    return flux


def seed_steps_per_sec(make_sims, potentials) -> tuple[float, np.ndarray]:
    """The seed inner loop: per-channel thomas_solve stepping."""
    sims = make_sims()
    fluxes = np.empty((potentials.size, len(sims)))
    start = time.perf_counter()
    for k in range(potentials.size):
        e = float(potentials[k])
        for j, sim in enumerate(sims):
            fluxes[k, j] = _seed_step(sim, e)
    elapsed = time.perf_counter() - start
    return potentials.size / elapsed, fluxes


def scalar_steps_per_sec(make_sims, potentials) -> tuple[float, np.ndarray]:
    """Today's scalar path: prefactored, still per-channel Python."""
    sims = make_sims()
    fluxes = np.empty((potentials.size, len(sims)))
    start = time.perf_counter()
    for k in range(potentials.size):
        e = float(potentials[k])
        for j, sim in enumerate(sims):
            fluxes[k, j] = sim.step(e)
    elapsed = time.perf_counter() - start
    return potentials.size / elapsed, fluxes


def step_sweep(batch: RedoxChannelBatch, potentials) -> np.ndarray:
    """Drive ``batch`` through the potential program, one step per
    sample; return the ``(n_samples, M)`` fluxes."""
    fluxes = np.empty((potentials.size, batch.batch_size))
    for k in range(potentials.size):
        fluxes[k] = batch.step(float(potentials[k]))
    return fluxes


def batched_steps_per_sec(make_sims, potentials) -> tuple[float, np.ndarray]:
    """The engine inner loop: one batched solve per sample."""
    batch = RedoxChannelBatch(make_sims())
    start = time.perf_counter()
    fluxes = step_sweep(batch, potentials)
    elapsed = time.perf_counter() - start
    return potentials.size / elapsed, fluxes


def segment_steps_per_sec(make_sims, potentials,
                          passes: int = TIMED_PASSES
                          ) -> tuple[float, np.ndarray]:
    """One :meth:`RedoxChannelBatch.run` call per pass over the whole
    program; the median pass sets the rate."""
    program = np.ascontiguousarray(np.broadcast_to(
        potentials[:, None], (potentials.size, N_CHANNELS)))
    elapsed = []
    for _ in range(passes):
        batch = RedoxChannelBatch(make_sims())
        start = time.perf_counter()
        fluxes = batch.run(program)
        elapsed.append(time.perf_counter() - start)
    return potentials.size / statistics.median(elapsed), fluxes


def _per_sweep_pass(make_sims, potentials, n_sweeps):
    batches = [RedoxChannelBatch(make_sims()) for _ in range(n_sweeps)]
    start = time.perf_counter()
    fluxes = [step_sweep(batch, potentials) for batch in batches]
    return time.perf_counter() - start, fluxes


def _fused_pass(make_sims, potentials, n_sweeps):
    channels = [sim for _ in range(n_sweeps) for sim in make_sims()]
    fused = RedoxChannelBatch(channels)
    programs = np.broadcast_to(
        potentials, (len(channels), potentials.size))
    fluxes = np.empty((potentials.size, len(channels)))
    start = time.perf_counter()
    for k in range(potentials.size):
        fluxes[k] = fused.step(programs[:, k])
    return time.perf_counter() - start, fluxes


def fusion_rates(make_sims, potentials, n_sweeps: int = N_FUSED_SWEEPS,
                 passes: int = TIMED_PASSES) -> dict:
    """Per-sweep batched engines vs one cross-sweep fused engine.

    Both passes advance ``n_sweeps`` copies of the panel sweep; the
    fused pass drives a single engine with a per-system potential
    program, the same shape :class:`~repro.engine.scheduler.SweepBatch`
    compiles for a fleet's CV group.  Each side runs ``passes`` times,
    alternating which goes first, and is timed by its median pass.
    """
    runs = {"per_sweep": _per_sweep_pass, "fused": _fused_pass}
    times = {side: [] for side in runs}
    outputs = {}
    for i in range(passes):
        for side in (list(runs) if i % 2 == 0 else list(runs)[::-1]):
            elapsed, outputs[side] = runs[side](make_sims, potentials,
                                                n_sweeps)
            times[side].append(elapsed)
    per_sweep, fluxes = outputs["per_sweep"], outputs["fused"]
    scale = float(np.max(np.abs(per_sweep[0])))
    deviation = max(
        float(np.max(np.abs(fluxes[:, j * N_CHANNELS:(j + 1) * N_CHANNELS]
                            - per_sweep[j])))
        for j in range(n_sweeps)) / scale
    total_steps = n_sweeps * potentials.size
    sequential_elapsed = statistics.median(times["per_sweep"])
    fused_elapsed = statistics.median(times["fused"])
    return {"n_sweeps": n_sweeps,
            "fusion_passes": passes,
            "per_sweep_rate": total_steps / sequential_elapsed,
            "fused_rate": total_steps / fused_elapsed,
            "per_sweep_rate_range": [total_steps / max(times["per_sweep"]),
                                     total_steps / min(times["per_sweep"])],
            "fused_rate_range": [total_steps / max(times["fused"]),
                                 total_steps / min(times["fused"])],
            "fusion_speedup": sequential_elapsed / fused_elapsed,
            "fusion_deviation": deviation}


def run_experiment() -> dict:
    make_sims, potentials = build_panel_channels()
    # Warm-up pass (allocators, caches) before the timed runs.
    batched_steps_per_sec(make_sims, potentials[:50])
    scalar_steps_per_sec(make_sims, potentials[:50])
    seed_rate, seed_fluxes = seed_steps_per_sec(make_sims, potentials)
    scalar_rate, scalar_fluxes = scalar_steps_per_sec(make_sims, potentials)
    batched_rate, batched_fluxes = batched_steps_per_sec(
        make_sims, potentials)
    segment_rate, segment_fluxes = segment_steps_per_sec(
        make_sims, potentials)
    scale = float(np.max(np.abs(seed_fluxes)))
    deviation = float(max(np.max(np.abs(batched_fluxes - seed_fluxes)),
                          np.max(np.abs(scalar_fluxes - seed_fluxes))))
    fusion = fusion_rates(make_sims, potentials)
    return {"n_steps": int(potentials.size),
            "seed_rate": seed_rate,
            "scalar_rate": scalar_rate,
            "batched_rate": batched_rate,
            "segment_rate": segment_rate,
            "segment_matches_steps": bool(
                np.array_equal(segment_fluxes, batched_fluxes)),
            "speedup": batched_rate / seed_rate,
            "relative_deviation": deviation / scale,
            **fusion}


def test_engine_throughput(benchmark, report, json_report):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    segment_label = ("RedoxChannelBatch.run (compiled segment)"
                     if tridiag.kernel_loaded()
                     else "RedoxChannelBatch.run (step loop, no kernel)")
    json_report("engine", {
        "bench": "engine_throughput",
        "workload": f"{N_CHANNELS}-channel panel sweep",
        "n_steps": out["n_steps"],
        "steps_per_sec": {"seed_scalar": out["seed_rate"],
                          "prefactored_scalar": out["scalar_rate"],
                          "batched_engine": out["batched_rate"],
                          "segment_run": out["segment_rate"]},
        "segment_kernel_loaded": tridiag.kernel_loaded(),
        "segment_matches_step_loop": out["segment_matches_steps"],
        "speedup_vs_seed": out["speedup"],
        "max_relative_deviation": out["relative_deviation"],
        "cv_fusion": {
            "n_sweeps": out["n_sweeps"],
            "passes_per_side": out["fusion_passes"],
            "per_sweep_steps_per_sec": out["per_sweep_rate"],
            "fused_steps_per_sec": out["fused_rate"],
            "per_sweep_steps_per_sec_range": out["per_sweep_rate_range"],
            "fused_steps_per_sec_range": out["fused_rate_range"],
            "fusion_speedup": out["fusion_speedup"],
            "max_relative_deviation": out["fusion_deviation"]},
        "acceptance": {"min_speedup": 5.0, "max_deviation": 1.0e-12,
                       "min_fusion_speedup": 2.0},
    })
    report(render_table(
        ["implementation", "steps/sec"],
        [["seed scalar (thomas_solve loop)", f"{out['seed_rate']:.0f}"],
         ["prefactored scalar loop", f"{out['scalar_rate']:.0f}"],
         ["batched RedoxChannelBatch", f"{out['batched_rate']:.0f}"],
         [segment_label, f"{out['segment_rate']:.0f}"]],
        title=(f"E1 | {N_CHANNELS}-channel panel sweep, "
               f"{out['n_steps']} samples")))
    report(f"speedup vs seed          : {out['speedup']:.1f}x  "
           f"(acceptance: >= 5x)")
    report(f"max relative deviation   : {out['relative_deviation']:.2e}  "
           f"(acceptance: <= 1e-12)")
    report(f"segment == step loop     : {out['segment_matches_steps']}  "
           f"(acceptance: bitwise)")

    def spread(low, high):
        return f"{low:.0f}-{high:.0f}"

    report(render_table(
        ["pass", "sweep-steps/sec (median)", "range"],
        [["per-sweep batched, sequential", f"{out['per_sweep_rate']:.0f}",
          spread(*out["per_sweep_rate_range"])],
         ["cross-sweep fused engine", f"{out['fused_rate']:.0f}",
          spread(*out["fused_rate_range"])]],
        title=(f"E1b | {out['n_sweeps']}x {N_CHANNELS}-channel sweeps "
               f"(cross-cell CV fusion, {out['fusion_passes']} "
               f"alternating passes a side)")))
    report(f"fusion speedup           : {out['fusion_speedup']:.1f}x  "
           f"(acceptance: >= 2x)")
    report(f"fusion deviation         : {out['fusion_deviation']:.2e}  "
           f"(acceptance: <= 1e-12)")

    # The batched engine must agree with the seed path and beat it, and
    # the segment run must reproduce the step loop bit for bit.
    assert out["relative_deviation"] <= 1.0e-12
    assert out["speedup"] >= 5.0
    assert out["segment_matches_steps"]
    # Cross-cell fusion must beat per-sweep batched engines and stay
    # bit-compatible with them.
    assert out["fusion_deviation"] <= 1.0e-12
    assert out["fusion_speedup"] >= 2.0
