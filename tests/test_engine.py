"""The batched simulation engine: factorization, batching, equivalence.

The engine's contract is that the batched path reproduces the scalar
reference path bit for bit, so protocols could adopt it without moving
any bench result.  These tests pin that contract at every layer: raw
tridiagonal solves, stacked Crank-Nicolson stepping (including mass
conservation under sealed boundaries), the redox-channel batch behind
CV/DPV, the mechanism batch behind chronoamperometry, and the CV, DPV
and chronoamperometry protocols against their scalar sample loops.

The Thomas solves run in a compiled kernel when one loads and in a
Python-float sweep otherwise.  The solver, Crank-Nicolson and protocol
classes run once per path: each ``*Fallback`` subclass reruns its
parent's tests with the kernel handle patched out.
"""

from __future__ import annotations

import copy
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chem import constants as C
from repro.chem.diffusion import CrankNicolsonDiffusion, Grid1D, thomas_solve
from repro.chem.solution import InjectionSchedule
from repro.electronics.waveform import TriangleWaveform, uniform_sample_times
from repro.engine import (
    BatchCrankNicolson,
    MechanismBatch,
    RedoxChannelBatch,
    batch_thomas_solve,
    factor_tridiagonal,
    factor_tridiagonal_shared,
)
from repro.engine import tridiag
from repro.errors import SimulationError
from repro.measurement.chronoamperometry import (
    Chronoamperometry,
    build_mechanisms,
    initial_mechanism_current,
    refresh_mechanisms,
    static_current,
)
from repro.measurement.pulse_voltammetry import DifferentialPulseVoltammetry
from repro.measurement.voltammetry import (
    CyclicVoltammetry,
    build_channel_simulators,
)


#: Stacked-system counts the parity tests run: a lone system, the 6
#: distinct rows of a fused panel group, neighbours of both, and a
#: large fused batch.
PARITY_SIZES = (1, 3, 6, 7, 12, 13, 128)


@pytest.fixture(autouse=True)
def _solve_path(request, monkeypatch):
    """Run a test class on the solve path its ``solve_path`` names."""
    path = getattr(request.cls, "solve_path", None)
    if path == "fallback":
        monkeypatch.setattr(tridiag, "_KERNEL", None)
    elif path == "kernel" and not tridiag.kernel_loaded():
        pytest.skip("the compiled Thomas kernel did not load")


def random_dominant_system(rng, n):
    """A strictly diagonally dominant tridiagonal system."""
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    return lower, diag, upper, rhs


def random_batch(rng, m, n):
    """``m`` stacked random dominant systems of ``n`` nodes."""
    lower = np.empty((m, n - 1))
    diag = np.empty((m, n))
    upper = np.empty((m, n - 1))
    rhs = np.empty((m, n))
    for j in range(m):
        lower[j], diag[j], upper[j], rhs[j] = random_dominant_system(rng, n)
    return lower, diag, upper, rhs


class TestFactorization:
    solve_path = "kernel"

    def test_prefactored_solve_matches_thomas_bitwise(self):
        rng = np.random.default_rng(7)
        for n in (3, 7, 40, 121):
            lower, diag, upper, rhs = random_dominant_system(rng, n)
            expected = thomas_solve(lower, diag, upper, rhs)
            factor = factor_tridiagonal(lower, diag, upper)
            out = factor.solve(rhs)
            assert np.array_equal(out, expected)
            # The factorization is reusable: a second rhs, same matrix.
            rhs2 = rng.uniform(-1.0, 1.0, n)
            assert np.array_equal(factor.solve(rhs2),
                                  thomas_solve(lower, diag, upper, rhs2))

    @pytest.mark.parametrize("m", sorted({*range(1, 14), *PARITY_SIZES}))
    def test_batched_solve_matches_scalar_per_system(self, m):
        # The contract is <= 1e-12 relative, the implementation is exact.
        rng = np.random.default_rng(m)
        lower, diag, upper, rhs = random_batch(rng, m, 35)
        out = batch_thomas_solve(lower, diag, upper, rhs)
        for j in range(m):
            expected = thomas_solve(lower[j], diag[j], upper[j], rhs[j])
            np.testing.assert_allclose(out[j], expected, rtol=1e-12, atol=0.0)
            assert np.array_equal(out[j], expected)

    def test_tile_duplicates_the_batch(self):
        rng = np.random.default_rng(3)
        lower, diag, upper, rhs = random_dominant_system(rng, 9)
        tiled = factor_tridiagonal(lower, diag, upper).tile(3)
        assert tiled.batch_shape == (3,)
        out = tiled.solve(np.stack([rhs, 2.0 * rhs, rhs]))
        base = thomas_solve(lower, diag, upper, rhs)
        assert np.array_equal(out[0], base)
        assert np.array_equal(out[2], base)

    def test_pickled_factorization_solves_bit_identically(self):
        rng = np.random.default_rng(21)
        lower, diag, upper, rhs = random_batch(rng, 6, 45)
        factor = factor_tridiagonal(lower, diag, upper)
        clone = pickle.loads(pickle.dumps(factor))
        assert np.array_equal(clone.solve(rhs), factor.solve(rhs))
        assert np.array_equal(clone.tile(2).solve(np.vstack([rhs, rhs])),
                              np.vstack([factor.solve(rhs)] * 2))

    def test_solve_leaves_strided_rhs_untouched(self):
        rng = np.random.default_rng(22)
        lower, diag, upper, rhs = random_batch(rng, 4, 30)
        factor = factor_tridiagonal(lower, diag, upper)
        expected = factor.solve(rhs)
        transposed = rhs.T.copy().T
        strided = np.repeat(rhs, 2, axis=1)[:, ::2]
        for view in (transposed, strided):
            before = view.copy()
            assert np.array_equal(factor.solve(view), expected)
            assert np.array_equal(view, before)
        assert np.array_equal(factor.solve(rhs.tolist()), expected)

    def test_coefficients_are_private_and_read_only(self):
        lower, diag, upper, _ = random_dominant_system(
            np.random.default_rng(23), 8)
        factor = factor_tridiagonal(lower, diag, upper)
        assert not factor.lower.flags.writeable
        assert not factor.denom.flags.writeable
        assert not np.shares_memory(factor.lower, lower)

    def test_zero_pivot_rejected(self):
        with pytest.raises(SimulationError, match="zero pivot"):
            factor_tridiagonal(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        factor = factor_tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
        with pytest.raises(SimulationError, match="shape"):
            factor.solve(np.ones(4))
        with pytest.raises(SimulationError):
            factor_tridiagonal(np.zeros(3), np.ones(3), np.zeros(2))
        # The kernel reads every band by the node count: a direct
        # construction with a short band must fail before any solve.
        with pytest.raises(SimulationError, match="inconsistent"):
            tridiag.TridiagonalFactorization(np.zeros(1), np.ones(3),
                                             np.zeros(2))


class TestFactorizationFallback(TestFactorization):
    solve_path = "fallback"


class TestSharedFactorization:
    """Deduplicated eliminations: (grid, D, dt)-identical systems."""

    solve_path = "kernel"

    def _banded_batch(self, m, n, rng, duplicates):
        lower, diag, upper, rhs = random_batch(rng, m, n)
        for dst, src in duplicates:
            lower[dst], diag[dst], upper[dst] = lower[src], diag[src], upper[src]
        return lower, diag, upper, rhs

    @pytest.mark.parametrize("m", sorted({*range(2, 15), *PARITY_SIZES[1:]}))
    def test_duplicate_rows_solve_bitwise(self, m):
        rng = np.random.default_rng(m + 40)
        # Rows 1 and m-1 duplicate row 0's matrix (rhs stays distinct).
        lower, diag, upper, rhs = self._banded_batch(
            m, 23, rng, duplicates=[(1, 0), (m - 1, 0)])
        out = factor_tridiagonal_shared(lower, diag, upper).solve(rhs)
        for j in range(m):
            assert np.array_equal(
                out[j], thomas_solve(lower[j], diag[j], upper[j], rhs[j]))

    def test_all_unique_rows_unchanged(self):
        rng = np.random.default_rng(77)
        lower, diag, upper, rhs = self._banded_batch(6, 17, rng, [])
        shared = factor_tridiagonal_shared(lower, diag, upper).solve(rhs)
        direct = factor_tridiagonal(lower, diag, upper).solve(rhs)
        assert np.array_equal(shared, direct)

    def test_one_dimensional_delegates(self):
        rng = np.random.default_rng(5)
        lower, diag, upper, rhs = random_dominant_system(rng, 12)
        out = factor_tridiagonal_shared(lower, diag, upper).solve(rhs)
        assert np.array_equal(out, thomas_solve(lower, diag, upper, rhs))

    def test_crank_nicolson_steppers_share_one_factorization(self):
        grid = Grid1D.uniform(5.0e-4, 40)
        st1 = CrankNicolsonDiffusion(grid, 6.7e-10, 0.1)
        st2 = CrankNicolsonDiffusion(Grid1D.uniform(5.0e-4, 40), 6.7e-10, 0.1)
        assert st1._operator.factor is st2._operator.factor
        # A different dt / diffusivity must not share.
        st3 = CrankNicolsonDiffusion(grid, 6.7e-10, 0.2)
        st4 = CrankNicolsonDiffusion(grid, 1.0e-9, 0.1)
        assert st3._operator.factor is not st1._operator.factor
        assert st4._operator.factor is not st1._operator.factor
        # Shared or not, the stepping arithmetic is untouched.
        c = np.linspace(1.0, 2.0, 40)
        assert np.array_equal(st1.step(c, 1.0e-8), st2.step(c, 1.0e-8))


class TestSharedFactorizationFallback(TestSharedFactorization):
    solve_path = "fallback"


class TestKernelBuild:
    """Building and loading the compiled sweep."""

    def test_missing_compiler_falls_back(self, tmp_path):
        assert tridiag.load_kernel(tmp_path,
                                   compiler=str(tmp_path / "no-cc")) is None
        assert list(tmp_path.iterdir()) == []

    def test_read_only_package_builds_privately(self, tmp_path,
                                                monkeypatch):
        # A package directory that cannot be written to gets a private
        # build, loaded and then removed; nothing lands in the package.
        package = tmp_path / "package"
        (package / "__pycache__").mkdir(parents=True)
        monkeypatch.setattr(tridiag, "__file__", str(package / "tridiag.py"))
        monkeypatch.setattr(tridiag.os, "access", lambda *args: False)
        kernel = tridiag.load_kernel()
        assert kernel is not None
        assert list((package / "__pycache__").iterdir()) == []
        rng = np.random.default_rng(24)
        lower, diag, upper, rhs = random_batch(rng, 3, 12)
        factor = factor_tridiagonal(lower, diag, upper)
        monkeypatch.setattr(tridiag, "_KERNEL", kernel)
        solved = factor.solve(rhs)
        monkeypatch.setattr(tridiag, "_KERNEL", None)
        assert np.array_equal(solved, factor.solve(rhs))

    def test_concurrent_builds_into_one_directory(self, tmp_path):
        # Two processes race to build into the same empty directory; the
        # atomic rename means both load a complete library.
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from repro.engine import tridiag\n"
            "kernel = tridiag.load_kernel(Path(sys.argv[1]))\n"
            "assert kernel is not None\n"
            "rng = np.random.default_rng(0)\n"
            "lo, up = rng.uniform(-1, 1, (2, 5, 19))\n"
            "factor = tridiag.factor_tridiagonal(lo, 3 + rng.random((5, 20)), up)\n"
            "rhs = rng.random((5, 20))\n"
            "tridiag._KERNEL = None\n"
            "expected = factor.solve(rhs)\n"
            "tridiag._KERNEL = kernel\n"
            "assert np.array_equal(factor.solve(rhs), expected)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path)], env=env,
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
    def test_build_removes_stale_libraries(self, tmp_path):
        # A build deletes libraries of other sources, flags or machines,
        # but never a concurrent builder's dot-prefixed temporary file
        # or anything else in the directory.
        stale = tmp_path / "_thomas-0000000000000000.so"
        stale.write_bytes(b"old")
        building = tmp_path / "._thomas-1111111111111111.so.tmp0"
        building.write_bytes(b"half")
        other = tmp_path / "notes.txt"
        other.write_text("keep")
        assert tridiag.load_kernel(tmp_path) is not None
        left = sorted(p.name for p in tmp_path.iterdir())
        assert stale.name not in left
        assert building.name in left and other.name in left
        built = [name for name in left if name.startswith("_thomas-")]
        assert len(built) == 1 and built[0].endswith(".so"), left
        # Loading an existing build removes nothing.
        stale.write_bytes(b"old")
        assert tridiag.load_kernel(tmp_path) is not None
        assert stale.exists()


def make_steppers(boundary="dirichlet", n_systems=3):
    """Steppers with deliberately different grids and diffusivities."""
    dt = 0.05
    specs = [(6.7e-10, Grid1D.expanding(1.0e-6, 8.0e-4, growth=1.10)),
             (2.0e-10, Grid1D.expanding(8.0e-7, 5.0e-4, growth=1.08)),
             (1.1e-9, Grid1D.uniform(6.0e-4, 45))]
    while len(specs) < n_systems:
        d = 1.0e-10 * (len(specs) + 2)
        specs.append((d, Grid1D.uniform(4.0e-4,
                                        30 + 3 * (len(specs) % 16))))
    return [CrankNicolsonDiffusion(grid, d, dt, bulk_boundary=boundary)
            for d, grid in specs[:n_systems]]


class TestBatchCrankNicolson:
    solve_path = "kernel"

    @pytest.mark.parametrize("n_systems", PARITY_SIZES)
    def test_batched_step_matches_scalar_steppers(self, n_systems):
        steppers = make_steppers(n_systems=n_systems)
        batch = BatchCrankNicolson(steppers)
        fields = [np.linspace(1.0, 2.0, st.grid.n_nodes) for st in steppers]
        state = batch.stack_states(fields)
        flux = 1.0e-8 * np.linspace(-0.5, 2.0, n_systems)
        for _ in range(50):
            state = batch.step(state, flux)
            fields = [st.step(c, float(f))
                      for st, c, f in zip(steppers, fields, flux)]
        for j, st in enumerate(steppers):
            assert np.array_equal(state[j, :st.grid.n_nodes], fields[j])
            # Padding stays decoupled and identically zero.
            assert np.all(state[j, st.grid.n_nodes:] == 0.0)

    @pytest.mark.parametrize("n_systems", PARITY_SIZES)
    def test_batched_linear_surface_matches_scalar(self, n_systems):
        steppers = make_steppers(n_systems=n_systems)
        batch = BatchCrankNicolson(steppers)
        fields = [np.full(st.grid.n_nodes, 2.0) for st in steppers]
        state = batch.stack_states(fields)
        a = 1.0e-7 * np.linspace(0.0, 1.0, n_systems)
        b = 1.0e-4 * np.linspace(0.0, 2.0, n_systems)
        for _ in range(40):
            state = batch.step_linear_surface(state, a, b)
            fields = [st.step_linear_surface(c, float(ai), float(bi))
                      for st, c, ai, bi in zip(steppers, fields, a, b)]
        for j, st in enumerate(steppers):
            assert np.array_equal(state[j, :st.grid.n_nodes], fields[j])

    def test_mass_conserved_under_batch_stepping_sealed(self):
        # Sealed boundaries (noflux bulk, zero surface flux): the batch
        # must conserve each system's mass to solver precision.
        steppers = make_steppers(boundary="noflux")
        batch = BatchCrankNicolson(steppers)
        rng = np.random.default_rng(11)
        fields = [1.0 + rng.uniform(0.0, 1.0, st.grid.n_nodes)
                  for st in steppers]
        state = batch.stack_states(fields)
        initial = batch.total_mass(state)
        for _ in range(200):
            state = batch.step(state)
        final = batch.total_mass(state)
        np.testing.assert_allclose(final, initial, rtol=1e-12)

    def test_mixed_dt_rejected(self):
        grid = Grid1D.uniform(1.0e-4, 12)
        st1 = CrankNicolsonDiffusion(grid, 1.0e-9, 0.1)
        st2 = CrankNicolsonDiffusion(grid, 1.0e-9, 0.2)
        with pytest.raises(SimulationError, match="share one time step"):
            BatchCrankNicolson([st1, st2])

    def test_stack_states_shape_mismatch_rejected(self):
        # The vectorised packer must keep the scalar path's validation:
        # wrong profile count and wrong per-system node counts both fail
        # loudly, naming the first offending system.
        steppers = make_steppers()
        batch = BatchCrankNicolson(steppers)
        fields = [np.zeros(st.grid.n_nodes) for st in steppers]
        with pytest.raises(SimulationError, match="profiles for"):
            batch.stack_states(fields[:-1])
        fields[1] = np.zeros(fields[1].size + 1)
        with pytest.raises(SimulationError, match="nodes, grid has"):
            batch.stack_states(fields)

    def test_profile_length_checked(self):
        batch = BatchCrankNicolson(make_steppers())
        with pytest.raises(SimulationError, match="nodes"):
            batch.stack_states([np.ones(3)] * 3)

    def test_padded_row_signs_zero_at_its_last_real_node(self):
        # The documented exception to bitwise parity: the last real node
        # of a padded row gets ``+ 0.0 * 0.0``, so a -0.0 there turns
        # into +0.0 where the scalar stepper keeps -0.0.  Every other
        # node, and every value, matches.
        short = CrankNicolsonDiffusion(Grid1D.uniform(4.0e-4, 20), 1e-9, 0.1)
        wide = CrankNicolsonDiffusion(Grid1D.uniform(6.0e-4, 30), 1e-9, 0.1)
        batch = BatchCrankNicolson([short, wide])
        fields = [np.full(20, -0.0), np.linspace(1.0, 2.0, 30)]
        rhs = batch.explicit_rhs(batch.stack_states(fields))
        scalar = [short.explicit_rhs(fields[0]), wide.explicit_rhs(fields[1])]
        assert np.array_equal(rhs[0, :20], scalar[0])
        assert np.all(np.signbit(scalar[0]))
        assert np.all(np.signbit(rhs[0, :19])) and not np.signbit(rhs[0, 19])
        assert rhs[1].tobytes() == scalar[1].tobytes()
        # A bulk node holding max(bulk, 0.0) = +0.0 keeps its bits.
        fields[0] = np.concatenate([np.full(19, -0.0), [0.0]])
        rhs = batch.explicit_rhs(batch.stack_states(fields))
        assert rhs[0, :20].tobytes() == short.explicit_rhs(fields[0]).tobytes()


class TestBatchCrankNicolsonFallback(TestBatchCrankNicolson):
    solve_path = "fallback"


def make_panel_channel_sims(n_channels=8, dt=0.1, duration=70.0):
    """An n-channel CYP workload (the bench's panel shape): 2n fields."""
    from repro.chem.enzymes import (CypSubstrateChannel, CytochromeP450,
                                    ProstheticGroup)
    from repro.chem.redox import ButlerVolmerKinetics, RedoxCouple
    from repro.chem.solution import Chamber
    from repro.sensors.electrode import (Electrode, ElectrodeRole,
                                         WorkingElectrode)
    from repro.sensors.functionalization import with_cytochrome
    from repro.sensors.materials import get_material

    substrates = ("benzphetamine", "aminopyrine", "bupropion", "clozapine",
                  "cyclophosphamide", "diclofenac", "erythromycin",
                  "etoposide")[:n_channels]
    channels = tuple(
        CypSubstrateChannel(
            s, ButlerVolmerKinetics(RedoxCouple(s, -0.15 - 0.05 * k, 2),
                                    k0=1.2e-4),
            efficiency=0.08, km=20.0)
        for k, s in enumerate(substrates))
    probe = CytochromeP450(name="panel_test", display_name="panel test",
                           prosthetic_group=ProstheticGroup.HEME,
                           channels=channels)
    we = WorkingElectrode(
        electrode=Electrode(name="WEp", role=ElectrodeRole.WORKING,
                            material=get_material("rhodium_graphite"),
                            area=7.0e-6),
        functionalization=with_cytochrome(probe))
    chamber = Chamber(name="panel_test")
    for s in substrates:
        chamber.set_bulk(s, 1.0)
    return build_channel_simulators(we, chamber, dt, duration)


class TestRedoxChannelBatch:
    def _sims(self, cyp_cell, dt=0.1, duration=70.0):
        we = cyp_cell.working_electrode("WE4")
        return build_channel_simulators(we, cyp_cell.chamber, dt, duration)

    def test_eight_channel_batch_matches_scalar(self):
        # 16 stacked systems, the same shape the bench's acceptance
        # criterion runs on.
        scalar = make_panel_channel_sims()
        batched = RedoxChannelBatch(make_panel_channel_sims())
        assert 2 * batched.batch_size == 16
        for e in np.linspace(0.0, -0.7, 200):
            fluxes = batched.step(float(e))
            expected = np.asarray([sim.step(float(e)) for sim in scalar])
            assert np.array_equal(fluxes, expected)

    def test_fluxes_match_scalar_simulators(self, cyp_cell):
        scalar = self._sims(cyp_cell)
        batched = RedoxChannelBatch(self._sims(cyp_cell))
        potentials = np.linspace(0.0, -0.7, 300)
        for e in potentials:
            fluxes = batched.step(float(e))
            expected = [sim.step(float(e)) for sim in scalar]
            assert np.array_equal(fluxes, np.asarray(expected))

    def test_sync_back_restores_profiles(self, cyp_cell):
        scalar = self._sims(cyp_cell)
        batched = RedoxChannelBatch(self._sims(cyp_cell))
        for e in np.linspace(0.0, -0.5, 40):
            batched.step(float(e))
            for sim in scalar:
                sim.step(float(e))
        batched.sync_back()
        for ref, mirrored in zip(scalar, batched.channels):
            assert np.array_equal(mirrored.c_ox, ref.c_ox)
            assert np.array_equal(mirrored.c_red, ref.c_red)

    def test_clipped_exponent_matches_scalar(self, cyp_cell):
        # |E - E0| beyond ~6.4 V drives |n F/RT (E - E0)| past the +-500
        # clip on both sides; then back through the ordinary window.
        scalar = self._sims(cyp_cell)
        batched = RedoxChannelBatch(self._sims(cyp_cell))
        potentials = np.concatenate([np.linspace(-10.0, 10.0, 81),
                                     np.linspace(0.3, -0.7, 400)])
        for e in potentials:
            fluxes = batched.step(float(e))
            expected = [sim.step(float(e)) for sim in scalar]
            assert np.array_equal(fluxes, np.asarray(expected))

    @pytest.mark.parametrize("panel", [False, True])
    def test_per_channel_potentials_match_scalar(self, cyp_cell, panel):
        # Each channel follows its own potential program, as in a fused
        # SweepBatch: 2 channels (4 systems) or the 8-channel panel (16).
        if panel:
            scalar, channels = (make_panel_channel_sims(),
                                make_panel_channel_sims())
        else:
            scalar, channels = self._sims(cyp_cell), self._sims(cyp_cell)
        batched = RedoxChannelBatch(channels)
        offsets = 0.07 * np.arange(len(scalar))
        for e in np.linspace(0.2, -0.8, 400):
            program = e - offsets
            fluxes = batched.step(program)
            expected = [sim.step(float(v))
                        for sim, v in zip(scalar, program)]
            assert np.array_equal(fluxes, np.asarray(expected))

    def test_potential_program_shape_checked(self, cyp_cell):
        batched = RedoxChannelBatch(self._sims(cyp_cell))
        with pytest.raises(SimulationError, match="per-channel potentials"):
            batched.step(np.zeros(batched.batch_size + 1))

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            RedoxChannelBatch([])


def make_segment_channels(m, seed=0):
    """``m`` duck-typed redox channels over grids of different sizes.

    Each channel satisfies :class:`RedoxChannelBatch`'s contract with
    its own Butler-Volmer constants and random starting profiles, so
    the stacked rows are padded to the widest grid.
    """
    rng = np.random.default_rng(seed)
    return [SimpleNamespace(
                solver=solver,
                c_ox=rng.uniform(0.0, 1.0, solver.grid.n_nodes),
                c_red=rng.uniform(0.0, 0.2, solver.grid.n_nodes),
                n=1 + j % 2, k0=1.0e-5 * (1 + j % 5),
                alpha=0.3 + 0.05 * (j % 7), e_formal=-0.2 + 0.03 * (j % 11))
            for j, solver in enumerate(make_steppers(n_systems=m))]


def sweep_program(steps, m, lo=0.3, hi=-0.6):
    """A ``(steps, M)`` program: one sweep, offset per channel."""
    return (np.linspace(lo, hi, steps)[:, None]
            - 0.01 * np.arange(m)[None, :])


def assert_same_bits(actual, expected):
    """Equal values (NaN where the reference has NaN) and zero signs."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    zeros = expected == 0.0
    assert np.array_equal(np.signbit(actual[zeros]),
                          np.signbit(expected[zeros]))


class TestRedoxSegment:
    """``RedoxChannelBatch.run`` against the per-step loop it replaces."""

    solve_path = "kernel"

    @staticmethod
    def _segments(channels, programs):
        """Run ``programs`` back to back: each through ``run`` on one
        batch and through ``step`` on a twin, rebuilding both batches
        over the first ``programs[i].shape[1]`` channels between
        segments, as :class:`SweepBatch` does when a sweep retires."""
        twins = copy.deepcopy(channels)
        for program in programs:
            live = program.shape[1]
            batch = RedoxChannelBatch(channels[:live])
            reference = RedoxChannelBatch(twins[:live])
            fluxes = batch.run(program)
            expected = np.array([reference.step(e) for e in program])
            assert_same_bits(fluxes, expected.reshape(program.shape))
            batch.sync_back()
            reference.sync_back()
            for ch, twin in zip(channels, twins):
                assert_same_bits(ch.c_ox, twin.c_ox)
                assert_same_bits(ch.c_red, twin.c_red)

    @pytest.mark.parametrize("m", PARITY_SIZES)
    def test_run_matches_step_loop(self, m):
        self._segments(make_segment_channels(m), [sweep_program(60, m)])

    def test_padded_rows_match(self):
        # Grids of 39 to 66 nodes in one batch: most rows are padded.
        channels = make_segment_channels(13, seed=1)
        assert len({ch.solver.grid.n_nodes for ch in channels}) > 5
        self._segments(channels, [sweep_program(150, 13, 0.5, -0.9)])

    def test_clamped_exponent_matches(self):
        # +-10 V puts |n F/RT (E - E0)| far past the +-500 clamp on
        # both sides before the program returns to the ordinary window.
        m = 6
        program = np.concatenate([sweep_program(41, m, -10.0, 10.0),
                                  sweep_program(40, m, 10.0, -10.0),
                                  sweep_program(40, m)])
        self._segments(make_segment_channels(m, seed=2), [program])

    def test_profiles_clip_to_zero(self):
        # Negative and -0.0 starting elements clip to +0.0.  All -0.0
        # profiles of a sealed channel with k0 = 0 stay -0.0 through the
        # solve, so the clip itself sees -0.0 and must return +0.0.  That
        # needs a grid with a positive explicit diagonal (uniform) that
        # is the widest of the batch (a padded row's zero tail adds +0.0
        # to its last node): channels 2-5 of the stock set.
        channels = make_segment_channels(7, seed=3)[2:6]
        sealed = channels[0]
        sealed.solver = make_steppers("noflux", 3)[2]
        assert sealed.solver.grid.n_nodes == max(
            ch.solver.grid.n_nodes for ch in channels)
        sealed.c_ox = np.full(sealed.solver.grid.n_nodes, -0.0)
        sealed.c_red = sealed.c_ox.copy()
        sealed.k0 = 0.0
        channels[1].c_red[::3] = -1.0e-3
        channels[2].c_red[1] = -0.0
        self._segments(channels, [sweep_program(30, 4, -0.4, 0.6)])
        assert not np.signbit(sealed.c_ox).any()

    def test_nan_stays_nan(self):
        channels = make_segment_channels(3, seed=4)
        channels[1].c_ox[4] = np.nan
        self._segments(channels, [sweep_program(10, 3)])
        assert np.isnan(channels[1].c_ox).all()

    def test_back_to_back_segments(self):
        # Two runs on one batch continue where the first left off, and a
        # batch rebuilt over the live channels picks up their profiles.
        m = 12
        channels = make_segment_channels(m, seed=5)
        twins = make_segment_channels(m, seed=5)
        program = sweep_program(90, m)
        batch = RedoxChannelBatch(channels)
        reference = RedoxChannelBatch(twins)
        fluxes = np.concatenate([batch.run(program[:35]),
                                 batch.run(program[35:])])
        expected = np.array([reference.step(e) for e in program])
        assert_same_bits(fluxes, expected)
        batch.sync_back()
        reference.sync_back()
        for ch, twin in zip(channels, twins):
            assert_same_bits(ch.c_ox, twin.c_ox)
            assert_same_bits(ch.c_red, twin.c_red)
        self._segments(channels, [sweep_program(25, 7), sweep_program(40, 3)])

    def test_empty_program_leaves_state(self):
        channels = make_segment_channels(3, seed=6)
        before = [ch.c_ox.copy() for ch in channels]
        batch = RedoxChannelBatch(channels)
        assert batch.run(np.empty((0, 3))).shape == (0, 3)
        batch.sync_back()
        for ch, profile in zip(channels, before):
            assert_same_bits(ch.c_ox, profile)

    def test_program_shape_checked(self):
        batch = RedoxChannelBatch(make_segment_channels(3))
        for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((2, 3, 1))):
            with pytest.raises(SimulationError, match="potential program"):
                batch.run(bad)


class TestRedoxSegmentFallback(TestRedoxSegment):
    solve_path = "fallback"


def test_kernel_handle_switches_the_segment(monkeypatch):
    """``_KERNEL = None`` turns the segment kernel off with the solves:
    a sweep then steps once per sample and never reaches the library."""
    if not tridiag.kernel_loaded():
        pytest.skip("the compiled Thomas kernel did not load")
    library = tridiag._KERNEL
    segments, steps = [], []

    class Spy:
        thomas_sweep = library.thomas_sweep

        @staticmethod
        def redox_segment(*args):
            segments.append(args[0])
            return library.redox_segment(*args)

    step = RedoxChannelBatch.step
    monkeypatch.setattr(RedoxChannelBatch, "step",
                        lambda self, e: steps.append(1) or step(self, e))
    program = sweep_program(20, 4)
    currents = []
    for kernel in (Spy, None):
        monkeypatch.setattr(tridiag, "_KERNEL", kernel)
        currents.append(RedoxChannelBatch(make_segment_channels(4)).run(
            program))
    assert segments == [20] and len(steps) == 20
    assert_same_bits(currents[0], currents[1])


class TestProtocolEquivalence:
    """The acceptance bar: batched protocols vs the scalar reference."""

    def test_cv_currents_match_scalar_path(self, cyp_cell):
        # The bench scenario of TestCyclicVoltammetry / bench_table2.
        wf = TriangleWaveform(e_start=0.0, e_vertex=-0.7, scan_rate=0.02)
        cv = CyclicVoltammetry(wf, sample_rate=10.0)
        times, potentials, sweep_sign, currents = cv.simulate_true_current(
            cyp_cell, "WE4")

        # Scalar reference: the seed's per-channel inner loop.
        we = cyp_cell.working_electrode("WE4")
        dt = 1.0 / cv.sample_rate
        sims = build_channel_simulators(we, cyp_cell.chamber, dt,
                                        wf.duration)
        expected = np.empty(times.size)
        for k in range(times.size):
            e = float(potentials[k])
            faradaic = 0.0
            for sim in sims:
                faradaic -= sim.n * C.FARADAY * we.area * sim.step(e)
            expected[k] = (faradaic
                           + cv._quasi_static_current(cyp_cell, we, e)
                           + we.electrode.charging_current(
                               float(wf.rate(times[k]))))
        assert np.array_equal(currents, expected)

    def test_dpv_matches_scalar_path(self, cyp_cell):
        dpv = DifferentialPulseVoltammetry(e_start=0.0, e_end=-0.6)
        result = dpv.simulate_true(cyp_cell, "WE4")

        # Scalar reference: one channel step at a time, then leakage.
        we = cyp_cell.working_electrode("WE4")
        times, potentials = dpv.potential_program()
        sims = build_channel_simulators(we, cyp_cell.chamber, dpv.dt,
                                        float(times[-1]))
        assert len(sims) == 2
        expected = np.empty(times.size)
        for k in range(times.size):
            e = float(potentials[k])
            faradaic = 0.0
            for sim in sims:
                faradaic -= sim.n * C.FARADAY * we.area * sim.step(e)
            expected[k] = faradaic + we.electrode.leakage_current()
        reference = dpv._assemble(potentials, expected)
        for name in ("base_potentials", "differential", "i_before",
                     "i_pulse"):
            assert np.array_equal(getattr(result, name),
                                  getattr(reference, name)), name

    def test_chronoamperometry_matches_scalar_path(self, glucose_cell):
        glucose_cell.chamber.set_bulk("dopamine", 0.3)
        proto = Chronoamperometry(
            e_setpoint=0.55, duration=40.0, sample_rate=5.0,
            injections=InjectionSchedule.single(10.0, "glucose", 1.0))
        times, currents = proto.simulate_true_current(glucose_cell, "WE1")

        # Scalar reference: the seed's one-mechanism-at-a-time loop.
        e = proto.e_setpoint
        we = glucose_cell.working_electrode("WE1")
        chamber = glucose_cell.chamber.copy()
        dt = 1.0 / proto.sample_rate
        ref_times = uniform_sample_times(proto.duration, proto.sample_rate)
        mechanisms = build_mechanisms(we, chamber, e, dt, proto.n_nodes)
        expected = np.empty(ref_times.size)
        static = static_current(glucose_cell, "WE1", e)
        expected[0] = static + initial_mechanism_current(we, mechanisms)
        t_prev = 0.0
        for k in range(1, ref_times.size):
            t_now = float(ref_times[k])
            for inj in proto.injections.events_between(t_prev, t_now):
                chamber.inject(inj)
                refresh_mechanisms(mechanisms, we, chamber, e, dt,
                                   proto.n_nodes)
            total = static
            for mech in mechanisms.values():
                total += mech.current(we.area, mech.step())
            expected[k] = total
            t_prev = t_now

        assert np.array_equal(times, ref_times)
        assert np.array_equal(currents, expected)


class TestProtocolEquivalenceFallback(TestProtocolEquivalence):
    solve_path = "fallback"


class TestMechanismBatch:
    def test_requires_known_mechanism_kind(self):
        class Unknown:
            solver = None
            field = None

        with pytest.raises(SimulationError, match="mechanisms must expose"):
            MechanismBatch([Unknown()])

    def test_batch_size_and_sync_back(self, glucose_cell):
        glucose_cell.chamber.set_bulk("dopamine", 0.3)
        we = glucose_cell.working_electrode("WE1")
        mechanisms = build_mechanisms(we, glucose_cell.chamber.copy(),
                                      0.55, 0.2)
        start = [mech.field.copy() for mech in mechanisms.values()]
        batch = MechanismBatch(mechanisms)
        assert batch.batch_size == len(mechanisms) == 2
        fluxes = batch.step()
        assert fluxes.shape == (len(mechanisms),)
        batch.sync_back()
        for mech, field in zip(mechanisms.values(), start):
            assert not np.array_equal(mech.field, field)
