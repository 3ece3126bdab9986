"""Diffusion solver: conservation, stability, Cottrell validation."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import diffusion
from repro.chem.analytic import cottrell_current
from repro.chem.constants import FARADAY
from repro.chem.diffusion import (
    CrankNicolsonDiffusion,
    Grid1D,
    default_domain_length,
    thomas_solve,
)
from repro.errors import SimulationError


class TestGrid:
    def test_uniform(self):
        grid = Grid1D.uniform(1e-4, 11)
        assert grid.n_nodes == 11
        assert grid.length == pytest.approx(1e-4)
        assert np.allclose(np.diff(grid.x), 1e-5)

    def test_expanding_starts_fine(self):
        grid = Grid1D.expanding(1e-6, 1e-3, growth=1.1)
        spacings = grid.spacings
        assert spacings[0] == pytest.approx(1e-6)
        assert np.all(np.diff(spacings) > 0.0)
        assert grid.length >= 1e-3

    def test_cell_volumes_sum_to_length(self):
        # Conservation requires the finite volumes to tile the domain.
        grid = Grid1D.expanding(1e-6, 1e-3, growth=1.15)
        assert np.sum(grid.cell_volumes) == pytest.approx(grid.length)

    def test_must_start_at_zero(self):
        with pytest.raises(SimulationError):
            Grid1D(np.array([1e-6, 2e-6, 3e-6]))

    def test_must_increase(self):
        with pytest.raises(SimulationError):
            Grid1D(np.array([0.0, 2e-6, 1e-6]))

    def test_default_domain_outruns_diffusion(self):
        d, t = 6.7e-10, 100.0
        assert default_domain_length(d, t) > math.sqrt(d * t)


class TestThomas:
    @given(st.integers(min_value=3, max_value=40), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_solver(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        # Strictly diagonally dominant: unique solution, stable elimination.
        diag = 2.5 + np.abs(rng.uniform(0.0, 1.0, n))
        rhs = rng.uniform(-1.0, 1.0, n)
        dense = np.diag(diag)
        dense[np.arange(n - 1) + 1, np.arange(n - 1)] = lower
        dense[np.arange(n - 1), np.arange(n - 1) + 1] = upper
        expected = np.linalg.solve(dense, rhs)
        out = thomas_solve(lower, diag, upper, rhs)
        assert np.allclose(out, expected, rtol=1e-9, atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            thomas_solve(np.zeros(2), np.ones(3), np.zeros(1), np.ones(3))


class TestConservation:
    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=20, deadline=None)
    def test_sealed_domain_conserves_mass(self, seed, dt):
        # No-flux at both ends: total mass is invariant under stepping.
        rng = np.random.default_rng(seed)
        grid = Grid1D.expanding(2e-6, 5e-4, growth=1.1)
        solver = CrankNicolsonDiffusion(grid, 6.7e-10, dt,
                                        bulk_boundary="noflux")
        c = rng.uniform(0.0, 2.0, grid.n_nodes)
        m0 = solver.total_mass(c)
        for _ in range(20):
            c = solver.step(c, surface_flux=0.0)
        assert solver.total_mass(c) == pytest.approx(m0, rel=1e-9)

    def test_sealed_domain_relaxes_to_uniform(self):
        grid = Grid1D.uniform(2e-4, 40)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.5,
                                        bulk_boundary="noflux")
        c = np.zeros(40)
        c[:10] = 1.0
        m0 = solver.total_mass(c)
        for _ in range(20000):
            c = solver.step(c)
        expected = m0 / grid.length
        assert np.allclose(c, expected, rtol=1e-3)

    def test_surface_flux_removes_mass_at_known_rate(self):
        grid = Grid1D.uniform(2e-4, 40)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.1,
                                        bulk_boundary="noflux")
        c = np.full(40, 1.0)
        flux = 1e-7  # mol/(m^2 s) removed at the electrode
        m0 = solver.total_mass(c)
        n_steps = 50
        for _ in range(n_steps):
            c = solver.step(c, surface_flux=flux)
        removed = m0 - solver.total_mass(c)
        assert removed == pytest.approx(flux * n_steps * 0.1, rel=1e-6)


class TestCottrell:
    def test_diffusion_limited_step_follows_cottrell(self):
        # Drive the surface to zero with a huge linear sink; the inward
        # flux must match Cottrell within a few percent at all times.
        d = 6.7e-10
        grid = Grid1D.expanding(5e-7, default_domain_length(d, 20.0),
                                growth=1.08)
        dt = 0.02
        solver = CrankNicolsonDiffusion(grid, d, dt)
        c = np.full(grid.n_nodes, 1.0)
        for k in range(1, 1001):
            c = solver.step_linear_surface(c, 0.0, 10.0)
            if k % 200 == 0:
                t = k * dt
                expected = cottrell_current(1, 1.0, 1.0, d, t) / FARADAY
                measured = solver.surface_gradient_flux(c)
                assert measured == pytest.approx(expected, rel=0.03)

    def test_dirichlet_far_boundary_holds_bulk(self):
        grid = Grid1D.uniform(1e-4, 30)
        solver = CrankNicolsonDiffusion(grid, 6.7e-10, 0.05)
        c = np.full(30, 2.0)
        for _ in range(100):
            c = solver.step_linear_surface(c, 0.0, 1.0)
        assert c[-1] == pytest.approx(2.0)
        assert c[0] < 0.1  # surface depleted


class TestBoundaryHandling:
    def test_negative_sink_slope_rejected(self):
        grid = Grid1D.uniform(1e-4, 10)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.1)
        with pytest.raises(SimulationError):
            solver.step_linear_surface(np.ones(10), 0.0, -1.0)

    def test_profile_size_checked(self):
        grid = Grid1D.uniform(1e-4, 10)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.1)
        with pytest.raises(SimulationError):
            solver.step(np.ones(7))

    def test_surface_response_cached_and_positive_at_surface(self):
        grid = Grid1D.uniform(1e-4, 10)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.1)
        w1 = solver.surface_response()
        w2 = solver.surface_response()
        assert w1 is w2
        assert w1[0] > 0.0

    def test_unknown_boundary_rejected(self):
        grid = Grid1D.uniform(1e-4, 10)
        with pytest.raises(SimulationError):
            CrankNicolsonDiffusion(grid, 1e-9, 0.1, bulk_boundary="open")

    def test_undershoot_stays_negligible(self):
        # The solver does not clip (conservation); undershoot below zero
        # must stay tiny relative to the data for smooth profiles.
        grid = Grid1D.uniform(1e-4, 20)
        solver = CrankNicolsonDiffusion(grid, 1e-9, 0.5)
        c = np.full(20, 0.01)
        for _ in range(50):
            c = solver.step_linear_surface(c, 0.0, 100.0)
            assert np.min(c) > -1e-4 * 0.01


def _operator_arrays(op) -> list[np.ndarray]:
    return [*op.a, *op.implicit, *op.explicit, op.volumes,
            op.surface_response, op.factor.lower, op.factor.denom,
            op.factor.c_prime]


def _same_bits(op, other) -> bool:
    return [a.tobytes() for a in _operator_arrays(op)] == [
        a.tobytes() for a in _operator_arrays(other)]


def clear_caches() -> None:
    """Empty every memo of exact inputs the planning path uses."""
    from repro.measurement import peaks

    for memo in (diffusion._operator, diffusion._uniform_grid,
                 diffusion._expanding_grid, peaks._weights_spectrum):
        memo.cache_clear()


class TestOperatorMemo:
    def test_equal_inputs_share_one_operator(self):
        grid = Grid1D.uniform(5.0e-4, 40)
        st = CrankNicolsonDiffusion(grid, 6.7e-10, 0.1)
        twin = CrankNicolsonDiffusion(Grid1D(np.linspace(0.0, 5.0e-4, 40)),
                                      6.7e-10, 0.1)
        assert twin._operator is st._operator
        others = [
            CrankNicolsonDiffusion(grid, 6.7e-10, 0.1, bulk_boundary="noflux"),
            CrankNicolsonDiffusion(grid, 6.7e-10, 0.2),
            CrankNicolsonDiffusion(grid, 1.0e-9, 0.1),
            CrankNicolsonDiffusion(Grid1D.uniform(5.0e-4, 41), 6.7e-10, 0.1),
            CrankNicolsonDiffusion(Grid1D.uniform(6.0e-4, 40), 6.7e-10, 0.1),
        ]
        for other in others:
            assert other._operator is not st._operator
        assert len({id(other._operator) for other in others}) == len(others)

    def test_grid_constructors_share_grids_bit_for_bit(self):
        assert Grid1D.uniform(1e-4, 11) is Grid1D.uniform(1e-4, 11)
        assert Grid1D.uniform(1e-4, 11) is not Grid1D.uniform(1e-4, 12)
        grid = Grid1D.expanding(1e-6, 1e-3, growth=1.1)
        assert Grid1D.expanding(1e-6, 1e-3, growth=1.1) is grid
        assert Grid1D.expanding(1e-6, 1e-3, growth=1.2) is not grid
        nodes = [0.0]
        step = 1e-6
        while nodes[-1] < 1e-3:
            nodes.append(nodes[-1] + step)
            step *= 1.1
        assert grid.x.tobytes() == np.asarray(nodes).tobytes()
        assert (Grid1D.uniform(1e-4, 11).x.tobytes()
                == np.linspace(0.0, 1e-4, 11).tobytes())

    def test_shared_operator_matches_a_fresh_build(self):
        st = CrankNicolsonDiffusion(
            Grid1D.expanding(1e-6, 8e-4, growth=1.1), 6.7e-10, 0.05)
        fresh = diffusion._operator.__wrapped__(
            "dirichlet", 0.05, 6.7e-10, st.grid.x.tobytes())
        assert fresh is not st._operator and _same_bits(fresh, st._operator)
        e0 = np.zeros(st.grid.n_nodes)
        e0[0] = 1.0
        assert (st.surface_response().tobytes()
                == thomas_solve(*st.implicit_coefficients, e0).tobytes())

    def test_cached_arrays_reject_writes(self):
        st = CrankNicolsonDiffusion(
            Grid1D.expanding(1e-6, 5e-4, growth=1.1), 6.7e-10, 0.05)
        arrays = _operator_arrays(st._operator) + [
            st.grid.x, Grid1D.uniform(1e-4, 10).x, st.surface_response(),
            *st.implicit_coefficients, *st.explicit_coefficients]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_bound_holds(self):
        grid = Grid1D.uniform(1e-4, 10)
        for k in range(300):
            CrankNicolsonDiffusion(grid, 1.0e-9 * (1.0 + k), 0.1)
        for memo in (diffusion._operator, diffusion._uniform_grid,
                     diffusion._expanding_grid):
            info = memo.cache_info()
            assert info.maxsize == 256 and info.currsize <= 256
        assert diffusion._operator.cache_info().currsize == 256

    def test_concurrent_builds_and_evictions(self):
        # 8 threads build one shared operator family and 40 operators of
        # their own each, enough to evict while others insert.
        start = threading.Barrier(8)
        built: dict[int, list] = {}
        errors: list[Exception] = []

        def work(t: int) -> None:
            try:
                start.wait(timeout=30.0)
                out = []
                for k in range(45):
                    d = 1.0e-9 * (1.0 + (k if k < 5 else 100 * t + k))
                    grid = Grid1D.uniform(1e-4 * (1 + k % 3), 12)
                    st = CrankNicolsonDiffusion(grid, d, 0.1)
                    out.append((grid.x.tobytes(), d, st._operator))
                built[t] = out
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and sorted(built) == list(range(8))
        assert diffusion._operator.cache_info().currsize <= 256
        for out in built.values():
            for nodes, d, op in out:
                fresh = diffusion._operator.__wrapped__(
                    "dirichlet", 0.1, d, nodes)
                assert _same_bits(op, fresh)


def test_sweep_from_cleared_caches_matches_a_warm_run():
    # Memoised operators, grids and weights are shared by replicates;
    # a run that builds every one of them afresh gives the same digests.
    import test_golden_layers as golden

    clear_caches()
    cold = golden.layer_digests(*golden._replicate_fleet())
    warm = golden.layer_digests(*golden._replicate_fleet())
    assert cold == warm == golden._golden()["replicate_fleet"]
