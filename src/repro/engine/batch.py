"""Batched Crank-Nicolson stepping over stacked diffusion systems.

:class:`BatchCrankNicolson` takes M independent
:class:`~repro.chem.diffusion.CrankNicolsonDiffusion` steppers — all the
channels of one sweep, or all the surface mechanisms of one dwell — and
advances them together: the M concentration profiles live in one
``(M, N)`` array and every implicit solve is a single batched
:class:`~repro.engine.tridiag.TridiagonalFactorization` sweep.

Systems may have different node counts (the expanding voltammetry grids
depend on each species' diffusivity): shorter systems are padded with
decoupled identity rows (``diag = 1``, zero off-diagonals, zero explicit
coefficients), so the padded tail of a row solves to zero and never
couples back into the physical nodes.  The padded arithmetic on the real
nodes is element-for-element the same as the scalar steppers', so the
batch reproduces each stepper's values exactly, and its bits but for one
sign of zero: :meth:`BatchCrankNicolson.explicit_rhs` adds
``eupper * state[:, 1:]`` across a padded row's zero tail, so the last
real node of a shorter row gets ``+ 0.0 * 0.0`` and a ``-0.0`` there
turns into ``+0.0`` where the scalar stepper keeps ``-0.0``.  Production
does not meet this case: its steppers are Dirichlet, so that node is the
bulk node, which keeps its initial value through every step —
``max(bulk, 0.0)`` of a chamber concentration, or ``+0.0`` for a CV
channel's reduced form.  That is ``-0.0`` only if a caller sets a
concentration of ``-0.0`` (``max`` returns its first argument on a tie).

The stepper contract is duck-typed: anything exposing ``dt``, ``grid``,
``implicit_coefficients``, ``explicit_coefficients``, ``surface_volume``
and ``surface_response()`` can join a batch.
"""

from __future__ import annotations

import numpy as np

from repro.engine.tridiag import factor_tridiagonal_shared
from repro.errors import SimulationError

__all__ = ["BatchCrankNicolson"]


class BatchCrankNicolson:
    """M Crank-Nicolson steppers advanced as one stacked system.

    ``replicas`` stacks several independent state fields per stepper
    (e.g. the oxidised and reduced fields of a redox couple) onto one
    shared factorization: the elimination runs once over the M distinct
    matrices and is tiled, so the batch advances ``replicas * M``
    profiles with rows ordered replica-major (all first-copy systems,
    then all second-copy systems, ...).
    """

    def __init__(self, steppers, replicas: int = 1) -> None:
        steppers = tuple(steppers)
        if not steppers:
            raise SimulationError("a batch needs at least one stepper")
        if replicas < 1:
            raise SimulationError("replicas must be >= 1")
        dts = {float(st.dt) for st in steppers}
        if len(dts) != 1:
            raise SimulationError(
                "batched steppers must share one time step; got "
                f"{sorted(dts)}")
        self.steppers = steppers
        self.dt = dts.pop()
        m = len(steppers)
        sizes = np.asarray([st.grid.n_nodes for st in steppers], dtype=int)
        n = int(sizes.max())
        # Implicit matrix, padded with decoupled identity rows.
        ilower = np.zeros((m, n - 1))
        idiag = np.ones((m, n))
        iupper = np.zeros((m, n - 1))
        # Explicit operator, padded with zeros (padding contributes
        # nothing to the right-hand side).
        elower = np.zeros((m, n - 1))
        ediag = np.zeros((m, n))
        eupper = np.zeros((m, n - 1))
        v0 = np.empty(m)
        for j, st in enumerate(steppers):
            k = int(sizes[j])
            lo, dg, up = st.implicit_coefficients
            ilower[j, :k - 1] = lo
            idiag[j, :k] = dg
            iupper[j, :k - 1] = up
            lo, dg, up = st.explicit_coefficients
            elower[j, :k - 1] = lo
            ediag[j, :k] = dg
            eupper[j, :k - 1] = up
            v0[j] = st.surface_volume
        # Cross-electrode batches stack many identical matrices (WEs
        # sharing grid/diffusivity/dt); eliminate each distinct one once.
        factor = factor_tridiagonal_shared(ilower, idiag, iupper)
        if replicas > 1:
            factor = factor.tile(replicas)
            elower, ediag, eupper, v0, sizes = (
                np.concatenate([a] * replicas, axis=0)
                for a in (elower, ediag, eupper, v0, sizes))
            self.steppers = steppers * replicas
        self.sizes = sizes
        self.n_systems = m * replicas
        self.n_nodes = n
        self._v0 = v0
        self._elower, self._ediag, self._eupper = elower, ediag, eupper
        self._factor = factor
        self._responses: np.ndarray | None = None
        self._volumes: np.ndarray | None = None

    # -- state packing -------------------------------------------------------

    def stack_states(self, fields) -> np.ndarray:
        """Pack per-system profiles into one zero-padded (M, N) array."""
        fields = [np.asarray(field, dtype=float) for field in fields]
        if len(fields) != self.n_systems:
            raise SimulationError(
                f"got {len(fields)} profiles for {self.n_systems} systems")
        lengths = np.asarray([field.size for field in fields], dtype=int)
        bad = np.flatnonzero(lengths != self.sizes)
        if bad.size:
            j = int(bad[0])
            raise SimulationError(
                f"profile {j} has {fields[j].size} nodes, grid has "
                f"{self.sizes[j]}")
        state = np.zeros((self.n_systems, self.n_nodes))
        # One masked assignment packs every profile: the mask walks the
        # rows in order and np.concatenate supplies the values in the
        # same row-major order.
        mask = np.arange(self.n_nodes) < self.sizes[:, None]
        state[mask] = np.concatenate(fields)
        return state

    def unstack(self, state: np.ndarray) -> list[np.ndarray]:
        """Split a stacked state back into per-system profiles (copies)."""
        return [state[j, :self.sizes[j]].copy()
                for j in range(self.n_systems)]

    # -- batched stepping ------------------------------------------------------

    def explicit_rhs(self, state: np.ndarray) -> np.ndarray:
        """(I + dt/2 A) applied to every stacked profile at once.

        Equal in value to each stepper's own ``explicit_rhs``, and in
        bits except that a ``-0.0`` on the last real node of a padded
        row comes out ``+0.0`` (see the module docstring).
        """
        rhs = self._ediag * state
        rhs[:, :-1] += self._eupper * state[:, 1:]
        rhs[:, 1:] += self._elower * state[:, :-1]
        return rhs

    @property
    def bands(self) -> tuple[np.ndarray, ...]:
        """The stacked operator as the compiled segment reads it.

        ``(elower, ediag, eupper, lower, denom, c_prime)``: the explicit
        bands, then the implicit factorization's sweep coefficients,
        each a C-contiguous float64 array over the ``n_systems`` rows.
        """
        factor = self._factor
        return (self._elower, self._ediag, self._eupper,
                factor.lower, factor.denom, factor.c_prime)

    def solve_implicit(self, rhs: np.ndarray) -> np.ndarray:
        """(I - dt/2 A) x = rhs for every stacked system (prefactored)."""
        return self._factor.solve(rhs)

    def step(self, state: np.ndarray,
             surface_flux: np.ndarray | None = None) -> np.ndarray:
        """Advance every system one dt with explicit surface removal.

        ``surface_flux`` is one removal flux per system, mol/(m^2 s)
        (sign convention of :class:`~repro.chem.diffusion.
        CrankNicolsonDiffusion`); ``None`` means sealed surfaces.
        """
        rhs = self.explicit_rhs(state)
        if surface_flux is not None:
            flux = np.asarray(surface_flux, dtype=float)
            rhs[:, 0] -= self.dt * flux / self._v0
        return self.solve_implicit(rhs)

    def step_linear_surface(self, state: np.ndarray, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
        """Advance with per-system implicit surface rates ``J = a + b*c0``.

        Mirrors :meth:`~repro.chem.diffusion.CrankNicolsonDiffusion.
        step_linear_surface` element for element: the slope is a
        rank-one matrix update at the surface node, resolved through the
        cached surface responses (Sherman-Morrison) so no system is ever
        refactored, however the slopes move between steps.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (self.n_systems,) or b.shape != (self.n_systems,):
            raise SimulationError(
                "linear-surface coefficients must be one (a, b) per system")
        if np.any(b < 0.0):
            raise SimulationError(
                "linearised surface-rate slopes must be >= 0")
        rhs = self.explicit_rhs(state)
        rhs[:, 0] -= self.dt * a / self._v0
        u = self.solve_implicit(rhs)
        w = self.surface_responses()
        sb = self.dt * b / self._v0
        c0 = u[:, 0] / (1.0 + sb * w[:, 0])
        return u - (sb * c0)[:, None] * w

    # -- shared-boundary helpers ---------------------------------------------

    def surface_responses(self) -> np.ndarray:
        """(M, N) matrix of every system's unit-surface-source response.

        Row j is the stepper's own cached
        :meth:`~repro.chem.diffusion.CrankNicolsonDiffusion.
        surface_response`, zero-padded, so Schur-complement couplings
        built on the batch agree exactly with the scalar path.
        """
        if self._responses is None:
            self._responses = self.stack_states(
                [st.surface_response() for st in self.steppers])
        return self._responses

    def total_mass(self, state: np.ndarray) -> np.ndarray:
        """Per-system mass per unit area, mol/m^2 (padding excluded)."""
        if self._volumes is None:
            self._volumes = self.stack_states(
                [st.grid.cell_volumes for st in self.steppers])
        return (self._volumes * state).sum(axis=1)
