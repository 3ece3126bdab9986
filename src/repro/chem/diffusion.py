"""One-dimensional diffusion solver for electrode problems.

Chronoamperometry and cyclic voltammetry are both diffusion problems on the
half-line: the electrode sits at ``x = 0``, the bulk solution at large
``x``.  This module implements:

- :class:`Grid1D` — uniform or exponentially expanding node placement
  (fine at the electrode where gradients are steep, coarse in the bulk),
- :func:`thomas_solve` — the O(N) tridiagonal solver (kept as the
  scalar reference implementation; the stepper itself holds a
  :class:`~repro.engine.tridiag.TridiagonalFactorization` and reuses the
  forward-elimination coefficients on every step),
- :class:`CrankNicolsonDiffusion` — an unconditionally stable
  Crank-Nicolson stepper in conservative finite-volume form, with a
  reactive electrode boundary that can be applied explicitly
  (``J = const``), semi-implicitly (``J = a + b*c0`` absorbed into the
  matrix), or via a Schur complement for problems where two species couple
  through one surface reaction (the CV simulator uses this).

Steppers expose their tridiagonal coefficients
(:attr:`~CrankNicolsonDiffusion.implicit_coefficients` /
:attr:`~CrankNicolsonDiffusion.explicit_coefficients`) so
:class:`repro.engine.batch.BatchCrankNicolson` can stack many of them
into one batched solve per time step — the platform's hot path.

A stepper's operator — its bands, cell volumes, factorization and
surface response — depends only on ``(bulk_boundary, dt, diffusivity,
grid nodes)``, and a panel builds the same few over and over (one per
mechanism and CYP channel of every replicate).  Each distinct operator
is assembled once, kept in a bounded memo keyed on those exact values
(the nodes as bytes), and shared read-only; so are the grids that
:meth:`Grid1D.uniform` and :meth:`Grid1D.expanding` build.  A stepper thus
holds the very arrays it would have built, and sharing moves no bit.

Sign convention: ``surface_flux`` is the rate at which the electrode
reaction **removes** the species from solution, mol/(m^2 s); a negative
value injects the species (e.g. H2O2 produced by an oxidase film).

Validation: property tests check mass conservation with sealed boundaries
and convergence to the Cottrell current for a diffusion-limited step.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.engine.tridiag import TridiagonalFactorization, factor_tridiagonal
from repro.errors import SimulationError
from repro.units import ensure_positive

__all__ = [
    "Grid1D",
    "thomas_solve",
    "CrankNicolsonDiffusion",
    "default_domain_length",
]


def default_domain_length(diffusivity: float, duration: float,
                          safety: float = 6.0) -> float:
    """Domain length that the diffusion layer cannot outgrow.

    The depletion layer reaches about ``sqrt(D*t)`` after time ``t``; a
    domain of ``safety`` times that is effectively semi-infinite.
    """
    ensure_positive(diffusivity, "diffusivity")
    ensure_positive(duration, "duration")
    return safety * math.sqrt(diffusivity * duration)


@dataclass(frozen=True)
class Grid1D:
    """Node positions for the 1-D domain, ``x[0] == 0`` at the electrode."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 3:
            raise SimulationError("grid needs at least 3 nodes")
        if x[0] != 0.0:
            raise SimulationError("grid must start at the electrode, x[0] == 0")
        if np.any(np.diff(x) <= 0.0):
            raise SimulationError("grid nodes must be strictly increasing")
        object.__setattr__(self, "x", x)

    @classmethod
    def uniform(cls, length: float, n_nodes: int) -> "Grid1D":
        """Evenly spaced nodes over ``[0, length]``.

        Equal arguments return one shared grid, whose ``x`` is read-only.
        """
        ensure_positive(length, "length")
        if n_nodes < 3:
            raise SimulationError("n_nodes must be >= 3")
        return _uniform_grid(cls, float(length), operator.index(n_nodes))

    @classmethod
    def expanding(cls, first_step: float, length: float,
                  growth: float = 1.08) -> "Grid1D":
        """Exponentially expanding spacing from ``first_step`` at the surface.

        Node spacing grows by the factor ``growth`` per interval until the
        accumulated length covers ``length``.  This is the standard grid
        for voltammetry simulation: resolution where the concentration
        profile bends, economy in the bulk.  Equal arguments return one
        shared grid, whose ``x`` is read-only.
        """
        ensure_positive(first_step, "first_step")
        ensure_positive(length, "length")
        if growth < 1.0:
            raise SimulationError(f"growth must be >= 1, got {growth!r}")
        if first_step >= length:
            raise SimulationError("first_step must be smaller than length")
        return _expanding_grid(cls, float(first_step), float(length),
                               float(growth))

    @property
    def n_nodes(self) -> int:
        return int(self.x.size)

    @property
    def length(self) -> float:
        return float(self.x[-1])

    @property
    def spacings(self) -> np.ndarray:
        """Interval widths ``h[i] = x[i+1] - x[i]`` (length N-1)."""
        return np.diff(self.x)

    @property
    def cell_volumes(self) -> np.ndarray:
        """Finite-volume cell widths (per unit electrode area), length N.

        Cell ``i`` spans from the midpoint below to the midpoint above;
        the boundary cells are half-cells.  Volumes sum to the domain
        length, which is what makes the discretisation conservative.
        """
        h = self.spacings
        v = np.empty(self.n_nodes)
        v[0] = 0.5 * h[0]
        v[1:-1] = 0.5 * (h[:-1] + h[1:])
        v[-1] = 0.5 * h[-1]
        return v


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


# The memos of exact inputs (see the module docstring).  Each is a
# bounded LRU of 256 entries: ``functools.lru_cache`` evicts under its
# own lock, so the service's dispatch threads may build and evict at
# once; two threads that miss on one key both build, equal bit for bit.


@functools.lru_cache(maxsize=256)
def _uniform_grid(cls: type, length: float, n_nodes: int) -> Grid1D:
    x = np.linspace(0.0, length, n_nodes)
    _read_only(x)
    return cls(x)


@functools.lru_cache(maxsize=256)
def _expanding_grid(cls: type, first_step: float, length: float,
                    growth: float) -> Grid1D:
    nodes = [0.0]
    step = first_step
    while nodes[-1] < length:
        nodes.append(nodes[-1] + step)
        step *= growth
    x = np.asarray(nodes)
    _read_only(x)
    return cls(x)


@dataclass(frozen=True)
class _Operator:
    """Everything a stepper derives from (boundary, dt, D, grid nodes).

    ``a`` holds the (lower, diag, upper) bands of A, where
    dc/dt = A c + sources; ``implicit`` and ``explicit`` those of
    (I - dt/2 A) and (I + dt/2 A).  ``factor`` eliminates the implicit
    matrix once, and ``surface_response`` solves it for a unit source
    at the surface node.  Every array is read-only.
    """

    a: tuple[np.ndarray, np.ndarray, np.ndarray]
    implicit: tuple[np.ndarray, np.ndarray, np.ndarray]
    explicit: tuple[np.ndarray, np.ndarray, np.ndarray]
    volumes: np.ndarray
    factor: TridiagonalFactorization
    surface_response: np.ndarray


@functools.lru_cache(maxsize=256)
def _operator(bulk_boundary: str, dt: float, diffusivity: float,
              nodes: bytes) -> _Operator:
    """Assemble the Crank-Nicolson operator over ``nodes`` (float64 bytes)."""
    grid = Grid1D(np.frombuffer(nodes))
    n = grid.n_nodes
    h = grid.spacings
    v = grid.cell_volumes
    d = diffusivity
    lower = np.zeros(n - 1)
    diag = np.zeros(n)
    upper = np.zeros(n - 1)
    # Row 0 (electrode surface): exchange with node 1 only; the surface
    # reaction enters as a source term or implicit diagonal correction.
    diag[0] = -d / (h[0] * v[0])
    upper[0] = d / (h[0] * v[0])
    for i in range(1, n - 1):
        lower[i - 1] = d / (h[i - 1] * v[i])
        diag[i] = -d / (h[i - 1] * v[i]) - d / (h[i] * v[i])
        upper[i] = d / (h[i] * v[i])
    if bulk_boundary == "noflux":
        lower[n - 2] = d / (h[n - 2] * v[n - 1])
        diag[n - 1] = -d / (h[n - 2] * v[n - 1])
    # Dirichlet: last row of A stays zero; we additionally pin the node
    # in the implicit matrix below so (I - 0.5 dt A) keeps it fixed.
    half = 0.5 * dt
    implicit = (-half * lower, 1.0 - half * diag, -half * upper)
    explicit = (half * lower, 1.0 + half * diag, half * upper)
    if bulk_boundary == "dirichlet":
        # Keep the bulk node exactly constant.
        implicit[0][n - 2] = 0.0
        implicit[1][n - 1] = 1.0
        explicit[0][n - 2] = 0.0
        explicit[1][n - 1] = 1.0
    # The implicit matrix never changes, so eliminate it once; every
    # step then runs only the two substitution sweeps.
    factor = factor_tridiagonal(*implicit)
    e0 = np.zeros(n)
    e0[0] = 1.0
    response = factor.solve(e0)
    _read_only(lower, diag, upper, *implicit, *explicit, v, response)
    return _Operator((lower, diag, upper), implicit, explicit, v, factor,
                     response)


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in O(N).

    ``lower`` has length N-1 (sub-diagonal), ``diag`` length N,
    ``upper`` length N-1 (super-diagonal).  The input arrays are not
    modified.  Raises :class:`~repro.errors.SimulationError` on a zero
    pivot (the Crank-Nicolson matrices used here are strictly diagonally
    dominant, so this indicates a configuration bug).
    """
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1 or rhs.size != n:
        raise SimulationError("tridiagonal system arrays have inconsistent sizes")
    c_prime = np.empty(n - 1)
    d_prime = np.empty(n)
    denom = diag[0]
    if denom == 0.0:
        raise SimulationError("zero pivot in tridiagonal solve (row 0)")
    c_prime[0] = upper[0] / denom
    d_prime[0] = rhs[0] / denom
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c_prime[i - 1]
        if denom == 0.0:
            raise SimulationError(f"zero pivot in tridiagonal solve (row {i})")
        if i < n - 1:
            c_prime[i] = upper[i] / denom
        d_prime[i] = (rhs[i] - lower[i - 1] * d_prime[i - 1]) / denom
    out = np.empty(n)
    out[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        out[i] = d_prime[i] - c_prime[i] * out[i + 1]
    return out


class CrankNicolsonDiffusion:
    """Crank-Nicolson stepper for one species on a :class:`Grid1D`.

    Parameters
    ----------
    grid:
        Node placement.
    diffusivity:
        D in m^2/s.
    dt:
        Time step in seconds (fixed per stepper; build a new stepper to
        change it — the matrices are pre-factored for speed).
    bulk_boundary:
        ``"dirichlet"`` pins the far node to its initial value (semi-
        infinite bulk); ``"noflux"`` seals the far end (thin-layer cell /
        mass-conservation tests).
    """

    def __init__(self, grid: Grid1D, diffusivity: float, dt: float,
                 bulk_boundary: str = "dirichlet") -> None:
        if bulk_boundary not in ("dirichlet", "noflux"):
            raise SimulationError(
                f"bulk_boundary must be 'dirichlet' or 'noflux', got {bulk_boundary!r}"
            )
        self.grid = grid
        self.diffusivity = ensure_positive(diffusivity, "diffusivity")
        self.dt = ensure_positive(dt, "dt")
        self.bulk_boundary = bulk_boundary
        # Steppers over the same (boundary, dt, D, grid) share one
        # operator: bands, factorization and surface response.
        self._operator = _operator(bulk_boundary, self.dt, self.diffusivity,
                                   grid.x.tobytes())

    # -- matrix access (batched engine contract) -------------------------------

    @property
    def implicit_coefficients(self) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """(lower, diag, upper) of (I - dt/2 A), read-only."""
        return self._operator.implicit

    @property
    def explicit_coefficients(self) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """(lower, diag, upper) of (I + dt/2 A), read-only."""
        return self._operator.explicit

    @property
    def surface_volume(self) -> float:
        """Finite-volume width of the electrode-surface cell, metres."""
        return float(self._operator.volumes[0])

    # -- public stepping API -------------------------------------------------

    def step(self, c: np.ndarray, surface_flux: float = 0.0) -> np.ndarray:
        """Advance one dt with a constant (explicit) surface removal flux.

        The scheme is strictly conservative, so the output is *not*
        clipped: Crank-Nicolson can undershoot slightly below zero near
        non-smooth data, and clipping would silently create mass.
        Physical consumers (the enzyme rate laws) clip on their side.
        """
        rhs = self._explicit_rhs(c)
        rhs[0] -= self.dt * surface_flux / self._operator.volumes[0]
        return self._operator.factor.solve(rhs)

    def step_linear_surface(self, c: np.ndarray, a: float,
                            b: float) -> np.ndarray:
        """Advance one dt with an implicit linearised surface flux.

        The electrode removes the species at ``J = a + b * c0_new``
        (mol/(m^2 s)); ``b >= 0`` keeps the problem well posed.  Used
        for Michaelis-Menten films, Newton-linearised around the current
        surface concentration.

        The slope only perturbs the matrix at the surface entry — a
        rank-one update — so instead of refactoring per step the solve
        uses the prefactored base matrix plus a Sherman-Morrison
        correction through the cached :meth:`surface_response` (the same
        Schur-complement structure the CV boundary uses).
        """
        if b < 0.0:
            raise SimulationError(
                f"linearised surface-rate slope must be >= 0, got {b!r}"
            )
        rhs = self._explicit_rhs(c)
        rhs[0] -= self.dt * a / self._operator.volumes[0]
        u = self._operator.factor.solve(rhs)
        w = self._operator.surface_response
        sb = self.dt * b / self._operator.volumes[0]
        c0 = float(u[0]) / (1.0 + sb * float(w[0]))
        return u - (sb * c0) * w

    def solve_implicit(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 A) x = rhs (building block for coupled problems)."""
        return self._operator.factor.solve(np.asarray(rhs, dtype=float))

    def explicit_rhs(self, c: np.ndarray) -> np.ndarray:
        """Return (I + dt/2 A) c — the Crank-Nicolson right-hand side."""
        return self._explicit_rhs(c)

    def surface_response(self) -> np.ndarray:
        """Solve (I - dt/2 A) w = e0 (unit source at the surface node).

        The CV simulator composes this with the Schur complement of the
        shared Butler-Volmer boundary: the new profile under a surface
        source ``s`` is ``solve_implicit(rhs) + s * surface_response()``.
        Solved once per operator (the matrix never changes) and shared,
        read-only, by every stepper over the same inputs.
        """
        return self._operator.surface_response

    @property
    def surface_source_scale(self) -> float:
        """Factor mapping a surface flux J to its source-term magnitude.

        A removal flux J (mol/m^2/s) contributes ``-J * scale`` to the
        surface node's right-hand side, with ``scale = dt / V0``.
        """
        return self.dt / self._operator.volumes[0]

    def total_mass(self, c: np.ndarray) -> float:
        """Mass per unit area, mol/m^2 (conserved when sealed)."""
        return float(np.dot(self._operator.volumes,
                            np.asarray(c, dtype=float)))

    def surface_gradient_flux(self, c: np.ndarray) -> float:
        """Diffusive flux toward the electrode from the profile, mol/(m^2 s).

        ``J = D * (c1 - c0) / h0`` — positive when material flows toward
        the surface.  At steady state it equals the consumption flux.
        """
        h0 = self.grid.spacings[0]
        return self.diffusivity * (float(c[1]) - float(c[0])) / h0

    # -- internals -----------------------------------------------------------

    def _explicit_rhs(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.size != self.grid.n_nodes:
            raise SimulationError(
                f"profile has {c.size} nodes, grid has {self.grid.n_nodes}"
            )
        lower, diag, upper = self._operator.explicit
        rhs = diag * c
        rhs[:-1] += upper * c[1:]
        rhs[1:] += lower * c[:-1]
        return rhs
