"""Prefactored and batched Thomas (tridiagonal) solves.

The Crank-Nicolson diffusion matrices of this library never change after
construction, yet the seed's :func:`repro.chem.diffusion.thomas_solve`
re-derived the forward-elimination coefficients on every call.  This
module splits the solve into its two natural halves:

- :func:`factor_tridiagonal` — run the forward elimination *once* and
  keep the sweep coefficients (``c_prime`` and the pivoted denominators
  depend only on the matrix, never on the right-hand side);
- :meth:`TridiagonalFactorization.solve` — per right-hand side, only the
  forward substitution and the back substitution remain.

Both halves accept **stacked systems**: arrays of shape ``(..., N)`` /
``(..., N-1)`` are treated as independent tridiagonal systems sharing a
node count, and every sweep is one numpy recurrence across the whole
batch.  The per-row arithmetic is kept in exactly the order of the
scalar ``thomas_solve`` — ``(rhs[i] - lower[i-1]*d[i-1]) / denom[i]`` —
so a batched solve reproduces the scalar solution bit for bit, which is
what lets the protocols switch to the batched engine without moving any
existing bench result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "TridiagonalFactorization",
    "factor_tridiagonal",
    "factor_tridiagonal_shared",
    "batch_thomas_solve",
    "first_occurrences",
]


#: Batches at or below this many stacked systems solve through the
#: scalar (Python-float) sweeps; larger batches amortise numpy's
#: per-operation overhead across the batch axis and switch to the
#: node-major vectorised sweeps.  Both paths perform the identical IEEE
#: operation per element, so the dispatch never changes a result bit.
#: The value is the measured crossover at the voltammetry grids' 45
#: nodes (best of 7 x 300 solves, 2-CPU x86-64 host, numpy 2.4):
#: Python-float vs node-major 65 vs 87 us at 8 systems, 82 vs 90 us at
#: 10 and 102 vs 100 us at 12.  A one-cell paper panel fuses 6 systems
#: (two CYP WEs, three channels, ox + red), so it stays scalar.
SMALL_BATCH = 10


class TridiagonalFactorization:
    """The reusable half of a Thomas solve, for one or many systems.

    Holds the sub-diagonal, the pivoted denominators and the eliminated
    super-diagonal (``c_prime``) of ``shape[:-1]`` independent systems.
    Instances are produced by :func:`factor_tridiagonal`; every pivot is
    guaranteed nonzero, so :meth:`solve` runs without checks.
    """

    __slots__ = ("lower", "denom", "c_prime", "_scalar", "_node_major")

    def __init__(self, lower: np.ndarray, denom: np.ndarray,
                 c_prime: np.ndarray) -> None:
        self.lower = lower
        self.denom = denom
        self.c_prime = c_prime
        # The batch shape is fixed, so only one solve path can ever
        # run; build only that representation.
        if denom.ndim == 1 or (denom.ndim == 2
                               and denom.shape[0] <= SMALL_BATCH):
            # Python-float coefficient rows for the small-batch sweeps
            # (a Python float multiply is several times cheaper than
            # the same op on a 0-d numpy scalar, and bit-identical).
            if denom.ndim == 1:
                self._scalar = [(lower.tolist(), denom.tolist(),
                                 c_prime.tolist())]
            else:
                self._scalar = [(lower[j].tolist(), denom[j].tolist(),
                                 c_prime[j].tolist())
                                for j in range(denom.shape[0])]
            self._node_major = None
        else:
            # Node-major (contiguous per-node rows) copies for the
            # vectorised sweeps over large batches, pre-split into row
            # views so the hot loop never re-slices coefficient arrays.
            self._scalar = None
            self._node_major = (
                list(np.ascontiguousarray(np.moveaxis(lower, -1, 0))),
                list(np.ascontiguousarray(np.moveaxis(denom, -1, 0))),
                list(np.ascontiguousarray(np.moveaxis(c_prime, -1, 0))))

    @property
    def n(self) -> int:
        """Nodes per system."""
        return int(self.denom.shape[-1])

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading (stacked-system) dimensions; ``()`` for one system."""
        return self.denom.shape[:-1]

    def tile(self, repeats: int) -> "TridiagonalFactorization":
        """Stack ``repeats`` copies of the batch along the leading axis.

        Lets one factorization serve several state fields per system
        (e.g. the oxidised and reduced fields of a redox couple) in a
        single fused sweep.
        """
        if repeats < 1:
            raise SimulationError("tile repeats must be >= 1")

        def _stack(a: np.ndarray) -> np.ndarray:
            rows = a if a.ndim > 1 else a[None, :]
            return np.concatenate([rows] * repeats, axis=0)

        return TridiagonalFactorization(
            _stack(self.lower), _stack(self.denom), _stack(self.c_prime))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve every stacked system for its right-hand side.

        ``rhs`` must have the factorization's full shape ``(..., N)``.
        Large batches run node-major vectorised sweeps (one numpy
        operation per grid node advances the whole batch); small ones
        run Python-float sweeps per system.  Every path performs the
        same IEEE operation sequence per element, so results are
        identical bit for bit whichever is taken.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.denom.shape:
            raise SimulationError(
                f"rhs shape {rhs.shape} does not match the factorization "
                f"shape {self.denom.shape}")
        if rhs.ndim == 1:
            return np.asarray(self._solve_scalar(0, rhs.tolist()))
        if rhs.ndim == 2 and rhs.shape[0] <= SMALL_BATCH:
            return np.array([self._solve_scalar(j, row)
                             for j, row in enumerate(rhs.tolist())])
        return self._solve_vectorised(rhs)

    def _solve_scalar(self, system: int, rhs: list) -> list:
        lower, denom, c_prime = self._scalar[system]
        prev = rhs[0] / denom[0]
        d = [prev]
        for r, lo, de in zip(rhs[1:], lower, denom[1:]):
            prev = (r - lo * prev) / de
            d.append(prev)
        nxt = prev
        for i in range(len(d) - 2, -1, -1):
            nxt = d[i] - c_prime[i] * nxt
            d[i] = nxt
        return d

    def _solve_vectorised(self, rhs: np.ndarray) -> np.ndarray:
        lower, denom, c_prime = self._node_major
        n = self.n
        # Work node-major: row i is the batch's node-i values, contiguous.
        d = np.ascontiguousarray(rhs.T if rhs.ndim == 2
                                 else np.moveaxis(rhs, -1, 0))
        rows = list(d)
        buf = np.empty_like(rows[0])
        mul, sub, div = np.multiply, np.subtract, np.divide
        prev = rows[0]
        div(prev, denom[0], out=prev)
        for i in range(1, n):
            row = rows[i]
            mul(lower[i - 1], prev, out=buf)
            sub(row, buf, out=row)
            div(row, denom[i], out=row)
            prev = row
        for i in range(n - 2, -1, -1):
            row = rows[i]
            mul(c_prime[i], rows[i + 1], out=buf)
            sub(row, buf, out=row)
        return np.ascontiguousarray(d.T if rhs.ndim == 2
                                    else np.moveaxis(d, 0, -1))


def factor_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                       upper: np.ndarray) -> TridiagonalFactorization:
    """Forward-eliminate one or many tridiagonal systems.

    ``lower``/``upper`` have shape ``(..., N-1)`` and ``diag`` shape
    ``(..., N)``; leading dimensions index independent systems.  Raises
    :class:`~repro.errors.SimulationError` on any zero pivot (the
    Crank-Nicolson matrices used here are strictly diagonally dominant,
    so a zero pivot indicates a configuration bug).  Inputs are not
    modified; the factorization keeps its own copy of ``lower``.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = diag.shape[-1]
    band_shape = diag.shape[:-1] + (n - 1,)
    if n < 2 or lower.shape != band_shape or upper.shape != band_shape:
        raise SimulationError(
            "tridiagonal system arrays have inconsistent sizes")
    c_prime = np.empty_like(upper)
    denom = np.empty_like(diag)
    denom[..., 0] = diag[..., 0]
    # A zero pivot poisons the rest of its own system with inf/nan but
    # cannot touch neighbours; divisions run silenced and the pivots are
    # audited once at the end, which keeps the hot loop branch-free.
    with np.errstate(divide="ignore", invalid="ignore"):
        c_prime[..., 0] = upper[..., 0] / denom[..., 0]
        for i in range(1, n):
            denom[..., i] = (diag[..., i]
                             - lower[..., i - 1] * c_prime[..., i - 1])
            if i < n - 1:
                c_prime[..., i] = upper[..., i] / denom[..., i]
    if not np.all(denom):
        row = int(np.argwhere(denom == 0.0)[0][-1])
        raise SimulationError(
            f"zero pivot in tridiagonal solve (row {row})")
    return TridiagonalFactorization(lower.copy(), denom, c_prime)


def factor_tridiagonal_shared(lower: np.ndarray, diag: np.ndarray,
                              upper: np.ndarray) -> TridiagonalFactorization:
    """Factor stacked systems, eliminating each *distinct* matrix once.

    Panel batches stack one diffusion system per (WE, species) pair, and
    electrodes sharing a grid, diffusivity and time step contribute
    byte-identical bands — a 16-cell glucose fleet re-eliminates the
    same matrix dozens of times.  This wrapper keys rows by their band
    bytes, runs :func:`factor_tridiagonal` over the unique rows only and
    broadcasts the sweep coefficients back to the full batch.  The
    elimination is independent per row, so the expanded factorization is
    bit-identical to factoring every row directly.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if diag.ndim != 2:
        return factor_tridiagonal(lower, diag, upper)
    n = diag.shape[-1]
    band_shape = diag.shape[:-1] + (n - 1,)
    if n < 2 or lower.shape != band_shape or upper.shape != band_shape:
        raise SimulationError(
            "tridiagonal system arrays have inconsistent sizes")
    unique, inverse = first_occurrences(
        (lower[j].tobytes(), diag[j].tobytes(), upper[j].tobytes())
        for j in range(diag.shape[0]))
    if len(unique) == diag.shape[0]:
        return factor_tridiagonal(lower, diag, upper)
    base = factor_tridiagonal(lower[unique], diag[unique], upper[unique])
    return TridiagonalFactorization(
        lower.copy(), base.denom[inverse], base.c_prime[inverse])


def first_occurrences(keys) -> tuple[list[int], np.ndarray]:
    """Collapse rows with equal keys onto their first occurrence.

    Returns ``(unique, inverse)``: ``unique[s]`` is the index of the
    first row carrying the ``s``-th distinct key, and ``inverse[j]`` the
    slot of row ``j``'s key, so ``per_slot[inverse]`` fans values solved
    once per key back out to every row.  Keys are compared for equality
    only (build them from exact bytes, never a hash, so two rows merge
    only when they are equal); all-distinct keys give the identity.
    """
    first: dict = {}
    unique: list[int] = []
    inverse: list[int] = []
    for j, key in enumerate(keys):
        slot = first.setdefault(key, len(unique))
        if slot == len(unique):
            unique.append(j)
        inverse.append(slot)
    return unique, np.asarray(inverse, dtype=np.intp)


def batch_thomas_solve(lower: np.ndarray, diag: np.ndarray,
                       upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot factor-and-solve over stacked systems.

    Convenience wrapper for callers whose matrix is not reused; steppers
    should hold a :class:`TridiagonalFactorization` instead.
    """
    return factor_tridiagonal(lower, diag, upper).solve(rhs)
