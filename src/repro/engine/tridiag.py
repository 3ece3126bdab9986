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
node count.  The substitutions run in one small C kernel
(``thomas_sweep`` in ``_thomas.c``, built and loaded by
:func:`load_kernel`) over the whole row-major batch, node by node with
the systems in the inner loop so their divides overlap; without a
compiler they run as a Python-float sweep per system.  Both paths
perform the scalar ``thomas_solve``'s operations in its order —
``(rhs[i] - lower[i-1]*d[i-1]) / denom[i]`` forward,
``d[i] - c_prime[i]*x[i+1]`` back — and the kernel is built without
multiply-add contraction, so a batched solve reproduces the scalar
solution bit for bit on either path.  That is what lets the protocols
share one engine without moving any pinned result.

The same library carries ``redox_segment``, which runs a whole segment
of :meth:`repro.engine.redox.RedoxChannelBatch.step` calls in one call
(:meth:`~repro.engine.redox.RedoxChannelBatch.run`).  Both symbols sit
behind the one module handle ``_KERNEL``: setting it to ``None``
switches both off together, and every caller then runs its Python
reference path.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "TridiagonalFactorization",
    "factor_tridiagonal",
    "factor_tridiagonal_shared",
    "batch_thomas_solve",
    "first_occurrences",
    "kernel_loaded",
    "load_kernel",
]

_SOURCE = Path(__file__).with_name("_thomas.c")

#: Never ``-march=native``: the cached library must not depend on the
#: build host's extensions, and no multiply-add may be fused (GCC fuses
#: them by default where the target has FMA), since that moves bits.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
#: Linked after the source: ``redox_segment`` calls libm's ``exp``.
_LIBS = ("-lm",)


def load_kernel(directory: Path | None = None, compiler: str = "cc"):
    """Build (once per source, flags and machine) and load the kernel.

    The library is cached in ``directory``, by default this package's
    ``__pycache__``; when that is not writable and holds no build, one
    is made in a private temporary directory, removed once loaded.  A
    build writes a temporary file and renames it into place, so
    processes building into one directory at once never load a
    half-written library, and a build removes the directory's other
    ``_thomas-*.so`` libraries.  Returns the loaded library, with its
    ``thomas_sweep`` and ``redox_segment`` functions prototyped (one
    handle, so both switch on or off together), or ``None`` when there
    is no compiler or the build or load fails.
    """
    try:
        name = "_thomas-{}.so".format(hashlib.sha256(b"\0".join([
            _SOURCE.read_bytes(), " ".join(_CFLAGS + _LIBS).encode(),
            platform.machine().encode()])).hexdigest()[:16])
        if directory is not None:
            return _load(Path(directory), name, compiler)
        cache = Path(__file__).with_name("__pycache__")
        try:
            cache.mkdir(exist_ok=True)
            writable = os.access(cache, os.W_OK)
        except OSError:
            writable = False
        if writable or (cache / name).exists():
            return _load(cache, name, compiler)
        private = tempfile.mkdtemp(prefix="repro-thomas-")
        try:
            return _load(Path(private), name, compiler)
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired):
        return None


def _load(directory: Path, name: str, compiler: str):
    library = directory / name
    if not library.exists():
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
        os.close(fd)
        try:
            subprocess.run([compiler, *_CFLAGS, "-o", tmp, str(_SOURCE),
                            *_LIBS],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # Libraries of an older source, flags or machine are dead now.
        # A concurrent build's temporary file starts with a dot, so the
        # pattern never matches it.
        for stale in directory.glob("_thomas-*.so"):
            if stale.name != name:
                with contextlib.suppress(OSError):
                    stale.unlink()
    kernel = ctypes.CDLL(str(library))
    pointer, size = ctypes.c_void_p, ctypes.c_long
    kernel.thomas_sweep.argtypes = (size, size) + (pointer,) * 4
    kernel.thomas_sweep.restype = None
    kernel.redox_segment.argtypes = (size, size, size) + (pointer,) * 12
    kernel.redox_segment.restype = None
    return kernel


#: The compiled library, or ``None`` to run the Python reference paths.
_KERNEL = load_kernel()


def kernel_loaded() -> bool:
    """Whether solves and redox segments run in the compiled kernel."""
    return _KERNEL is not None


def _owned(a: np.ndarray) -> np.ndarray:
    """A private, read-only, C-contiguous float64 copy of ``a``."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


class TridiagonalFactorization:
    """The reusable half of a Thomas solve, for one or many systems.

    Holds the sub-diagonal, the pivoted denominators and the eliminated
    super-diagonal (``c_prime``) of ``shape[:-1]`` independent systems,
    as private read-only copies whose addresses are taken once here.
    Instances are produced by :func:`factor_tridiagonal`; every pivot is
    guaranteed nonzero, so :meth:`solve` runs without checks.
    """

    __slots__ = ("lower", "denom", "c_prime", "_args", "_rows")

    def __init__(self, lower: np.ndarray, denom: np.ndarray,
                 c_prime: np.ndarray) -> None:
        self.lower = _owned(lower)
        self.denom = _owned(denom)
        self.c_prime = _owned(c_prime)
        n = self.denom.shape[-1]
        band = self.denom.shape[:-1] + (n - 1,)
        if n < 1 or self.lower.shape != band or self.c_prime.shape != band:
            raise SimulationError(
                "factorization arrays have inconsistent shapes")
        # The kernel's leading arguments: (systems, nodes, coefficient
        # pointers).  Deriving them per solve would cost more than a
        # small solve itself.
        self._args = (ctypes.c_long(self.denom.size // n),
                      ctypes.c_long(n),
                      *(ctypes.c_void_p(a.ctypes.data)
                        for a in (self.lower, self.denom, self.c_prime)))
        # Python-float coefficient rows for the fallback sweep, built on
        # first use (a Python float multiply is several times cheaper
        # than the same op on a 0-d numpy scalar, and bit-identical).
        self._rows = None

    def __reduce__(self):
        # Addresses are per process: an unpickled copy re-derives them.
        return (TridiagonalFactorization,
                (self.lower, self.denom, self.c_prime))

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

        ``rhs`` must have the factorization's full shape ``(..., N)``;
        it is copied once and never modified.  The compiled kernel and
        the Python fallback perform the same IEEE operation sequence
        per element, so results are identical bit for bit whichever
        runs.
        """
        x = np.array(rhs, dtype=float, order="C")
        if x.shape != self.denom.shape:
            raise SimulationError(
                f"rhs shape {x.shape} does not match the factorization "
                f"shape {self.denom.shape}")
        kernel = _KERNEL
        if kernel is None:
            return self._solve_python(x)
        if x.size:
            kernel.thomas_sweep(*self._args,
                                ctypes.byref(ctypes.c_double.from_buffer(x)))
        return x

    def _solve_python(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        if self._rows is None:
            self._rows = list(zip(self.lower.reshape(-1, n - 1).tolist(),
                                  self.denom.reshape(-1, n).tolist(),
                                  self.c_prime.reshape(-1, n - 1).tolist()))
        solved = [_sweep(rhs, *coefficients) for rhs, coefficients
                  in zip(x.reshape(-1, n).tolist(), self._rows)]
        return np.array(solved, dtype=float).reshape(x.shape)


def _sweep(rhs: list, lower: list, denom: list, c_prime: list) -> list:
    """Forward and back substitution of one system, in Python floats."""
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
    return TridiagonalFactorization(lower, denom, c_prime)


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
        lower, base.denom[inverse], base.c_prime[inverse])


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
