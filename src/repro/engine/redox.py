"""Batched coupled ox/red Butler-Volmer channels — the voltammetry hot path.

The scalar CV/DPV simulators advance one
:class:`~repro.measurement.voltammetry._RedoxChannelSimulator` at a time:
per sample, per channel, two explicit applications and two tridiagonal
solves, each an O(N) pure-Python recurrence.  :class:`RedoxChannelBatch`
stacks all 2M fields (oxidised and reduced, every channel) into one
``(2M, N)`` state and advances the whole sweep with **one** batched
solve per time step.

Only the O(M) Butler-Volmer surface coupling stays scalar: one lean
Python loop over the channels, reading the surface column once with
``tolist()`` and keeping every per-channel constant as a Python float.
It calls ``math.exp`` per channel, exactly as the scalar path does, and
must not become ``np.exp``: numpy dispatches ``exp`` to CPU-specific
SIMD kernels whose last bit can differ from libm's (on an AVX-512
x86-64 host with numpy 2.4, for 18,419 of 400,000 uniform draws in
[-50, 50]), which would break bit-identity with the per-channel
simulators on exactly the hosts with the widest vectors.

:meth:`RedoxChannelBatch.run` advances a whole segment — one step per
row of a ``(steps, M)`` potential program — in one call to the compiled
``redox_segment`` (:mod:`repro.engine.tridiag`), which performs every
operation of :meth:`~RedoxChannelBatch.step` in its order and calls
libm's ``exp``, the function ``math.exp`` calls, so it too stays
scalar per channel.  Without the compiled library, ``run`` loops
``step``; both leave the same fluxes and state bit for bit.

Channel contract (duck-typed, satisfied by ``_RedoxChannelSimulator``):
``solver`` (a :class:`~repro.chem.diffusion.CrankNicolsonDiffusion`),
initial ``c_ox``/``c_red`` profiles, and the scalars ``n`` (electrons),
``k0``, ``alpha``, ``e_formal``.  Flux sign convention follows the
scalar simulator: positive flux = net reduction (ox consumed at the
surface, red produced).

:func:`channel_key` collects, as bytes, every per-channel value a step
reads.  The batch itself solves every row it is given; a caller that
also fixes each row's potential program (the fleet scheduler's
:class:`~repro.engine.scheduler.SweepBatch`) extends the key with that
program and hands the batch one representative per distinct key.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem import constants as C
from repro.engine import tridiag
from repro.engine.batch import BatchCrankNicolson
from repro.errors import SimulationError

__all__ = ["RedoxChannelBatch", "channel_key"]


def channel_key(channel) -> tuple[bytes, ...]:
    """Every per-channel value :meth:`RedoxChannelBatch.step` reads.

    The Butler-Volmer constants (``n``, ``k0``, ``alpha``,
    ``e_formal``), the solver's implicit and explicit bands, ``dt``,
    surface volume, surface response and source scale, and the current
    ``c_ox``/``c_red`` profiles, each as exact bytes.  Two channels with
    equal keys driven by the same potentials follow bit-identical
    trajectories.
    """
    solver = channel.solver
    scalars = np.asarray([channel.n, channel.k0, channel.alpha,
                          channel.e_formal, solver.dt, solver.surface_volume,
                          solver.surface_source_scale], dtype=float)
    return (scalars.tobytes(),
            *(np.asarray(band, dtype=float).tobytes()
              for band in (*solver.implicit_coefficients,
                           *solver.explicit_coefficients,
                           solver.surface_response(), channel.c_ox,
                           channel.c_red)))


class RedoxChannelBatch:
    """Advance every coupled ox/red channel of one sweep in lockstep."""

    def __init__(self, channels) -> None:
        channels = tuple(channels)
        if not channels:
            raise SimulationError("a redox batch needs at least one channel")
        self.channels = channels
        m = len(channels)
        self._m = m
        # One stacked operator over 2M systems: rows [0, M) hold the
        # oxidised fields, rows [M, 2M) the reduced fields, so both
        # solves of the scalar path fuse into one sweep on a single
        # tiled factorization (each matrix is eliminated only once).
        self._cn = BatchCrankNicolson([ch.solver for ch in channels],
                                      replicas=2)
        self._state = self._cn.stack_states(
            [ch.c_ox for ch in channels] + [ch.c_red for ch in channels])
        self._n_electrons = [int(ch.n) for ch in channels]
        f = C.F_OVER_RT
        # Per-channel Butler-Volmer constants as Python floats, folded
        # exactly as the scalar step associates them: n*f, -alpha and
        # 1 - alpha are each the first operation the scalar expression
        # performs, so precomputing them moves no bit.
        self._bv = []
        for ch in channels:
            s = float(ch.solver.surface_source_scale)
            w0 = float(ch.solver.surface_response()[0])
            alpha = float(ch.alpha)
            self._bv.append((int(ch.n) * f, float(ch.e_formal),
                             float(ch.k0), -alpha, 1.0 - alpha, s * w0, s))
        self._w = self._cn.surface_responses()  # (2M, N), rows duplicated
        # The same constants, one (M, 7) row per channel, for the kernel.
        self._bv_rows = np.array(self._bv, dtype=float)

    @property
    def batch_size(self) -> int:
        """Channels advanced per step (fluxes returned per call)."""
        return self._m

    @property
    def n_electrons(self) -> list[int]:
        return list(self._n_electrons)

    def step(self, e_applied) -> np.ndarray:
        """Advance all channels one dt at ``e_applied``; return fluxes.

        ``e_applied`` is one shared potential (a scalar) or a per-channel
        potential *program* of shape ``(M,)`` — what lets sweeps with
        different waveforms fuse into one batch.  The returned array
        holds each channel's current-defining reduction flux J,
        mol/(m^2 s), positive = reduction — the same quantity the scalar
        simulator's ``step`` returns.
        """
        m = self._m
        e = np.asarray(e_applied, dtype=float)
        if e.ndim == 0:
            potentials = [float(e)] * m
        elif e.shape == (m,):
            potentials = e.tolist()
        else:
            raise SimulationError(
                f"per-channel potentials must be a scalar or have shape "
                f"({m},); got shape {e.shape}")
        u = self._cn.solve_implicit(self._cn.explicit_rhs(self._state))
        surface = u[:, 0].tolist()
        fluxes = []
        lost = []
        gained = []
        for (nf, e_formal, k0, neg_alpha, beta, sw0, s), e_j, u_ox, u_red \
                in zip(self._bv, potentials, surface, surface[m:]):
            x = nf * (e_j - e_formal)
            x = min(max(x, -500.0), 500.0)
            kf = k0 * math.exp(neg_alpha * x)
            kb = k0 * math.exp(beta * x)
            flux = (kf * u_ox - kb * u_red) / (1.0 + sw0 * (kf + kb))
            fluxes.append(flux)
            scaled = flux * s
            lost.append(-scaled)      # ox field loses the reduced amount
            gained.append(scaled)     # red field gains it
        source = np.array(lost + gained)
        state = source[:, None] * self._w
        state += u
        self._state = np.clip(state, 0.0, None, out=state)
        return np.array(fluxes)

    def run(self, program) -> np.ndarray:
        """Advance all channels one step per row of ``program``.

        ``program`` has shape ``(steps, M)``: row ``k`` is step ``k``'s
        per-channel potentials, as :meth:`step` takes them.  Returns the
        ``(steps, M)`` fluxes and leaves the batch's state where
        ``steps`` :meth:`step` calls would, bit for bit.  The compiled
        ``redox_segment`` runs the whole program in one call when the
        kernel is loaded; otherwise this loops :meth:`step`.
        """
        m = self._m
        program = np.ascontiguousarray(program, dtype=float)
        if program.ndim != 2 or program.shape[1] != m:
            raise SimulationError(
                f"a potential program must have shape (steps, {m}); got "
                f"shape {program.shape}")
        fluxes = np.empty(program.shape)
        kernel = tridiag._KERNEL
        if kernel is None:
            for k, e in enumerate(program):
                fluxes[k] = self.step(e)
            return fluxes
        state = self._state
        work = np.empty_like(state)
        kernel.redox_segment(
            program.shape[0], m, state.shape[1],
            *(a.ctypes.data for a in (*self._cn.bands, self._w,
                                      self._bv_rows, program, state, work,
                                      fluxes)))
        return fluxes

    def sync_back(self) -> None:
        """Write the batched profiles back onto the channel objects."""
        profiles = self._cn.unstack(self._state)
        for j, ch in enumerate(self.channels):
            ch.c_ox = profiles[j]
            ch.c_red = profiles[j + self._m]
