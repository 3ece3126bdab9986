"""Batched surface mechanisms — the chronoamperometry hot path.

A chronoamperometric dwell carries one diffusion field per electroactive
species (oxidase substrate, CYP channels at fixed potential, direct
oxidisers), each consumed at the surface by a linearised rate
``J = a + b*c0``.  The scalar protocol steps these mechanisms one at a
time; :class:`MechanismBatch` stacks every field into one
:class:`~repro.engine.batch.BatchCrankNicolson` state and advances the
whole dwell with one batched linear-surface solve per sample.

Mechanism contract (duck-typed, satisfied by the protocol's
``_MichaelisMentenMechanism`` and ``_LinearSinkMechanism``): every
mechanism exposes ``solver`` and ``field``; Michaelis-Menten films
additionally expose ``film`` (with ``rate``, ``vmax``, ``km``) and are
Newton-relinearised around the surface concentration each step, while
first-order sinks expose a constant ``rate_constant``.  The rate laws
are *precompiled* at construction: the film ``(vmax, km)`` and sink
rate constants are gathered into flat arrays once, so each step is a
handful of elementwise numpy operations over the surface row with no
per-mechanism Python dispatch.  Every operation applies the scalar
arithmetic in the same left-to-right order the mechanisms' own ``step``
methods use, so batched fluxes still match the scalar path bit for
bit.  The surface slopes enter as rank-one Sherman-Morrison corrections
(:meth:`BatchCrankNicolson.step_linear_surface`), so no matrix is ever
refactored, however the Newton relinearisation moves.

The batch solves every mechanism it is given.  Every mechanism is
autonomous — its step reads only its own solver bands, surface response
and volume, ``dt``, profile and rate law — so :func:`mechanism_key`
gathers exactly those values as bytes, and the fleet scheduler's
:class:`~repro.engine.scheduler.DwellBatch` hands the batch one
representative per distinct key.  Keys compare exact bytes, so
``-0.0``, NaN payloads and one-ULP differences stay separate rows.
"""

from __future__ import annotations

import numpy as np

from repro.engine.batch import BatchCrankNicolson
from repro.errors import SimulationError

__all__ = ["MechanismBatch", "mechanism_key"]


def mechanism_key(mech) -> tuple[bytes, ...]:
    """Every value :meth:`MechanismBatch.step` reads for ``mech``, as bytes.

    Two mechanisms with equal keys follow bit-identical trajectories, so
    a caller may solve one and copy its flux to the other.
    """
    solver = mech.solver
    if hasattr(mech, "film"):
        law = (b"film", np.asarray([mech.film.vmax, mech.film.km],
                                   dtype=float).tobytes())
    else:
        law = (b"sink", np.asarray([mech.rate_constant],
                                   dtype=float).tobytes())
    scalars = np.asarray([solver.dt, solver.surface_volume], dtype=float)
    return (*law, scalars.tobytes(),
            *(np.asarray(band, dtype=float).tobytes()
              for band in (*solver.implicit_coefficients,
                           *solver.explicit_coefficients,
                           solver.surface_response(), mech.field)))


class MechanismBatch:
    """Advance every surface mechanism of one dwell in lockstep."""

    def __init__(self, mechanisms) -> None:
        if hasattr(mechanisms, "values"):
            mechanisms = mechanisms.values()
        mechanisms = tuple(mechanisms)
        if not mechanisms:
            raise SimulationError(
                "a mechanism batch needs at least one mechanism")
        for mech in mechanisms:
            if not (hasattr(mech, "film") or hasattr(mech, "rate_constant")):
                raise SimulationError(
                    "mechanisms must expose 'film' (Michaelis-Menten) or "
                    "'rate_constant' (first-order sink)")
        self.mechanisms = mechanisms
        self._m = len(mechanisms)
        is_film = np.asarray([hasattr(mech, "film") for mech in mechanisms])
        # Precompiled step program: the rate-law parameters, gathered by
        # kind into flat arrays once, so step() never touches a
        # mechanism object again.
        self._film_idx = np.flatnonzero(is_film)
        self._sink_idx = np.flatnonzero(~is_film)
        self._vmax = np.asarray([mechanisms[j].film.vmax
                                 for j in self._film_idx], dtype=float)
        self._km = np.asarray([mechanisms[j].film.km
                               for j in self._film_idx], dtype=float)
        self._rate_constants = np.asarray([mechanisms[j].rate_constant
                                           for j in self._sink_idx],
                                          dtype=float)
        self._cn = BatchCrankNicolson([mech.solver for mech in mechanisms])
        self._state = self._cn.stack_states([mech.field
                                             for mech in mechanisms])

    @property
    def batch_size(self) -> int:
        """Mechanisms advanced per step (fluxes returned per call)."""
        return self._m

    def step(self) -> np.ndarray:
        """Advance all mechanisms one dt; return their reaction fluxes.

        Fluxes are mol/(m^2 s) in each mechanism's own convention (the
        value its scalar ``step`` would have returned); pair them with
        ``mechanism.current(area, flux)`` for signed currents.
        """
        a = np.zeros(self._m)
        b = np.zeros(self._m)
        c0 = self._state[:, 0]
        if self._film_idx.size:
            cf = c0[self._film_idx]
            cpos = np.maximum(cf, 0.0)
            rate = self._vmax * cpos / (self._km + cpos)
            # d(rate)/dc at c0 — always >= 0, keeps the matrix dominant.
            slope = self._vmax * self._km / (self._km + cpos) ** 2
            a[self._film_idx] = rate - slope * cf
            b[self._film_idx] = slope
        if self._sink_idx.size:
            b[self._sink_idx] = self._rate_constants
        self._state = self._cn.step_linear_surface(self._state, a, b)
        c0 = self._state[:, 0]
        fluxes = np.empty(self._m)
        if self._film_idx.size:
            cpos = np.maximum(c0[self._film_idx], 0.0)
            fluxes[self._film_idx] = self._vmax * cpos / (self._km + cpos)
        if self._sink_idx.size:
            fluxes[self._sink_idx] = (self._rate_constants
                                      * c0[self._sink_idx])
        return fluxes

    def sync_back(self) -> None:
        """Write the batched profiles back onto the mechanism objects.

        Call before mutating mechanisms externally (e.g. an injection
        lifting bulk boundaries) and rebuild the batch afterwards.
        """
        for mech, field in zip(self.mechanisms,
                               self._cn.unstack(self._state)):
            mech.field = field
