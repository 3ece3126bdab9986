"""Redox thermodynamics and electrode-kinetics laws.

Implements the three relations every electrochemical model in the library is
built from:

- the **Nernst equation** for the equilibrium potential of a redox couple,
- a **sigmoidal oxidation-efficiency** curve ``eta(E)`` describing what
  fraction of an electroactive product (H2O2 for oxidases) is collected at
  a given applied potential — this is what makes the Table I "applied
  potential" column measurable in simulation, and
- the **Butler-Volmer** current-overpotential law used by the cyclic
  voltammetry simulator for cytochrome P450 films.

All potentials are volts vs. the Ag/AgCl reference, matching the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem import constants as C
from repro.errors import ChemistryError
from repro.units import ensure_finite, ensure_positive

__all__ = [
    "nernst_potential",
    "nernst_ratio",
    "RedoxCouple",
    "OxidationEfficiency",
    "butler_volmer_current_density",
    "ButlerVolmerKinetics",
]


def nernst_potential(e_standard: float, n: int, ratio_ox_red: float,
                     temperature_k: float = C.STANDARD_TEMPERATURE) -> float:
    """Equilibrium potential E = E0 + (RT/nF) ln([Ox]/[Red])."""
    ensure_finite(e_standard, "e_standard")
    if n < 1:
        raise ChemistryError(f"n must be >= 1, got {n}")
    ensure_positive(ratio_ox_red, "ratio_ox_red")
    return e_standard + math.log(ratio_ox_red) / (n * C.f_over_rt(temperature_k))


def nernst_ratio(e_applied: float, e_standard: float, n: int,
                 temperature_k: float = C.STANDARD_TEMPERATURE) -> float:
    """Equilibrium [Ox]/[Red] ratio at an applied potential (inverse Nernst)."""
    if n < 1:
        raise ChemistryError(f"n must be >= 1, got {n}")
    exponent = n * C.f_over_rt(temperature_k) * (
        ensure_finite(e_applied, "e_applied") - ensure_finite(e_standard, "e_standard")
    )
    # Clamp to avoid overflow for potentials far from E0; the ratio is then
    # effectively infinite/zero anyway.
    return math.exp(min(max(exponent, -500.0), 500.0))


@dataclass(frozen=True)
class RedoxCouple:
    """A redox couple Ox + n e- <-> Red with formal potential ``e_formal``.

    ``e_formal`` is the formal (conditional) potential vs Ag/AgCl in volts.
    For the cytochrome sensors of Table II this is the tabulated reduction
    potential of the CYP/drug pair.
    """

    name: str
    e_formal: float
    n_electrons: int = 1

    def __post_init__(self) -> None:
        ensure_finite(self.e_formal, "e_formal")
        if self.n_electrons < 1:
            raise ChemistryError(
                f"redox couple {self.name!r}: n_electrons must be >= 1"
            )

    def equilibrium_ratio(self, e_applied: float,
                          temperature_k: float = C.STANDARD_TEMPERATURE) -> float:
        """[Ox]/[Red] in equilibrium with the electrode at ``e_applied``."""
        return nernst_ratio(e_applied, self.e_formal, self.n_electrons,
                            temperature_k)

    def reduced_fraction(self, e_applied: float,
                         temperature_k: float = C.STANDARD_TEMPERATURE) -> float:
        """Equilibrium fraction of the couple in the reduced form."""
        ratio = self.equilibrium_ratio(e_applied, temperature_k)
        return 1.0 / (1.0 + ratio)


@dataclass(frozen=True)
class OxidationEfficiency:
    """Sigmoidal collection efficiency eta(E) of an oxidisable product.

    The fraction of H2O2 (or other product) oxidised at the working
    electrode rises sigmoidally with applied potential around a half-wave
    potential ``e_half`` with slope ``slope`` (volts per e-fold at the
    midpoint; a Nernstian one-electron wave has slope RT/F ~ 25.7 mV):

        eta(E) = eta_max / (1 + exp(-(E - e_half)/slope))

    Table I's "applied potential" for each oxidase is the potential at
    which the wave has effectively saturated; the T1 bench recovers it by
    sweeping E and locating the 95 %-of-plateau point.  Electrode materials
    shift ``e_half`` (carbon nanotubes lower the H2O2 overpotential).
    """

    e_half: float
    slope: float = 0.0257
    eta_max: float = 1.0

    def __post_init__(self) -> None:
        ensure_finite(self.e_half, "e_half")
        ensure_positive(self.slope, "slope")
        if not 0.0 < self.eta_max <= 1.0:
            raise ChemistryError(
                f"eta_max must be in (0, 1], got {self.eta_max!r}"
            )

    def at(self, e_applied):
        """Efficiency at one or many applied potentials (scalar or array)."""
        e = np.asarray(e_applied, dtype=float)
        x = np.clip((e - self.e_half) / self.slope, -500.0, 500.0)
        eta = self.eta_max / (1.0 + np.exp(-x))
        if e.ndim == 0:
            return float(eta)
        return eta

    def potential_for_efficiency(self, fraction: float) -> float:
        """Potential where eta reaches ``fraction`` of ``eta_max``.

        The T1 experiment uses ``fraction=0.95``: the paper's tabulated
        applied potentials sit where the oxidation wave has saturated.
        """
        if not 0.0 < fraction < 1.0:
            raise ChemistryError(f"fraction must be in (0, 1), got {fraction!r}")
        return self.e_half + self.slope * math.log(fraction / (1.0 - fraction))

    def shifted(self, delta_volts: float) -> "OxidationEfficiency":
        """Return a copy with ``e_half`` shifted by ``delta_volts``.

        Used by electrode materials that catalyse (negative shift) or
        hinder (positive shift) the product oxidation.
        """
        return OxidationEfficiency(
            e_half=self.e_half + ensure_finite(delta_volts, "delta_volts"),
            slope=self.slope, eta_max=self.eta_max,
        )


def butler_volmer_current_density(
    eta_overpotential, k0: float, c_ox, c_red,
    n: int = 1, alpha: float = 0.5,
    temperature_k: float = C.STANDARD_TEMPERATURE,
):
    """Butler-Volmer current density for Ox + n e- <-> Red, A/m^2.

    Cathodic (reduction) current is **negative** by the IUPAC convention
    used throughout the library:

        j = n*F*k0 * (c_red * exp((1-alpha)*n*f*eta) - c_ox * exp(-alpha*n*f*eta))

    where ``eta = E - E_formal`` and ``f = F/RT``.  ``k0`` is the standard
    heterogeneous rate constant (m/s); ``c_ox``/``c_red`` the *surface*
    concentrations (mol/m^3).  Accepts scalars or numpy arrays.
    """
    ensure_positive(k0, "k0")
    if n < 1:
        raise ChemistryError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ChemistryError(f"alpha must be in (0, 1), got {alpha!r}")
    f = C.f_over_rt(temperature_k)
    eta = np.asarray(eta_overpotential, dtype=float)
    ox = np.clip(np.asarray(c_ox, dtype=float), 0.0, None)
    red = np.clip(np.asarray(c_red, dtype=float), 0.0, None)
    anodic = np.exp(np.clip((1.0 - alpha) * n * f * eta, -500.0, 500.0))
    cathodic = np.exp(np.clip(-alpha * n * f * eta, -500.0, 500.0))
    j = n * C.FARADAY * k0 * (red * anodic - ox * cathodic)
    if eta.ndim == 0 and np.ndim(c_ox) == 0 and np.ndim(c_red) == 0:
        return float(j)
    return j


@dataclass(frozen=True)
class ButlerVolmerKinetics:
    """Electrode kinetics of a redox couple: (couple, k0, alpha).

    ``k0`` in m/s classifies the couple as reversible (large k0),
    quasi-reversible, or irreversible (small k0); immobilised CYP films
    are quasi-reversible, which broadens and separates the CV peaks.
    """

    couple: RedoxCouple
    k0: float = 1.0e-5
    alpha: float = 0.5

    def __post_init__(self) -> None:
        ensure_positive(self.k0, "k0")
        if not 0.0 < self.alpha < 1.0:
            raise ChemistryError(f"alpha must be in (0, 1), got {self.alpha!r}")

    def rate_constants(self, e_applied: float,
                       temperature_k: float = C.STANDARD_TEMPERATURE,
                       ) -> tuple[float, float]:
        """Forward (reduction) and backward (oxidation) rate constants, m/s.

        kf = k0*exp(-alpha*n*f*(E-E0)), kb = k0*exp((1-alpha)*n*f*(E-E0)).
        These feed the boundary condition of the CV diffusion solver.
        """
        f = C.f_over_rt(temperature_k)
        n = self.couple.n_electrons
        x = n * f * (ensure_finite(e_applied, "e_applied") - self.couple.e_formal)
        x = min(max(x, -500.0), 500.0)
        kf = self.k0 * math.exp(-self.alpha * x)
        kb = self.k0 * math.exp((1.0 - self.alpha) * x)
        return kf, kb
