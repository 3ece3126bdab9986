"""Working-electrode functionalization: probes, nanostructures, membranes.

Section III of the paper: working electrodes "can be functionalized by
nanostructures, to increase sensitivity; by polymers, to provide long-term
stability; and by the enzyme probe to enhance selectivity."  A
:class:`Functionalization` bundles exactly those three layers:

- ``probe`` — an :class:`~repro.chem.enzymes.Oxidase` or
  :class:`~repro.chem.enzymes.CytochromeP450` (or ``None`` for a blank
  electrode, the CDS reference of Sec. II-C),
- ``nanostructure`` — e.g. carbon nanotubes: multiplies the effective film
  turnover (more enzyme wired per geometric area) and lowers the H2O2
  oxidation overpotential,
- ``membrane`` — a polymer layer trading sensitivity (extra transport
  resistance) for stability (drift suppression) and an extended upper
  linear range (it starves the film, delaying saturation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chem.enzymes import CytochromeP450, Oxidase
from repro.errors import SensorError
from repro.units import ensure_positive

__all__ = [
    "Nanostructure",
    "Membrane",
    "Functionalization",
    "CARBON_NANOTUBES",
    "GOLD_NANOPARTICLES",
    "POLYMER_PERMSELECTIVE",
    "EPOXY_STABILIZING",
    "blank",
    "with_oxidase",
    "with_cytochrome",
]


@dataclass(frozen=True)
class Nanostructure:
    """A nanostructuring layer deposited before the enzyme.

    ``signal_gain`` multiplies the film's maximum turnover (vmax): more
    electroactive area wires more enzyme.  ``h2o2_wave_shift`` (V,
    negative = catalytic) adds to the material's own shift.
    ``cost_per_mm2`` is the added fabrication cost.
    """

    name: str
    signal_gain: float = 1.0
    h2o2_wave_shift: float = 0.0
    k0_gain: float = 1.0
    cost_per_mm2: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SensorError("nanostructure name must be non-empty")
        ensure_positive(self.signal_gain, "signal_gain")
        ensure_positive(self.k0_gain, "k0_gain")


@dataclass(frozen=True)
class Membrane:
    """A polymer membrane over the enzyme film.

    ``permeability`` in (0, 1] scales the analyte's effective mass
    transfer through the layer; ``drift_suppression`` in [0, 1) is the
    fraction of slow baseline drift removed (long-term stability,
    Sec. III); ``range_extension`` (>= 1) multiplies the upper linear
    limit (diffusion-limited films saturate later).
    """

    name: str
    permeability: float = 1.0
    drift_suppression: float = 0.0
    range_extension: float = 1.0
    cost_per_mm2: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SensorError("membrane name must be non-empty")
        if not 0.0 < self.permeability <= 1.0:
            raise SensorError(
                f"permeability must be in (0, 1], got {self.permeability!r}")
        if not 0.0 <= self.drift_suppression < 1.0:
            raise SensorError(
                f"drift_suppression must be in [0, 1), "
                f"got {self.drift_suppression!r}")
        if self.range_extension < 1.0:
            raise SensorError(
                f"range_extension must be >= 1, got {self.range_extension!r}")


#: Multi-walled carbon nanotubes (refs. [8], [15]): the paper notes
#: nanostructuration "brings much larger signals".
CARBON_NANOTUBES = Nanostructure(
    name="carbon_nanotubes", signal_gain=4.0,
    h2o2_wave_shift=-0.10, k0_gain=3.0, cost_per_mm2=0.6,
)

#: Gold nanoparticles: milder gain, good electron transfer.
GOLD_NANOPARTICLES = Nanostructure(
    name="gold_nanoparticles", signal_gain=2.0,
    h2o2_wave_shift=-0.05, k0_gain=2.0, cost_per_mm2=1.0,
)

#: Permselective polymer (e.g. Nafion-like): screens interferents and
#: extends the linear range at some sensitivity cost.
POLYMER_PERMSELECTIVE = Membrane(
    name="permselective_polymer", permeability=0.6,
    drift_suppression=0.5, range_extension=2.0, cost_per_mm2=0.2,
)

#: Epoxy-polyurethane stabilising coat for long-term implants (ref. [3]).
EPOXY_STABILIZING = Membrane(
    name="epoxy_stabilizing", permeability=0.8,
    drift_suppression=0.8, range_extension=1.5, cost_per_mm2=0.3,
)


@dataclass(frozen=True)
class Functionalization:
    """The complete bio-layer stack on one working electrode."""

    probe: Oxidase | CytochromeP450 | None = None
    nanostructure: Nanostructure | None = None
    membrane: Membrane | None = None

    @property
    def is_blank(self) -> bool:
        """True for an enzyme-free electrode (the CDS reference WE)."""
        return self.probe is None

    @property
    def probe_family(self) -> str:
        """``"oxidase"``, ``"cytochrome"`` or ``"blank"``."""
        if self.probe is None:
            return "blank"
        if isinstance(self.probe, Oxidase):
            return "oxidase"
        return "cytochrome"

    @property
    def signal_gain(self) -> float:
        """Net vmax multiplier from nanostructuring."""
        return self.nanostructure.signal_gain if self.nanostructure else 1.0

    @property
    def k0_gain(self) -> float:
        """Net electron-transfer-rate multiplier from nanostructuring."""
        return self.nanostructure.k0_gain if self.nanostructure else 1.0

    @property
    def h2o2_wave_shift(self) -> float:
        """Half-wave shift contributed by the nanostructure, volts."""
        return self.nanostructure.h2o2_wave_shift if self.nanostructure else 0.0

    @property
    def permeability(self) -> float:
        """Mass-transfer scale of the membrane (1.0 when absent)."""
        return self.membrane.permeability if self.membrane else 1.0

    @property
    def drift_suppression(self) -> float:
        """Fraction of slow drift removed by the membrane."""
        return self.membrane.drift_suppression if self.membrane else 0.0

    @property
    def added_cost_per_mm2(self) -> float:
        """Extra fabrication cost of the stack, per mm^2."""
        cost = 0.0
        if self.nanostructure is not None:
            cost += self.nanostructure.cost_per_mm2
        if self.membrane is not None:
            cost += self.membrane.cost_per_mm2
        return cost

    def targets(self) -> tuple[str, ...]:
        """Species this electrode responds to through its probe."""
        if self.probe is None:
            return ()
        if isinstance(self.probe, Oxidase):
            return (self.probe.substrate,)
        return self.probe.substrates

    def with_membrane(self, membrane: Membrane | None) -> "Functionalization":
        """Copy with a different membrane."""
        return replace(self, membrane=membrane)


def blank() -> Functionalization:
    """An enzyme-free electrode (CDS blank reference, Sec. II-C)."""
    return Functionalization(probe=None)


def with_oxidase(probe: Oxidase,
                 nanostructure: Nanostructure | None = None,
                 membrane: Membrane | None = None) -> Functionalization:
    """Functionalize with an oxidase probe."""
    if not isinstance(probe, Oxidase):
        raise SensorError(f"expected an Oxidase, got {type(probe).__name__}")
    return Functionalization(probe=probe, nanostructure=nanostructure,
                             membrane=membrane)


def with_cytochrome(probe: CytochromeP450,
                    nanostructure: Nanostructure | None = None,
                    membrane: Membrane | None = None) -> Functionalization:
    """Functionalize with a cytochrome P450 probe."""
    if not isinstance(probe, CytochromeP450):
        raise SensorError(
            f"expected a CytochromeP450, got {type(probe).__name__}")
    return Functionalization(probe=probe, nanostructure=nanostructure,
                             membrane=membrane)
