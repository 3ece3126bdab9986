"""Electrode geometry and the functionalized working electrode.

An :class:`Electrode` is a metal pad with a role (working / reference /
counter), a material, and an area; the paper's platform uses 0.23 mm^2
pads ("but can be further decreased", Sec. III).  A
:class:`WorkingElectrode` adds the bio-layer stack and exposes the
*effective* electrochemical parameters the simulators consume:

- the effective Nernst diffusion-layer thickness, which interpolates
  between the planar quiescent value and the microdisk limit
  ``pi*r/4`` — this is the quantitative form of the paper's claim that
  smaller electrodes respond faster,
- the effective enzyme film (nanostructure gain applied),
- the effective H2O2 oxidation wave (material + nanostructure shifts),
- steady-state faradaic current for a given applied potential and chamber.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.chem import constants as C
from repro.chem.analytic import planar_response_time
from repro.chem.enzymes import CytochromeP450, Oxidase
from repro.chem.kinetics import MichaelisMentenFilm, steady_state_turnover_flux
from repro.chem.redox import OxidationEfficiency
from repro.chem.solution import Chamber
from repro.chem.species import get_species
from repro.errors import SensorError
from repro.sensors.functionalization import Functionalization, blank
from repro.sensors.materials import ElectrodeMaterial, get_material
from repro.units import ensure_non_negative, ensure_positive

__all__ = [
    "ElectrodeRole",
    "Electrode",
    "WorkingElectrode",
    "PAPER_ELECTRODE_AREA",
]

#: The electrode area of the paper's biointerface, m^2 (0.23 mm^2, Sec. III).
PAPER_ELECTRODE_AREA = 0.23e-6


class ElectrodeRole(enum.Enum):
    """The three roles of a classic electrochemical cell (Sec. II)."""

    WORKING = "WE"
    REFERENCE = "RE"
    COUNTER = "CE"


@dataclass(frozen=True)
class Electrode:
    """A bare electrode pad.

    Parameters
    ----------
    name:
        Identifier within its platform (e.g. ``"WE1"``).
    role:
        Working, reference or counter.
    material:
        An :class:`~repro.sensors.materials.ElectrodeMaterial` or a
        registered material name.
    area:
        Geometric area, m^2.
    """

    name: str
    role: ElectrodeRole
    material: ElectrodeMaterial
    area: float = PAPER_ELECTRODE_AREA

    def __post_init__(self) -> None:
        if not self.name:
            raise SensorError("electrode name must be non-empty")
        if isinstance(self.material, str):
            object.__setattr__(self, "material", get_material(self.material))
        ensure_positive(self.area, "area")
        if (self.role is ElectrodeRole.REFERENCE
                and not self.material.suitable_reference):
            raise SensorError(
                f"electrode {self.name!r}: material "
                f"{self.material.name!r} is not suitable as a reference "
                f"(the paper uses evaporated silver)")

    @property
    def equivalent_radius(self) -> float:
        """Radius of the equal-area disk, m."""
        return math.sqrt(self.area / math.pi)

    @property
    def capacitance(self) -> float:
        """Double-layer capacitance, F (specific capacitance x real area)."""
        return (self.material.double_layer_capacitance
                * self.material.roughness * self.area)

    def charging_current(self, scan_rate: float) -> float:
        """Capacitive background ``i = Cdl * A * dE/dt``, amperes.

        Proportional to area — the background-current argument for
        microelectrodes (Sec. III).  ``scan_rate`` in V/s (signed).
        """
        return self.capacitance * scan_rate

    def leakage_current(self) -> float:
        """Residual faradaic background at working potentials, amperes."""
        return self.material.leakage_density * self.area

    def with_area(self, area: float) -> "Electrode":
        """Copy with a different area (scaling studies)."""
        return Electrode(self.name, self.role, self.material,
                         ensure_positive(area, "area"))


@dataclass(frozen=True)
class WorkingElectrode:
    """A working electrode with its functionalization stack.

    Composition over inheritance: wraps a bare :class:`Electrode` (whose
    role must be WORKING) plus a
    :class:`~repro.sensors.functionalization.Functionalization`.
    """

    electrode: Electrode
    functionalization: Functionalization = field(default_factory=blank)
    #: Nernst-layer thickness of the surrounding (quiescent) solution, m.
    nernst_layer: float = C.NERNST_LAYER_QUIESCENT
    #: RMS electrochemical background-noise density at the sensor node,
    #: A/sqrt(Hz) per m of equivalent radius — the paper notes sensor noise
    #: "is hard to quantify analytically, but it can be measured
    #: experimentally"; we model it as scaling with electrode perimeter.
    sensor_noise_density: float = 2.0e-9

    def __post_init__(self) -> None:
        if self.electrode.role is not ElectrodeRole.WORKING:
            raise SensorError(
                f"electrode {self.electrode.name!r} has role "
                f"{self.electrode.role.value}, expected WE")
        ensure_positive(self.nernst_layer, "nernst_layer")
        ensure_non_negative(self.sensor_noise_density, "sensor_noise_density")

    # -- convenience passthroughs ---------------------------------------------

    @property
    def name(self) -> str:
        return self.electrode.name

    @property
    def area(self) -> float:
        return self.electrode.area

    @property
    def material(self) -> ElectrodeMaterial:
        return self.electrode.material

    @property
    def probe(self) -> Oxidase | CytochromeP450 | None:
        return self.functionalization.probe

    @property
    def is_blank(self) -> bool:
        return self.functionalization.is_blank

    def targets(self) -> tuple[str, ...]:
        """Species this electrode senses through its probe."""
        return self.functionalization.targets()

    # -- effective transport parameters ---------------------------------------

    def effective_nernst_layer(self, species: str | None = None) -> float:
        """Effective diffusion-layer thickness, m.

        Combines the planar quiescent layer with the microdisk limit
        ``pi*r/4`` as parallel transport resistances:
        ``1/delta_eff = 1/delta_planar + 1/delta_disk``.  Large electrodes
        recover the planar value; microelectrodes the disk value — and
        with it the shorter response time of Sec. III.
        """
        delta_disk = math.pi * self.electrode.equivalent_radius / 4.0
        return 1.0 / (1.0 / self.nernst_layer + 1.0 / delta_disk)

    def mass_transfer_coefficient(self, species: str) -> float:
        """m = D_eff / delta_eff for ``species``, m/s (membrane included)."""
        sp = get_species(species)
        d_eff = sp.diffusivity * self.functionalization.permeability
        return d_eff / self.effective_nernst_layer(species)

    def response_time(self, species: str, settle_fraction: float = 0.9) -> float:
        """Diffusive settling time to ``settle_fraction`` of steady state, s."""
        sp = get_species(species)
        d_eff = sp.diffusivity * self.functionalization.permeability
        return planar_response_time(self.effective_nernst_layer(species),
                                    d_eff, settle_fraction)

    # -- effective electrochemical parameters ----------------------------------

    def effective_film(self) -> MichaelisMentenFilm:
        """The probe's film with the nanostructure gain applied.

        Only meaningful for oxidase probes; raises otherwise.
        """
        probe = self.probe
        if not isinstance(probe, Oxidase):
            raise SensorError(
                f"electrode {self.name!r} has no oxidase film")
        return probe.film.scaled(self.functionalization.signal_gain)

    def effective_h2o2_wave(self) -> OxidationEfficiency:
        """The H2O2 collection wave with material/nanostructure shifts."""
        probe = self.probe
        if not isinstance(probe, Oxidase):
            raise SensorError(
                f"electrode {self.name!r} has no oxidase probe")
        shift = (self.material.h2o2_wave_shift
                 + self.functionalization.h2o2_wave_shift)
        return probe.h2o2_wave.shifted(shift)

    def effective_k0(self, substrate: str) -> float:
        """Heterogeneous rate constant for a CYP channel on this surface."""
        probe = self.probe
        if not isinstance(probe, CytochromeP450):
            raise SensorError(
                f"electrode {self.name!r} has no cytochrome probe")
        channel = probe.channel_for(substrate)
        return (channel.kinetics.k0 * self.material.k0_scale
                * self.functionalization.k0_gain)

    # -- steady-state faradaic response ----------------------------------------

    def steady_state_current(self, e_applied: float, chamber: Chamber) -> float:
        """Total steady faradaic current at ``e_applied``, amperes.

        Sums, as applicable:

        - the oxidase H2O2-oxidation current
          ``i = n_e * F * A * eta(E) * v_ss(c_bulk)``,
        - CYP channel currents at fixed potential (the reduction plateau
          scaled by the Nernstian driven fraction),
        - direct oxidation of species like dopamine/etoposide on *any*
          electrode — including blanks, which is the paper's CDS caveat,
        - the material's faradaic leakage.
        """
        total = self.electrode.leakage_current()
        probe = self.probe
        if isinstance(probe, Oxidase):
            total += self.oxidase_current(probe, e_applied, chamber)
        elif isinstance(probe, CytochromeP450):
            total += self.cyp_fixed_potential_current(probe, e_applied, chamber)
        total += self.direct_oxidation_current(e_applied, chamber)
        return total

    def oxidase_current(self, probe: Oxidase, e_applied: float,
                         chamber: Chamber) -> float:
        c_bulk = chamber.bulk(probe.substrate)
        if c_bulk <= 0.0:
            return 0.0
        film = self.effective_film()
        m = self.mass_transfer_coefficient(probe.substrate)
        flux = steady_state_turnover_flux(c_bulk, film, m)
        eta = self.effective_h2o2_wave().at(e_applied)
        return (probe.electrons_per_substrate * C.FARADAY * self.area
                * eta * flux)

    def cyp_fixed_potential_current(self, probe: CytochromeP450,
                                     e_applied: float,
                                     chamber: Chamber) -> float:
        """Reduction current (negative) of every channel at fixed potential."""
        total = 0.0
        for channel in probe.channels:
            c_bulk = chamber.bulk(channel.substrate)
            if c_bulk <= 0.0:
                continue
            sp = get_species(channel.substrate)
            m = self.mass_transfer_coefficient(channel.substrate)
            n = channel.kinetics.couple.n_electrons
            plateau = n * C.FARADAY * self.area * m * c_bulk
            saturation = c_bulk / (channel.km + c_bulk)
            driven = channel.kinetics.couple.reduced_fraction(e_applied)
            gain = self.functionalization.signal_gain
            total -= plateau * channel.efficiency * gain * saturation * driven
        return total

    def direct_oxidation_current(self, e_applied: float,
                                  chamber: Chamber) -> float:
        """Unmediated oxidation of direct oxidisers present in the chamber."""
        total = 0.0
        for name in chamber.species_present():
            sp = get_species(name)
            if sp.direct_oxidation_potential is None:
                continue
            wave = OxidationEfficiency(e_half=sp.direct_oxidation_potential)
            m = sp.diffusivity / self.effective_nernst_layer(name)
            plateau = (sp.n_electrons * C.FARADAY * self.area * m
                       * chamber.bulk(name))
            total += plateau * wave.at(e_applied)
        return total
