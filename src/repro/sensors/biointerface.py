"""The silicon biointerface chip of the paper (Fig. 4).

The paper's platform is a silicon die carrying **five working electrodes**
(thin-film gold), **one counter** (gold) and **one reference** (silver),
passivated with SiO2, with pads matching an off-the-shelf interface;
electrode area 0.23 mm^2, "but can be further decreased".

:class:`BioInterface` models the chip: the electrode set, the physical
layout (a WE row with the RE/CE alongside, as in Fig. 4), pad count, and
die-area bookkeeping used by the platform cost model.  The concrete
paper panel (glucose / lactate / glutamate / CYP2B4 / cholesterol) is
assembled by :func:`repro.data.catalog.paper_biointerface` to keep the
data layer separate from this geometry layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.solution import Chamber
from repro.errors import SensorError
from repro.sensors.cell import CrosstalkModel, ElectrochemicalCell
from repro.sensors.electrode import Electrode, ElectrodeRole, WorkingElectrode
from repro.sensors.materials import get_material
from repro.units import ensure_positive, m2_to_mm2

__all__ = ["BioInterface", "PAPER_WE_COUNT"]

#: Number of working electrodes on the paper's chip (Fig. 4).
PAPER_WE_COUNT = 5


@dataclass
class BioInterface:
    """A single-die biointerface: n WEs + CE + RE behind a pad row.

    Parameters
    ----------
    name:
        Chip identifier.
    working_electrodes:
        The functionalized WEs, in layout order.
    reference, counter:
        The shared RE (silver) and CE (gold) pads.
    we_pitch:
        Centre-to-centre WE spacing, m.
    pad_pitch:
        Bond-pad pitch, m (pads = WEs + RE + CE, one signal each).
    passivation:
        Name of the passivation layer (SiO2 on the paper's chip).
    """

    name: str
    working_electrodes: list[WorkingElectrode]
    reference: Electrode
    counter: Electrode
    we_pitch: float = 1.0e-3
    pad_pitch: float = 4.0e-4
    passivation: str = "SiO2"

    def __post_init__(self) -> None:
        if not self.working_electrodes:
            raise SensorError("a biointerface needs at least one WE")
        names = [we.name for we in self.working_electrodes]
        if len(set(names)) != len(names):
            raise SensorError(f"duplicate WE names on chip: {names}")
        if self.reference.role is not ElectrodeRole.REFERENCE:
            raise SensorError("reference pad must have role RE")
        if self.counter.role is not ElectrodeRole.COUNTER:
            raise SensorError("counter pad must have role CE")
        ensure_positive(self.we_pitch, "we_pitch")
        ensure_positive(self.pad_pitch, "pad_pitch")

    # -- structure -------------------------------------------------------------

    @property
    def n_working(self) -> int:
        return len(self.working_electrodes)

    @property
    def pad_count(self) -> int:
        """Bond pads: one per electrode (n WEs + RE + CE)."""
        return self.n_working + 2

    @property
    def die_area(self) -> float:
        """Estimated die area, m^2.

        Electrode row (pitch x count) plus RE/CE strip plus the pad row —
        a simple but monotone model: more/larger electrodes always cost
        die area, which is what the cost-driven exploration needs.
        """
        we_row = self.we_pitch * self.we_pitch * self.n_working
        re_ce = 4.0 * (self.reference.area + self.counter.area)
        pads = self.pad_pitch * self.pad_pitch * self.pad_count * 2.0
        routing = 0.3 * (we_row + re_ce + pads)
        return we_row + re_ce + pads + routing

    def layout_summary(self) -> str:
        """Human-readable chip summary (used by reports and examples)."""
        lines = [
            f"BioInterface {self.name!r}: {self.n_working} WE + CE + RE, "
            f"{self.pad_count} pads, die ~{m2_to_mm2(self.die_area):.1f} mm^2,",
            f"  passivation {self.passivation}, WE pitch "
            f"{self.we_pitch * 1e3:.2f} mm",
        ]
        for we in self.working_electrodes:
            probe = we.probe.display_name if we.probe else "blank"
            targets = ", ".join(we.targets()) or "-"
            lines.append(
                f"  {we.name}: {we.material.display_name}, "
                f"{m2_to_mm2(we.area):.2f} mm^2, probe={probe}, "
                f"targets=[{targets}]")
        lines.append(
            f"  RE: {self.reference.material.display_name}, "
            f"CE: {self.counter.material.display_name}")
        return "\n".join(lines)

    # -- cell construction -------------------------------------------------------

    def as_cell(self, chamber: Chamber,
                crosstalk: CrosstalkModel | None = None) -> ElectrochemicalCell:
        """Wrap the chip and a chamber into an electrochemical cell."""
        return ElectrochemicalCell(
            chamber=chamber,
            working_electrodes=list(self.working_electrodes),
            reference=self.reference,
            counter=self.counter,
            we_pitch=self.we_pitch,
            crosstalk=crosstalk,
        )

    # -- factory -----------------------------------------------------------------

    @classmethod
    def gold_chip(cls, name: str,
                  working_electrodes: list[WorkingElectrode],
                  we_area: float | None = None) -> "BioInterface":
        """A paper-style chip: gold CE sized to the WEs, silver RE.

        ``we_area`` only sizes the CE/RE pads; the WEs keep their own
        areas (pass pre-built WEs).
        """
        if we_area is None:
            we_area = max(we.area for we in working_electrodes)
        reference = Electrode(name="RE", role=ElectrodeRole.REFERENCE,
                              material=get_material("silver"),
                              area=we_area)
        counter = Electrode(name="CE", role=ElectrodeRole.COUNTER,
                            material=get_material("gold"),
                            area=2.0 * we_area)
        return cls(name=name, working_electrodes=working_electrodes,
                   reference=reference, counter=counter)
