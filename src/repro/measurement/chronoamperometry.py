"""Chronoamperometry: fixed-potential current-versus-time measurement.

The oxidase detection mode of the paper (Sec. I-B): hold the working
electrode at the applied potential of Table I, watch the current rise
after each analyte injection and settle toward a steady state (Fig. 3
shows ~30 s for a glucose sensor).

The transient is the diffusion layer re-equilibrating, so the simulator
integrates the 1-D substrate field with the enzyme film as a
Newton-linearised Michaelis-Menten boundary (Crank-Nicolson, implicit
surface term).  Every consuming mechanism on the electrode contributes:

- oxidase films (H2O2 path, collection efficiency at the held potential),
- CYP channels held below their reduction potential (linear sink),
- direct oxidisers (dopamine/etoposide) on any electrode — including
  blanks, which is what breaks CDS for those molecules.

All mechanisms of a dwell advance together through
:class:`repro.engine.mechanisms.MechanismBatch` — one batched
linear-surface solve per sample; the ``_Mechanism`` classes stay as the
scalar reference the engine is built from (and verified against).

The mechanism-building machinery is exposed as engine-facing module
functions (:func:`build_mechanisms`, :func:`refresh_mechanisms`,
:func:`initial_mechanism_current`, :func:`static_current`) and bundled
per electrode by :class:`ChronoDwell`, so cross-electrode and cross-cell
steppers (:class:`~repro.measurement.panel.PanelProtocol`'s fused path,
:class:`~repro.engine.scheduler.DwellBatch`) can advance many dwells
through one shared solve.  :class:`Chronoamperometry` itself integrates
through a single-dwell :class:`~repro.engine.scheduler.DwellBatch`, so
there is exactly one stepping code path at every fan-out level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem import constants as C
from repro.chem.diffusion import CrankNicolsonDiffusion, Grid1D
from repro.chem.enzymes import CytochromeP450, Oxidase
from repro.chem.redox import OxidationEfficiency
from repro.chem.solution import InjectionSchedule
from repro.chem.species import get_species
from repro.electronics.chain import AcquisitionChain
from repro.electronics.waveform import uniform_sample_times
from repro.engine.scheduler import DwellBatch
from repro.errors import ProtocolError
from repro.measurement.trace import Trace
from repro.sensors.cell import ElectrochemicalCell
from repro.sensors.electrode import WorkingElectrode
from repro.units import ensure_positive

__all__ = [
    "Chronoamperometry",
    "ChronoamperometryResult",
    "ChronoDwell",
    "build_mechanisms",
    "refresh_mechanisms",
    "initial_mechanism_current",
    "static_current",
]

#: Effective heterogeneous rate for species that oxidise directly on the
#: electrode (transport-limited once past their wave), m/s.
_DIRECT_RATE = 1.0e-3


class _Mechanism:
    """One consuming surface reaction on one diffusion field."""

    def __init__(self, solver: CrankNicolsonDiffusion, c0_field: np.ndarray,
                 electrons: float, sign: float) -> None:
        self.solver = solver
        self.field = c0_field
        self.electrons = electrons
        self.sign = sign  # +1 anodic (oxidation), -1 cathodic (reduction)

    def step(self) -> float:
        """Advance dt; return the reaction flux, mol/(m^2 s)."""
        raise NotImplementedError

    def current(self, area: float, flux: float) -> float:
        return self.sign * self.electrons * C.FARADAY * area * flux


class _MichaelisMentenMechanism(_Mechanism):
    """Oxidase film: Newton-linearised MM sink, current via eta(E)."""

    def __init__(self, solver, field, film, eta: float, electrons: int):
        super().__init__(solver, field, electrons * eta, sign=+1.0)
        self.film = film

    def step(self) -> float:
        c0 = float(self.field[0])
        rate = self.film.rate(c0)
        # d(rate)/dc at c0 — always >= 0, keeps the matrix dominant.
        slope = self.film.vmax * self.film.km / (self.film.km + max(c0, 0.0)) ** 2
        a = rate - slope * c0
        self.field = self.solver.step_linear_surface(self.field, a, slope)
        return self.film.rate(float(self.field[0]))


class _LinearSinkMechanism(_Mechanism):
    """First-order surface sink (CYP at fixed E, direct oxidisers)."""

    def __init__(self, solver, field, rate_constant: float,
                 electrons: float, sign: float):
        super().__init__(solver, field, electrons, sign)
        self.rate_constant = max(rate_constant, 0.0)

    def step(self) -> float:
        self.field = self.solver.step_linear_surface(
            self.field, 0.0, self.rate_constant)
        return self.rate_constant * float(self.field[0])


# -- engine-facing dwell chemistry ------------------------------------------------


def _diffusion_field(we: WorkingElectrode, species: str, bulk: float,
                     dt: float, n_nodes: int,
                     ) -> tuple[CrankNicolsonDiffusion, np.ndarray]:
    """A species' solver + initial profile over this electrode's layer."""
    sp = get_species(species)
    d_eff = sp.diffusivity * we.functionalization.permeability
    delta = we.effective_nernst_layer(species)
    grid = Grid1D.uniform(delta, n_nodes)
    solver = CrankNicolsonDiffusion(grid, d_eff, dt,
                                    bulk_boundary="dirichlet")
    field = np.full(grid.n_nodes, max(bulk, 0.0))
    return solver, field


def build_mechanisms(we: WorkingElectrode, chamber, e: float, dt: float,
                     n_nodes: int = 60) -> dict[str, _Mechanism]:
    """One consuming mechanism per electroactive species on ``we``.

    Oxidase probes contribute their substrate's Michaelis-Menten film,
    CYP probes one first-order sink per channel at the held potential,
    and every species in the chamber with a direct-oxidation wave adds a
    sink on any electrode (including blanks — what breaks CDS for those
    molecules).
    """
    mechanisms: dict[str, _Mechanism] = {}
    probe = we.probe
    if isinstance(probe, Oxidase):
        species = probe.substrate
        solver, field = _diffusion_field(we, species, chamber.bulk(species),
                                         dt, n_nodes)
        eta = we.effective_h2o2_wave().at(e)
        mechanisms[species] = _MichaelisMentenMechanism(
            solver, field, we.effective_film(), eta,
            probe.electrons_per_substrate)
    elif isinstance(probe, CytochromeP450):
        for channel in probe.channels:
            species = channel.substrate
            bulk = chamber.bulk(species)
            saturation = channel.km / (channel.km + bulk) if bulk else 1.0
            gain = we.functionalization.signal_gain
            solver, field = _diffusion_field(we, species,
                                             bulk * channel.efficiency
                                             * saturation * gain, dt, n_nodes)
            kf, _ = channel.kinetics.rate_constants(e)
            kf *= we.material.k0_scale * we.functionalization.k0_gain
            n = channel.kinetics.couple.n_electrons
            mechanisms[species] = _LinearSinkMechanism(
                solver, field, kf, n, sign=-1.0)
    for name in chamber.species_present():
        sp = get_species(name)
        if sp.direct_oxidation_potential is None or name in mechanisms:
            continue
        wave = OxidationEfficiency(e_half=sp.direct_oxidation_potential)
        solver, field = _diffusion_field(we, name, chamber.bulk(name),
                                         dt, n_nodes)
        mechanisms[name] = _LinearSinkMechanism(
            solver, field, _DIRECT_RATE * wave.at(e),
            sp.n_electrons, sign=+1.0)
    return mechanisms


def refresh_mechanisms(mechanisms: dict[str, _Mechanism],
                       we: WorkingElectrode, chamber, e: float,
                       dt: float, n_nodes: int = 60) -> None:
    """Refresh bulk boundaries after an injection (create new fields).

    Existing mechanisms keep their relaxed profile and only lift the
    bulk boundary node — stirring refreshes the bulk instantly, the
    layer lags — while newly present species get fresh fields.
    """
    rebuilt = build_mechanisms(we, chamber, e, dt, n_nodes)
    for name, fresh in rebuilt.items():
        if name in mechanisms:
            old = mechanisms[name]
            new_bulk = float(fresh.field[-1])
            old.field = old.field.copy()
            old.field[-1] = new_bulk
            if isinstance(old, _LinearSinkMechanism) and isinstance(
                    fresh, _LinearSinkMechanism):
                old.rate_constant = fresh.rate_constant
        else:
            mechanisms[name] = fresh


def initial_mechanism_current(we: WorkingElectrode,
                              mechanisms: dict[str, _Mechanism]) -> float:
    """Mechanism current at t=0 (surface still at bulk concentration)."""
    total = 0.0
    for mech in mechanisms.values():
        if isinstance(mech, _MichaelisMentenMechanism):
            flux = mech.film.rate(float(mech.field[0]))
        elif isinstance(mech, _LinearSinkMechanism):
            flux = mech.rate_constant * float(mech.field[0])
        else:  # pragma: no cover - no other mechanisms exist
            flux = 0.0
        total += mech.current(we.area, flux)
    return total


def static_current(cell: ElectrochemicalCell, we_name: str,
                   e: float) -> float:
    """Leakage and (steady) cross-talk — not transient-simulated."""
    we = cell.working_electrode(we_name)
    static = we.electrode.leakage_current()
    if len(cell.working_electrodes) > 1:
        static += cell.crosstalk_current(we_name, e)
    return static


class ChronoDwell:
    """Engine-facing chemistry of one chronoamperometric dwell on one WE.

    Everything :meth:`Chronoamperometry.simulate_true_current` tracks
    for one electrode — mechanism set, its own chamber copy, static
    current, injection schedule — packaged so cross-electrode and
    cross-cell steppers (:class:`~repro.measurement.panel.PanelProtocol`
    and :class:`~repro.engine.scheduler.AssayScheduler`, through
    :class:`~repro.engine.scheduler.DwellBatch`) can advance many dwells
    through one shared engine.  The caller's chamber is copied —
    protocols never mutate their inputs.
    """

    def __init__(self, cell: ElectrochemicalCell, we_name: str,
                 e_applied: float, dt: float,
                 injections: InjectionSchedule | None = None,
                 n_nodes: int = 60, e_setpoint: float | None = None) -> None:
        self.we = cell.working_electrode(we_name)
        self.we_name = we_name
        self.e_applied = float(e_applied)
        self.e_setpoint = (float(e_setpoint) if e_setpoint is not None
                           else float(e_applied))
        self.dt = ensure_positive(dt, "dt")
        self.n_nodes = int(n_nodes)
        self.injections = injections if injections else InjectionSchedule()
        self.chamber = cell.chamber.copy()
        self.static = static_current(cell, we_name, self.e_applied)
        self.mechanisms = build_mechanisms(
            self.we, self.chamber, self.e_applied, self.dt, self.n_nodes)

    def initial_current(self) -> float:
        """Cell current at t=0 (static plus instant mechanism response)."""
        return self.static + initial_mechanism_current(self.we,
                                                       self.mechanisms)

    def apply_injection_events(self, events) -> None:
        """Inject each event into this dwell's chamber and refresh fields.

        Call only with the batched state synced back onto the mechanism
        objects (:meth:`~repro.engine.mechanisms.MechanismBatch.
        sync_back`); the caller rebuilds its engine afterwards.
        """
        for injection in events:
            self.chamber.inject(injection)
            refresh_mechanisms(self.mechanisms, self.we, self.chamber,
                               self.e_applied, self.dt, self.n_nodes)

    def current_coefficients(self) -> np.ndarray:
        """One current-per-flux factor per mechanism, in mechanism order.

        The dwell's current is ``static + sum(coef * flux)`` over its
        mechanisms, summed left to right.  Each factor is ``sign *
        electrons * F * area``, multiplied out in the same left-to-right
        order ``_Mechanism.current`` uses, so
        :class:`~repro.engine.scheduler.DwellBatch`'s vectorised
        segments reproduce the per-mechanism scalar currents bit for
        bit.  Recompute after injections — they can add mechanisms.
        """
        area = self.we.area
        return np.asarray([mech.sign * mech.electrons * C.FARADAY * area
                           for mech in self.mechanisms.values()])


@dataclass(frozen=True)
class ChronoamperometryResult:
    """Outcome of one chronoamperometric run on one WE."""

    trace: Trace
    we_name: str
    e_setpoint: float
    e_applied: float


class Chronoamperometry:
    """Fixed-potential protocol with an injection schedule.

    Parameters
    ----------
    e_setpoint:
        Requested WE-RE potential, volts (Table I column for oxidases).
    duration:
        Total record length, seconds.
    sample_rate:
        Samples per second (also the chemistry time step).
    injections:
        Bulk-concentration steps over time; empty by default (measure a
        pre-loaded chamber).
    n_nodes:
        Spatial nodes across each electrode's diffusion layer.
    """

    def __init__(self, e_setpoint: float, duration: float,
                 sample_rate: float = 10.0,
                 injections: InjectionSchedule | None = None,
                 n_nodes: int = 60) -> None:
        self.e_setpoint = float(e_setpoint)
        self.duration = ensure_positive(duration, "duration")
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")
        self.injections = injections if injections else InjectionSchedule()
        if n_nodes < 5:
            raise ProtocolError("n_nodes must be >= 5")
        self.n_nodes = n_nodes
        if self.injections.duration_hint >= self.duration:
            raise ProtocolError(
                "the last injection falls outside the record duration")

    # -- chemistry ---------------------------------------------------------------

    def simulate_true_current(self, cell: ElectrochemicalCell, we_name: str,
                              e_applied: float | None = None,
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate the cell chemistry; return (times, currents).

        ``e_applied`` defaults to the setpoint (protocol users pass the
        potentiostat's actual output).  The caller's chamber is copied —
        protocols never mutate their inputs.
        """
        e = self.e_setpoint if e_applied is None else float(e_applied)
        times = uniform_sample_times(self.duration, self.sample_rate)
        dwell = self.build_dwell(cell, we_name, e_applied=e)
        currents = DwellBatch([dwell], times).simulate()[0]
        return times, currents

    def build_dwell(self, cell: ElectrochemicalCell, we_name: str,
                    e_applied: float | None = None) -> ChronoDwell:
        """This protocol's dwell chemistry for one WE, engine-ready.

        The returned :class:`ChronoDwell` is what a
        :class:`~repro.engine.scheduler.DwellBatch` fuses across
        electrodes and cells; :meth:`simulate_true_current` is exactly a
        single-dwell batch of it.
        """
        e = self.e_setpoint if e_applied is None else float(e_applied)
        return ChronoDwell(cell, we_name, e, dt=1.0 / self.sample_rate,
                           injections=self.injections, n_nodes=self.n_nodes,
                           e_setpoint=self.e_setpoint)

    def run(self, cell: ElectrochemicalCell, we_name: str,
            chain: AcquisitionChain,
            rng: np.random.Generator | None = None) -> ChronoamperometryResult:
        """Full protocol: chemistry transient digitised through ``chain``."""
        e_applied = chain.potentiostat.applied_potential(self.e_setpoint)
        times, currents = self.simulate_true_current(cell, we_name, e_applied)
        we = cell.working_electrode(we_name)
        reading = chain.digitize(times, currents, we=we, rng=rng)
        trace = Trace(times=times, current=reading.current_estimate,
                      true_current=currents, channel=we_name,
                      reading=reading)
        return ChronoamperometryResult(
            trace=trace, we_name=we_name,
            e_setpoint=self.e_setpoint, e_applied=float(e_applied))
