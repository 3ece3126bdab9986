"""Cyclic voltammetry: the CYP detection mode (paper Sec. I-B).

"Cyclic voltammetry applies a linear-sweep potential forward and backward
within a potential window ... the current is plotted as function of the
voltage and the plot is characterized by some peaks, whose height is
proportional to the target concentration, while position gives information
on the type of molecules."

The simulator integrates, per CYP substrate channel, the coupled oxidised/
reduced diffusion fields with a Butler-Volmer boundary.  Both fields share
one Crank-Nicolson operator; the nonlinear surface coupling is resolved
*exactly* per step through a Schur complement:

    J = (kf*u_ox0 - kb*u_red0) / (1 + s*w0*(kf + kb))

where ``u`` are the unconstrained CN solutions, ``w`` the cached surface
response and ``s = dt/V0``.  No inner iteration is needed, and the scheme
is unconditionally stable.

On top of the faradaic peaks the cell contributes the double-layer
charging current (a hysteresis rectangle proportional to electrode area
and scan rate — the background the paper's microelectrode argument is
about) and, for oxidase-functionalized electrodes swept anodically, the
steady H2O2 oxidation wave.

The protocol plans its sweep as a :class:`CvSweep` and integrates it
as a one-sweep :class:`~repro.engine.scheduler.SweepBatch`, the same
fused path a panel or fleet takes: all 2M ox/red fields of a sweep move
in one batched tridiagonal solve per sample.
:class:`_RedoxChannelSimulator` remains the scalar reference the engine
is built from (and verified against, bit for bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem import constants as C
from repro.chem.diffusion import CrankNicolsonDiffusion, Grid1D, default_domain_length
from repro.chem.enzymes import CytochromeP450, Oxidase
from repro.chem.species import get_species
from repro.electronics.chain import AcquisitionChain
from repro.electronics.waveform import TriangleWaveform, uniform_sample_times
from repro.engine.scheduler import SweepBatch
from repro.errors import ProtocolError
from repro.measurement.trace import Voltammogram
from repro.sensors.cell import ElectrochemicalCell
from repro.sensors.electrode import WorkingElectrode
from repro.units import ensure_positive

__all__ = ["CvSweep", "CyclicVoltammetry", "CyclicVoltammetryResult",
           "build_channel_simulators", "faradaic_current"]


class _RedoxChannelSimulator:
    """Coupled ox/red diffusion for one CYP substrate channel.

    This is the scalar reference path: the protocols batch these
    objects through :class:`repro.engine.redox.RedoxChannelBatch`, which
    reads the attributes set here and must keep :meth:`step` semantics
    exactly (the engine tests pin bitwise agreement).  ``grid_growth``
    sets the expanding-grid ratio — 1.10 is the full-fidelity default;
    screening mode trades nodes for speed with a coarser ratio.
    """

    def __init__(self, we: WorkingElectrode, substrate: str,
                 c_effective: float, dt: float, duration: float,
                 n_electrons: int, k0: float, alpha: float,
                 e_formal: float, grid_growth: float = 1.10) -> None:
        sp = get_species(substrate)
        d = sp.diffusivity * we.functionalization.permeability
        length = default_domain_length(d, duration)
        first = max(0.25 * math.sqrt(d * dt), length / 4000.0)
        grid = Grid1D.expanding(first, length, growth=grid_growth)
        self.solver = CrankNicolsonDiffusion(grid, d, dt,
                                             bulk_boundary="dirichlet")
        self.c_ox = np.full(grid.n_nodes, max(c_effective, 0.0))
        self.c_red = np.zeros(grid.n_nodes)
        self.n = n_electrons
        self.k0 = k0
        self.alpha = alpha
        self.e_formal = e_formal
        self._s = self.solver.surface_source_scale
        self._w0 = float(self.solver.surface_response()[0])

    def step(self, e_applied: float) -> float:
        """Advance one dt at potential ``e_applied``; return the current-
        defining reduction flux J (mol/(m^2 s), positive = reduction)."""
        f = C.F_OVER_RT
        x = self.n * f * (e_applied - self.e_formal)
        x = min(max(x, -500.0), 500.0)
        kf = self.k0 * math.exp(-self.alpha * x)
        kb = self.k0 * math.exp((1.0 - self.alpha) * x)
        u_ox = self.solver.solve_implicit(self.solver.explicit_rhs(self.c_ox))
        u_red = self.solver.solve_implicit(self.solver.explicit_rhs(self.c_red))
        denominator = 1.0 + self._s * self._w0 * (kf + kb)
        flux = (kf * float(u_ox[0]) - kb * float(u_red[0])) / denominator
        w = self.solver.surface_response()
        self.c_ox = np.clip(u_ox - flux * self._s * w, 0.0, None)
        self.c_red = np.clip(u_red + flux * self._s * w, 0.0, None)
        return flux


def build_channel_simulators(we: WorkingElectrode, chamber, dt: float,
                             duration: float, grid_growth: float = 1.10,
                             ) -> list[_RedoxChannelSimulator]:
    """One coupled ox/red simulator per loaded CYP channel of ``we``.

    Shared by cyclic voltammetry and differential pulse voltammetry —
    the chemistry does not care what shape E(t) takes.
    """
    probe = we.probe
    if not isinstance(probe, CytochromeP450):
        return []
    sims = []
    for channel in probe.channels:
        bulk = chamber.bulk(channel.substrate)
        if bulk <= 0.0:
            continue
        saturation = channel.km / (channel.km + bulk)
        # Nanostructuring wires more enzyme per geometric area, which
        # raises the electroactive concentration the film presents.
        gain = we.functionalization.signal_gain
        c_eff = bulk * channel.efficiency * saturation * gain
        k0 = (channel.kinetics.k0 * we.material.k0_scale
              * we.functionalization.k0_gain)
        sims.append(_RedoxChannelSimulator(
            we=we, substrate=channel.substrate, c_effective=c_eff,
            dt=dt, duration=duration,
            n_electrons=channel.kinetics.couple.n_electrons,
            k0=k0, alpha=channel.kinetics.alpha,
            e_formal=channel.kinetics.couple.e_formal,
            grid_growth=grid_growth))
    return sims


def faradaic_current(coefficients, flux_rows, n_samples: int) -> np.ndarray:
    """The faradaic current of a sweep's channels over ``n_samples``.

    ``coefficients[j]`` is channel j's current per unit reduction flux
    (``n * F * area``) and ``flux_rows[j]`` its flux history.  One
    channel term is subtracted at a time, in channel order, as the
    scalar sample loop does; no channels give a zero row.
    """
    faradaic = np.zeros(n_samples)
    for coef, fluxes in zip(coefficients, flux_rows):
        faradaic -= coef * fluxes
    return faradaic


@dataclass
class CvSweep:
    """One planned CV sweep, compiled for cross-cell fusion.

    Everything a sweep needs *outside* the diffusion solve — the
    potential program, the quasi-static and charging backgrounds, the
    per-channel current-per-flux factors — evaluated once at planning
    time, each background by one array call over the whole program, so
    a :class:`~repro.engine.scheduler.SweepBatch` can fuse the channels
    of many sweeps into one engine and assemble each sweep's current row
    from the recorded flux history.  Sweeps at one ``sample_rate``
    fuse whatever their window: their ``times`` are prefixes of one
    another.  ``quasi`` and ``charging`` stay separate arrays because
    the scalar loop adds them in that order
    (``(faradaic + quasi) + charging``) and bit-identity requires the
    same association.  ``e_applied`` is the potentiostat's output over
    the program; only :meth:`CyclicVoltammetry.plan_sweep`, which has a
    chain, sets it.
    """

    we_name: str
    we: WorkingElectrode
    waveform: TriangleWaveform
    sample_rate: float
    times: np.ndarray
    potentials: np.ndarray
    sweep_sign: np.ndarray
    channels: list
    coefficients: np.ndarray
    quasi: np.ndarray
    charging: np.ndarray
    e_applied: np.ndarray | None = None

    def row_from_fluxes(self, flux_rows) -> np.ndarray:
        """This sweep's true-current row given its slice of batch fluxes.

        ``flux_rows`` is the ``(n_channels, n_samples)`` flux history
        the fused engine recorded for this sweep's channels.
        """
        faradaic = faradaic_current(self.coefficients, flux_rows,
                                    self.times.size)
        return (faradaic + self.quasi) + self.charging

    def to_voltammogram(self, row: np.ndarray, reading) -> Voltammogram:
        """The digitised record of this sweep's true-current ``row``."""
        return Voltammogram(
            times=self.times, potentials=np.asarray(self.e_applied),
            current=reading.current_estimate, sweep_sign=self.sweep_sign,
            scan_rate=self.waveform.scan_rate, channel=self.we_name,
            true_current=row, reading=reading)


@dataclass(frozen=True)
class CyclicVoltammetryResult:
    """Outcome of one CV run on one WE."""

    voltammogram: Voltammogram
    we_name: str
    waveform: TriangleWaveform


class CyclicVoltammetry:
    """Cyclic-voltammetry protocol for one working electrode.

    Parameters
    ----------
    waveform:
        The triangular sweep (start, vertex, scan rate, cycles).  The
        paper's accuracy rule caps useful scan rates at ~20 mV/s; faster
        sweeps run, but peak positions shift — the A2 ablation measures
        exactly that, so the protocol only *warns* through the result,
        never refuses.
    sample_rate:
        Samples (and chemistry steps) per second.
    grid_growth:
        Expanding-grid ratio of the channel simulators; the 1.10
        default is the full-fidelity profile, screening mode passes a
        coarser ratio.
    """

    def __init__(self, waveform: TriangleWaveform,
                 sample_rate: float = 20.0,
                 grid_growth: float = 1.10) -> None:
        self.waveform = waveform
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")
        self.grid_growth = ensure_positive(grid_growth, "grid_growth")
        if waveform.duration * sample_rate > 2.0e6:
            raise ProtocolError(
                "waveform too long for the configured sample rate")

    # -- chemistry ---------------------------------------------------------------

    def simulate_true_current(self, cell: ElectrochemicalCell, we_name: str,
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
        """Integrate the sweep; return (times, potentials, sweep_sign, i).

        A one-sweep :class:`~repro.engine.scheduler.SweepBatch` over
        the sweep :meth:`plan_sweep` compiles, so a fused panel row and
        a standalone run are one code path.
        """
        sweep = self._plan(cell, we_name)
        currents = SweepBatch([sweep]).simulate()[0]
        return sweep.times, sweep.potentials, sweep.sweep_sign, currents

    def run(self, cell: ElectrochemicalCell, we_name: str,
            chain: AcquisitionChain,
            rng: np.random.Generator | None = None) -> CyclicVoltammetryResult:
        """Full protocol: swept chemistry digitised through ``chain``."""
        sweep = self.plan_sweep(cell, we_name, chain)
        currents = SweepBatch([sweep]).simulate()[0]
        reading = chain.digitize(sweep.times, currents, we=sweep.we, rng=rng)
        return CyclicVoltammetryResult(
            voltammogram=sweep.to_voltammogram(currents, reading),
            we_name=we_name, waveform=self.waveform)

    def plan_sweep(self, cell: ElectrochemicalCell, we_name: str,
                   chain: AcquisitionChain) -> CvSweep:
        """Compile this protocol's sweep on ``we_name`` for fusion.

        The sweep :meth:`simulate_true_current` integrates, plus the
        potentiostat's applied potentials over it, so a
        :class:`~repro.engine.scheduler.SweepBatch` fusing it with
        others reproduces :meth:`simulate_true_current` bit for bit.
        """
        sweep = self._plan(cell, we_name)
        sweep.e_applied = np.asarray(
            chain.potentiostat.applied_potential(sweep.potentials))
        return sweep

    # -- internals ------------------------------------------------------------------

    def _plan(self, cell: ElectrochemicalCell, we_name: str) -> CvSweep:
        """The sweep on ``we_name``, without the chain's ``e_applied``.

        Evaluates the backgrounds once over the whole potential program
        and every per-channel factor up front, and builds fresh channel
        simulators.
        """
        we = cell.working_electrode(we_name)
        times = uniform_sample_times(self.waveform.duration, self.sample_rate)
        potentials = self.waveform.value(times)
        rates = self.waveform.rate(times)
        channels = build_channel_simulators(
            we, cell.chamber, 1.0 / self.sample_rate, self.waveform.duration,
            self.grid_growth)
        quasi, charging = self._backgrounds(cell, we, potentials, rates)
        coefficients = np.asarray([sim.n * C.FARADAY * we.area
                                   for sim in channels])
        return CvSweep(we_name=we_name, we=we, waveform=self.waveform,
                       sample_rate=self.sample_rate, times=times,
                       potentials=potentials,
                       sweep_sign=np.where(rates >= 0.0, 1.0, -1.0),
                       channels=channels, coefficients=coefficients,
                       quasi=quasi, charging=charging)

    def _backgrounds(self, cell: ElectrochemicalCell, we: WorkingElectrode,
                     potentials: np.ndarray, rates: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The quasi-static and charging currents over a whole sweep.

        One call each on the sample arrays.  Every term is an
        element-wise product or sum taken in the order the per-sample
        scalar call takes it, and the only transcendental,
        ``OxidationEfficiency.at``, runs ``np.exp`` on the array and on
        a 0-d scalar alike, so each element equals the scalar call at
        that sample bit for bit (``tests/test_cv_planning.py``).
        """
        quasi = np.empty(potentials.size)
        # A WE with neither an oxidase nor a direct oxidiser present has
        # a potential-independent background: broadcast the scalar.
        quasi[:] = self._quasi_static_current(cell, we, potentials)
        return quasi, we.electrode.charging_current(rates)

    def _quasi_static_current(self, cell: ElectrochemicalCell,
                              we: WorkingElectrode, e):
        """Non-swept contributions: oxidase wave, direct oxidisers, leakage.

        These follow the potential quasi-statically at <= 20 mV/s (film
        kinetics are fast against the sweep), so their steady-state values
        at the instantaneous potential apply.  ``e`` is one potential or
        an array of them; an array returns one value per potential, or
        a scalar when no term depends on the potential.
        """
        total = we.electrode.leakage_current()
        probe = we.probe
        if isinstance(probe, Oxidase):
            total += we.oxidase_current(probe, e, cell.chamber)
        total += we.direct_oxidation_current(e, cell.chamber)
        return total
