"""CV planning in arrays: bitwise parity with the per-sample scalar calls.

``CyclicVoltammetry.plan_sweep`` and ``simulate_true_current`` evaluate
the quasi-static background (oxidase wave, direct oxidisers, leakage)
and the double-layer charging current once over the whole potential
program instead of once per sample.  The fused fleet's bit-identity to
the sequential panel rests on every element of those array calls
equalling the scalar call at that sample, so these tests compare the
raw IEEE bytes, not values within a tolerance (``array_equal`` would
let ``-0.0 == 0.0`` through).

CI also runs this module with numpy's AVX-512 dispatch disabled, so the
parity holds under both of the host's ``np.exp`` implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import constants as C
from repro.data import bench_chain
from repro.electronics.waveform import TriangleWaveform, uniform_sample_times
from repro.measurement.voltammetry import (
    CyclicVoltammetry,
    build_channel_simulators,
)
from repro.sensors.electrode import Electrode, ElectrodeRole, WorkingElectrode
from repro.sensors.functionalization import (
    blank,
    with_cytochrome,
    with_oxidase,
)
from repro.sensors.materials import get_material

#: A sweep window that crosses every wave of the fixtures, plus
#: potentials far enough out to saturate OxidationEfficiency's +-500
#: exponent clip on either side.
POTENTIALS = np.concatenate([np.linspace(-0.9, 0.9, 1801),
                             [-40.0, -13.0, 13.0, 40.0]])


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def make_we(glucose_oxidase, cyp2b4_probe):
    def build(kind):
        functionalization = {"oxidase": with_oxidase(glucose_oxidase),
                             "cyp": with_cytochrome(cyp2b4_probe),
                             "blank": blank()}[kind]
        return WorkingElectrode(
            electrode=Electrode(name="WE", role=ElectrodeRole.WORKING,
                                material=get_material("rhodium_graphite"),
                                area=7.0e-6),
            functionalization=functionalization)
    return build


LOADINGS = {
    "plain": {"glucose": 2.0, "benzphetamine": 0.8, "aminopyrine": 2.0},
    "direct_oxidisers": {"glucose": 2.0, "benzphetamine": 0.8,
                         "aminopyrine": 2.0, "dopamine": 0.3,
                         "etoposide": 0.1},
    # Zero bulk values: the oxidase's substrate (its early return) and a
    # direct oxidiser that species_present() must skip.
    "zero_species": {"glucose": 0.0, "benzphetamine": 0.8,
                     "aminopyrine": 0.0, "dopamine": 0.0,
                     "etoposide": 0.1},
}


def _cell(cell_factory, we, loading):
    cell = cell_factory([we])
    for name, value in loading.items():
        cell.chamber.set_bulk(name, value)
    return cell


def _protocol():
    return CyclicVoltammetry(
        TriangleWaveform(e_start=0.6, e_vertex=-0.7, scan_rate=0.05),
        sample_rate=5.0)


@pytest.mark.parametrize("loading", sorted(LOADINGS))
@pytest.mark.parametrize("kind", ["oxidase", "cyp", "blank"])
class TestPlanningParity:
    def test_quasi_static_array_equals_scalar_calls(self, make_we,
                                                    cell_factory, kind,
                                                    loading):
        we = make_we(kind)
        cell = _cell(cell_factory, we, LOADINGS[loading])
        cv = _protocol()
        quasi = np.empty(POTENTIALS.size)
        quasi[:] = cv._quasi_static_current(cell, we, POTENTIALS)
        scalar = [cv._quasi_static_current(cell, we, float(e))
                  for e in POTENTIALS]
        assert bitwise_equal(quasi, scalar)

    def test_planned_sweep_backgrounds_equal_scalar_calls(self, make_we,
                                                          cell_factory,
                                                          kind, loading):
        we = make_we(kind)
        cell = _cell(cell_factory, we, LOADINGS[loading])
        cv = _protocol()
        sweep = cv.plan_sweep(cell, "WE", bench_chain(seed=1))
        rates = cv.waveform.rate(sweep.times)
        assert bitwise_equal(
            sweep.quasi, [cv._quasi_static_current(cell, we, float(e))
                          for e in sweep.potentials])
        assert bitwise_equal(
            sweep.charging, [we.electrode.charging_current(float(r))
                             for r in rates])


def test_charging_current_array_equals_scalar_calls():
    electrode = Electrode(name="WE", role=ElectrodeRole.WORKING,
                          material=get_material("gold"), area=0.23e-6)
    rates = np.concatenate([np.linspace(-0.2, 0.2, 401), [0.0, -0.0]])
    assert bitwise_equal(electrode.charging_current(rates),
                         [electrode.charging_current(float(r))
                          for r in rates])


def test_simulate_true_current_equals_per_sample_reference(cyp_cell):
    # The seed's loop: every channel stepped by its scalar simulator,
    # every background called per sample, summed in sample order.
    cyp_cell.chamber.set_bulk("dopamine", 0.3)
    cv = _protocol()
    times, potentials, _, currents = cv.simulate_true_current(cyp_cell,
                                                              "WE4")
    we = cyp_cell.working_electrode("WE4")
    sims = build_channel_simulators(we, cyp_cell.chamber,
                                    1.0 / cv.sample_rate,
                                    cv.waveform.duration)
    assert times.size == uniform_sample_times(cv.waveform.duration,
                                              cv.sample_rate).size
    expected = np.empty(times.size)
    for k in range(times.size):
        e = float(potentials[k])
        faradaic = 0.0
        for sim in sims:
            faradaic -= sim.n * C.FARADAY * we.area * sim.step(e)
        expected[k] = (faradaic
                       + cv._quasi_static_current(cyp_cell, we, e)
                       + we.electrode.charging_current(
                           float(cv.waveform.rate(times[k]))))
    assert bitwise_equal(currents, expected)
