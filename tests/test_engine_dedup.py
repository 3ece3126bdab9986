"""Replicate rows share one engine row; distinct rows never do.

The fused CV and dwell batches key every row by exactly the values its
step reads (:func:`repro.engine.redox.channel_key` plus the sweep's
potential program, :func:`repro.engine.mechanisms.mechanism_key`) and
solve one representative per key.  These tests pin both directions:

- key completeness: a one-ULP nudge to any keyed value of one replica
  (or a one-sample change to its potential program) keeps it a separate
  row whose output equals its own standalone run;
- collapse: exact replicates solve once (``n_solved_systems``) and stay
  bit-identical to each cell run alone;
- ownership: after a drain back onto the channel and mechanism objects,
  every duplicate holds its own profile;
- injections: a dwell and its uninjected twin share rows until the
  event and split there.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.chem.solution import InjectionSchedule
from repro.data import bench_chain
from repro.data.catalog import paper_panel_cell
from repro.electronics.waveform import uniform_sample_times
from repro.engine import (
    AssayJob,
    AssayScheduler,
    DwellBatch,
    SweepBatch,
)
from repro.engine.mechanisms import mechanism_key
from repro.engine.redox import channel_key
from repro.engine.tridiag import first_occurrences
from repro.errors import SimulationError
from repro.measurement.chronoamperometry import Chronoamperometry
from repro.measurement.panel import PanelProtocol

KWARGS = {"ca_dwell": 4.0, "sample_rate": 4.0}
#: Mechanism steps per standalone/fused comparison.
STEPS = 12


def _cell():
    cell = paper_panel_cell()
    # A direct oxidiser gives every CA WE a first-order sink beside its
    # Michaelis-Menten film, so both rate laws are exercised.
    cell.chamber.set_bulk("dopamine", 0.3)
    return cell


@pytest.fixture(scope="module")
def sweeps():
    """The paper panel's two planned CV sweeps: (long, short)."""
    planned = PanelProtocol(**KWARGS).plan_sweeps(_cell(), bench_chain(seed=1))
    long, short = sorted(planned, key=lambda s: -s.times.size)
    assert long.times.size > short.times.size and len(long.channels) >= 2
    return long, short


@pytest.fixture(scope="module")
def dwell():
    """One CA dwell whose mechanisms are a glucose film and a dopamine
    sink."""
    dwell = PanelProtocol(**KWARGS).plan_dwells(_cell(),
                                                bench_chain(seed=1))[0]
    mechs = _mechanisms(dwell)
    assert hasattr(mechs[0], "film") and hasattr(mechs[1], "rate_constant")
    return dwell


def _mechanisms(dwell) -> list:
    return list(dwell.mechanisms.values())


def _override(obj, name: str, value) -> None:
    """Make ``obj.name`` read ``value``: plain attribute, property or method."""
    attr = getattr(type(obj), name, None)
    if isinstance(attr, property):
        replacement = property(lambda self: value)
    elif callable(attr):
        replacement = (lambda self: value)
    else:
        setattr(obj, name, value)
        return
    obj.__class__ = type(type(obj).__name__, (type(obj),),
                         {name: replacement})


def _ulp(value):
    """``value`` moved up by one ULP (first element, for arrays)."""
    if np.ndim(value) == 0:
        return np.nextafter(float(value), np.inf)
    nudged = np.array(value, dtype=float)
    nudged[0] = np.nextafter(nudged[0], np.inf)
    return nudged


def _nudge(obj, name: str) -> None:
    """One-ULP nudge of one keyed value; ``name[i]`` picks a band."""
    if name.endswith("]"):
        base, index = name[:-3], int(name[-2])
        bands = list(getattr(obj, base))
        bands[index] = _ulp(bands[index])
        _override(obj, base, tuple(bands))
    elif name == "surface_response":
        _override(obj, name, _ulp(obj.surface_response()))
    else:
        _override(obj, name, _ulp(getattr(obj, name)))


_BANDS = [f"{kind}_coefficients[{i}]" for kind in ("implicit", "explicit")
          for i in range(3)]
_SOLVER = [*_BANDS, "surface_volume", "surface_response"]


# -- the shared helper -------------------------------------------------------


class TestFirstOccurrences:
    def test_all_distinct_is_identity(self):
        unique, inverse = first_occurrences([b"a", b"b", b"c"])
        assert unique == [0, 1, 2]
        assert inverse.tolist() == [0, 1, 2]

    def test_duplicates_map_to_first_occurrence(self):
        unique, inverse = first_occurrences([b"a", b"b", b"a", b"b", b"c"])
        assert unique == [0, 1, 4]
        assert inverse.tolist() == [0, 1, 0, 1, 2]

    def test_bytes_keep_signed_zero_and_nan_payloads_apart(self):
        quiet = np.array([np.nan])
        payload = quiet.view(np.uint64) ^ np.uint64(1)
        keys = [np.array([0.0]).tobytes(), np.array([-0.0]).tobytes(),
                quiet.tobytes(), payload.view(np.float64).tobytes()]
        unique, _ = first_occurrences(keys)
        assert unique == [0, 1, 2, 3]


# -- CV sweeps (SweepBatch, redox key) -----------------------------------------


def _alone(sweep) -> np.ndarray:
    return SweepBatch([copy.deepcopy(sweep)]).simulate()[0]


def _fused(*sweeps):
    batch = SweepBatch([copy.deepcopy(sweep) for sweep in sweeps])
    return batch, batch.simulate()


class TestSweepKeys:
    def test_exact_replicates_collapse_bit_identically(self, sweeps):
        long, short = sweeps
        batch, rows = _fused(long, long, short, short, long)
        distinct = len(long.channels) + len(short.channels)
        assert batch.batch_size == (3 * len(long.channels)
                                    + 2 * len(short.channels))
        assert batch.n_solved_systems == distinct
        for sweep, row in zip((long, long, short, short, long), rows):
            assert np.array_equal(row, _alone(sweep))

    @pytest.mark.parametrize("name", ["n", "k0", "alpha", "e_formal",
                                      "c_ox", "c_red"])
    def test_channel_nudge_keeps_row_apart(self, sweeps, name):
        self._check_nudged(sweeps[0], lambda ch: _nudge(ch, name))

    @pytest.mark.parametrize("name", [*_SOLVER, "surface_source_scale"])
    def test_solver_nudge_keeps_row_apart(self, sweeps, name):
        self._check_nudged(sweeps[0], lambda ch: _nudge(ch.solver, name))

    def test_signed_zero_keeps_row_apart(self, sweeps):
        def negate_zero(ch):
            ch.c_red = ch.c_red.copy()
            ch.c_red[-2] = -0.0

        self._check_nudged(sweeps[0], negate_zero)

    @staticmethod
    def _check_nudged(base, nudge):
        twin = copy.deepcopy(base)
        nudge(twin.channels[0])
        assert channel_key(twin.channels[0]) != channel_key(base.channels[0])
        batch, rows = _fused(base, twin)
        n = len(base.channels)
        assert batch.n_solved_systems == n + 1
        assert np.array_equal(rows[0], _alone(base))
        assert np.array_equal(rows[1], _alone(twin))

    def test_one_sample_of_the_potential_program_keeps_rows_apart(
            self, sweeps):
        base = sweeps[0]
        twin = copy.deepcopy(base)
        twin.potentials = twin.potentials.copy()
        k = twin.potentials.size // 2
        twin.potentials[k] = np.nextafter(twin.potentials[k], np.inf)
        batch, rows = _fused(base, twin)
        assert batch.n_solved_systems == 2 * len(base.channels)
        assert np.array_equal(rows[0], _alone(base))
        assert np.array_equal(rows[1], _alone(twin))

    def test_dt_nudge_is_never_fused(self, sweeps):
        base = sweeps[0]
        twin = copy.deepcopy(base)
        _nudge(twin.channels[0].solver, "dt")
        assert channel_key(twin.channels[0]) != channel_key(base.channels[0])
        with pytest.raises(SimulationError, match="one time step"):
            _fused(base, twin)

    def test_retired_duplicates_own_their_profiles(self, sweeps):
        long, short = sweeps
        batch = SweepBatch([copy.deepcopy(s) for s in (long, short, short)])
        rows = batch.simulate()
        # The short records retire while the long one runs on: their
        # state is drained back, each duplicate getting its own copy.
        a, b = (batch.sweeps[i].channels[0] for i in (1, 2))
        assert a is not b
        assert np.array_equal(a.c_ox, b.c_ox)
        assert np.array_equal(a.c_red, b.c_red)
        assert not np.shares_memory(a.c_ox, b.c_ox)
        before = a.c_ox.copy()
        b.c_ox[0] += 1.0
        assert np.array_equal(a.c_ox, before)
        assert np.array_equal(rows[1], rows[2])


# -- CA dwells (DwellBatch, mechanism key) --------------------------------------


def _simulate(*dwells) -> tuple[DwellBatch, np.ndarray]:
    """A batch over copies of ``dwells`` and its current rows."""
    batch = DwellBatch([copy.deepcopy(d) for d in dwells],
                       np.arange(STEPS + 1) * dwells[0].dt)
    return batch, batch.simulate()


def _distinct(*dwells) -> int:
    """How many rows the mechanism keys of ``dwells`` collapse to."""
    unique, _ = first_occurrences(
        map(mechanism_key, (m for d in dwells for m in _mechanisms(d))))
    return len(unique)


class TestMechanismKeys:
    def test_exact_replicates_collapse_bit_identically(self, dwell):
        n = len(dwell.mechanisms)
        unique, inverse = first_occurrences(
            map(mechanism_key, _mechanisms(copy.deepcopy(dwell))
                + _mechanisms(copy.deepcopy(dwell))))
        assert unique == list(range(n))
        assert inverse.tolist() == list(range(n)) * 2
        batch, rows = _simulate(dwell, dwell, dwell)
        assert batch.batch_size == 3 * n
        assert batch.n_solved_systems == n
        _, alone = _simulate(dwell)
        for row in rows:
            assert np.array_equal(row, alone[0])

    @pytest.mark.parametrize("which", [0, 1], ids=["film", "sink"])
    @pytest.mark.parametrize("name", [*_SOLVER, "field"])
    def test_nudge_keeps_row_apart(self, dwell, which, name):
        def nudge(mech):
            _nudge(mech if name == "field" else mech.solver, name)

        self._check_nudged(dwell, which, nudge)

    @pytest.mark.parametrize("name", ["vmax", "km"])
    def test_film_law_nudge_keeps_row_apart(self, dwell, name):
        def nudge(mech):
            mech.film = dataclasses.replace(
                mech.film, **{name: _ulp(getattr(mech.film, name))})

        self._check_nudged(dwell, 0, nudge)

    def test_sink_rate_nudge_keeps_row_apart(self, dwell):
        self._check_nudged(dwell, 1,
                           lambda mech: _nudge(mech, "rate_constant"))

    @staticmethod
    def _check_nudged(base, which, nudge):
        twin = copy.deepcopy(base)
        nudge(_mechanisms(twin)[which])
        assert (mechanism_key(_mechanisms(twin)[which])
                != mechanism_key(_mechanisms(base)[which]))
        n = len(base.mechanisms)
        assert _distinct(base, twin) == n + 1
        batch, rows = _simulate(base, twin)
        assert batch.n_solved_systems == n + 1
        assert np.array_equal(rows[0], _simulate(base)[1][0])
        assert np.array_equal(rows[1], _simulate(twin)[1][0])

    def test_dt_nudge_is_never_fused(self, dwell):
        twin = copy.deepcopy(dwell)
        _nudge(_mechanisms(twin)[0].solver, "dt")
        assert _distinct(dwell, twin) == len(dwell.mechanisms) + 1
        with pytest.raises(SimulationError, match="one time step"):
            _simulate(dwell, twin)

    def test_sync_back_gives_each_duplicate_its_own_profile(self, dwell):
        batch, _ = _simulate(dwell, dwell, dwell)
        fields = [_mechanisms(d)[0].field for d in batch.dwells]
        first = fields[0].copy()
        assert all(np.array_equal(field, first) for field in fields)
        assert not np.array_equal(first, _mechanisms(dwell)[0].field)
        fields[1][0] += 1.0
        assert np.array_equal(fields[0], first)
        assert np.array_equal(fields[2], first)


class TestInjectionSplit:
    def test_injected_twin_splits_at_the_event(self):
        cell = _cell()
        plain = Chronoamperometry(e_setpoint=0.55, duration=6.0,
                                  sample_rate=4.0)
        injected = Chronoamperometry(
            e_setpoint=0.55, duration=6.0, sample_rate=4.0,
            injections=InjectionSchedule.single(3.0, "glucose", 1.0))
        times = uniform_sample_times(plain.duration, plain.sample_rate)

        twins = DwellBatch([plain.build_dwell(cell, "WE1"),
                            plain.build_dwell(cell, "WE1")], times)
        twins.simulate()
        n_mechs = len(twins.dwells[0].mechanisms)
        assert twins.n_solved_systems == n_mechs

        batch = DwellBatch([injected.build_dwell(cell, "WE1"),
                            plain.build_dwell(cell, "WE1")], times)
        rows = batch.simulate()
        # Shared rows before the event, at least one more after it.
        assert n_mechs < batch.n_solved_systems <= 2 * n_mechs
        _, alone_injected = injected.simulate_true_current(cell, "WE1")
        _, alone_plain = plain.simulate_true_current(cell, "WE1")
        assert np.array_equal(rows[0], alone_injected)
        assert np.array_equal(rows[1], alone_plain)
        assert not np.array_equal(rows[0], rows[1])


# -- the fleet ---------------------------------------------------------------


class TestReplicateFleet:
    """Technical replicates: one chemistry, several acquisition seeds."""

    @staticmethod
    def _jobs(seeds):
        return [AssayJob(cell=_cell(), chain=bench_chain(seed=seed),
                         name=f"rep{seed}",
                         rng=np.random.default_rng(seed))
                for seed in seeds]

    def test_replicates_solve_once_and_match_each_cell_alone(self):
        seeds = (31, 32, 33)
        scheduler = AssayScheduler(PanelProtocol(**KWARGS))
        fleet = scheduler.run_many(self._jobs(seeds))
        single = scheduler.run_many(self._jobs(seeds[:1]))
        assert fleet.n_fused_dwells == 3 * single.n_fused_dwells
        assert fleet.n_fused_sweeps == 3 * single.n_fused_sweeps
        assert fleet.n_solved_systems == single.n_solved_systems
        reference = PanelProtocol(batch_electrodes=False, **KWARGS)
        for seed, result in zip(seeds, fleet.results):
            alone = scheduler.run_many(self._jobs([seed])).results[0]
            sequential = reference.run(_cell(), bench_chain(seed=seed),
                                       rng=np.random.default_rng(seed))
            for ref in (alone, sequential):
                for name, trace in ref.traces.items():
                    assert np.array_equal(trace.true_current,
                                          result.traces[name].true_current)
                    assert np.array_equal(trace.current,
                                          result.traces[name].current)
                for name, gram in ref.voltammograms.items():
                    got = result.voltammograms[name]
                    assert np.array_equal(gram.true_current,
                                          got.true_current)
                    assert np.array_equal(gram.current, got.current)
                assert ({t: r.signal for t, r in ref.readouts.items()}
                        == {t: r.signal for t, r in result.readouts.items()})

    def test_a_changed_loading_adds_only_its_own_row(self):
        cells = [paper_panel_cell({"glucose": level, "lactate": 1.0,
                                   "glutamate": 1.0, "benzphetamine": 0.5,
                                   "aminopyrine": 2.0, "cholesterol": 0.05})
                 for level in (1.0, 2.0)]
        jobs = [AssayJob(cell=cell, chain=bench_chain(seed=40 + k),
                         name=f"c{k}", rng=np.random.default_rng(40 + k))
                for k, cell in enumerate(cells)]
        fleet = AssayScheduler(PanelProtocol(**KWARGS)).run_many(jobs)
        # Only the glucose film differs between the two cells.
        one = AssayScheduler(PanelProtocol(**KWARGS)).run_many(jobs[:1])
        assert fleet.n_solved_systems == one.n_solved_systems + 1
