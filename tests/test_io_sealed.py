"""The sealed record container, end to end through the run store.

- arrays round-trip bit for bit through ``put_job``/``get_job``: NaN
  payloads, signed zeros, infinities, subnormals, empty and
  one-element arrays;
- any single flipped byte — magic line, digest, header or array block —
  quarantines the record and counts a miss, never a wrong hit;
- truncation at any block boundary quarantines;
- two reads of one record give independent, writable arrays;
- the container itself: digest checked before parsing, refs in range;
- a store written in the older all-JSON format loads bit-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import StoreError
from repro.io.sealed import MAGIC, seal, unseal
from repro.measurement.panel import PanelResult
from repro.measurement.trace import Trace, Voltammogram

CA_DWELL = 2.0
DATA = Path(__file__).parent / "data"

SPECIAL_BITS = [
    0x7FF8000000000000,  # quiet NaN
    0x7FF0000000000001,  # signalling NaN, payload 1
    0xFFF8DEADBEEF0001,  # negative NaN with a payload
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
]

_bits = st.one_of(st.sampled_from(SPECIAL_BITS),
                  st.integers(min_value=0, max_value=2**64 - 1))


def _floats(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def live():
    """One live assay record to graft generated arrays onto."""
    return api.run(api.AssaySpec(
        name="codec", seed=5, chain=api.ChainSpec(seed=5),
        protocol=api.PanelProtocolSpec(ca_dwell=CA_DWELL)))


def _with_arrays(record, trace_bits, vg_bits):
    """``record`` with one trace and one voltammogram made of the given
    bit patterns (a trace needs two samples; a voltammogram may be
    empty)."""
    m = len(vg_bits)
    result = PanelResult(
        traces={"we": Trace(times=_floats(trace_bits),
                            current=_floats(trace_bits[::-1]),
                            true_current=_floats(trace_bits),
                            channel="ch0")},
        voltammograms={"cv": Voltammogram(
            times=_floats(vg_bits), potentials=_floats(vg_bits[::-1]),
            current=_floats(vg_bits), sweep_sign=np.ones(m),
            scan_rate=0.1, channel="ch1",
            true_current=None if m % 2 else _floats(vg_bits))},
        readouts=record.result.readouts,
        assay_time=record.result.assay_time,
        blank_current=record.result.blank_current,
        blank_e_applied=record.result.blank_e_applied)
    return dataclasses.replace(record, result=result)


def _arrays(result) -> list:
    out = []
    for trace in result.traces.values():
        out += [trace.times, trace.current, trace.true_current]
    for vg in result.voltammograms.values():
        out += [vg.times, vg.potentials, vg.current, vg.sweep_sign,
                vg.true_current]
    return out


def _quietly(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, [str(w.message) for w in caught]


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(trace_bits=st.lists(_bits, min_size=2, max_size=40),
           vg_bits=st.lists(_bits, min_size=0, max_size=40))
    def test_put_get_is_bit_exact(self, live, trace_bits, vg_bits):
        record = _with_arrays(live, trace_bits, vg_bits)
        with tempfile.TemporaryDirectory() as root:
            store = api.RunStore(root)
            store.put_job(record)
            warm = store.get_job(record.spec_hash)
        assert isinstance(warm, api.CachedAssayRecord)
        for want, got in zip(_arrays(record.result), _arrays(warm.result),
                             strict=True):
            if want is None:
                assert got is None
            else:
                assert _same_bits(want, got)

    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_one_element_arrays(self, live, size):
        record = _with_arrays(live, SPECIAL_BITS[:2],
                              SPECIAL_BITS[3:3 + size])
        with tempfile.TemporaryDirectory() as root:
            store = api.RunStore(root)
            store.put_job(record)
            warm = store.get_job(record.spec_hash)
        vg = warm.result.voltammograms["cv"]
        assert vg.times.shape == (size,)
        assert _same_bits(vg.times, _floats(SPECIAL_BITS[3:3 + size]))

    def test_two_reads_are_independent_and_writable(self, live, tmp_path):
        store = api.RunStore(tmp_path)
        store.put_job(live)
        first = store.get_job(live.spec_hash).result
        second = store.get_job(live.spec_hash).result
        name = sorted(first.traces)[0]
        a, b = first.traces[name].current, second.traces[name].current
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        before = b.copy()
        a[:] = 0.0
        assert _same_bits(b, before)
        assert _same_bits(before, live.result.traces[name].current)


def _blocks(data: bytes) -> list[int]:
    """Every block boundary of a container, as byte offsets."""
    digest_end = len(MAGIC) + 65
    header_end = data.index(b"\n", digest_end) + 1
    start = header_end + (-header_end % 8)
    ends = []

    def walk(node):
        if isinstance(node, dict):
            if "$f8" in node:
                offset, count = node["$f8"]
                ends.append(start + offset + 8 * count)
            else:
                for value in node.values():
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(json.loads(data[digest_end:header_end]))
    return sorted({0, len(MAGIC), digest_end, header_end, start, *ends})


class TestDamage:
    @pytest.fixture
    def stored(self, live, tmp_path):
        store = api.RunStore(tmp_path)
        store.put_job(live)
        return store, live.spec_hash, store.driver.read_bytes(
            live.spec_hash)

    @staticmethod
    def _assert_quarantined(store, key, damaged: bytes) -> None:
        before = store.stats()
        store.driver.write(key, damaged)
        hit, messages = _quietly(lambda: store.get_job(key))
        assert hit is None, "damaged record served as a hit"
        after = store.stats()
        assert after.quarantined == before.quarantined + 1
        assert after.misses == before.misses + 1
        assert after.hits == before.hits
        assert any("quarantined" in m for m in messages)
        assert store.driver.read_bytes(key) is None

    def test_every_region_has_a_flip_that_quarantines(self, stored):
        store, key, data = stored
        digest_end = len(MAGIC) + 65
        header_end = data.index(b"\n", digest_end) + 1
        positions = [0, len(MAGIC), digest_end - 1, digest_end + 3,
                     header_end - 2, (header_end + len(data)) // 2,
                     len(data) - 1]
        for pos in positions:
            damaged = bytearray(data)
            damaged[pos] ^= 0x01
            self._assert_quarantined(store, key, bytes(damaged))

    @settings(max_examples=60, deadline=None)
    @given(where=st.floats(min_value=0.0, max_value=1.0,
                           exclude_max=True),
           mask=st.integers(min_value=1, max_value=255))
    def test_any_flipped_byte_quarantines(self, live, where, mask):
        with tempfile.TemporaryDirectory() as root:
            store = api.RunStore(root)
            store.put_job(live)
            data = bytearray(store.driver.read_bytes(live.spec_hash))
            data[int(where * len(data))] ^= mask
            self._assert_quarantined(store, live.spec_hash, bytes(data))

    def test_truncation_at_every_block_boundary_quarantines(self, stored):
        store, key, data = stored
        boundaries = _blocks(data)
        assert len(boundaries) > 8  # magic, digest, header, the arrays
        for cut in boundaries:
            if cut < len(data):
                self._assert_quarantined(store, key, data[:cut])

    def test_appended_bytes_quarantine(self, stored):
        store, key, data = stored
        self._assert_quarantined(store, key, data + bytes(8))


class TestContainer:
    def test_checks_the_digest_before_parsing(self):
        data = seal({"a": np.arange(3.0), "b": "x"})
        digest_end = len(MAGIC) + 65
        # A header that would not parse still reports the checksum.
        broken = data[:digest_end] + b"\x00" + data[digest_end + 1:]
        with pytest.raises(StoreError, match="checksum mismatch"):
            unseal(broken)

    def test_refs_out_of_range_are_rejected_even_when_sealed(self):
        body = b'{"a":{"$f8":[0,4]}}\n' + bytes(3) + bytes(16)
        digest = hashlib.sha256(body).hexdigest().encode()
        with pytest.raises(StoreError, match="out of range"):
            unseal(MAGIC + digest + b"\n" + body)

    def test_blocks_are_aligned_little_endian_float64(self):
        data = seal({"x": np.array([1.0, -0.0]), "n": 3})
        digest_end = len(MAGIC) + 65
        header_end = data.index(b"\n", digest_end) + 1
        start = header_end + (-header_end % 8)
        assert start % 8 == 0
        assert data[start:] == np.array([1.0, -0.0], dtype="<f8").tobytes()
        assert json.loads(data[digest_end:header_end]) == {
            "n": 3, "x": {"$f8": [0, 2]}}

    def test_scalars_and_structure_survive(self):
        payload = {"s": "é", "f": 0.1, "i": -3, "none": None,
                   "nested": [{"arr": np.array([2.5])}, [1, 2]]}
        out = unseal(seal(payload))
        assert out["s"] == "é" and out["f"] == 0.1 and out["i"] == -3
        assert out["none"] is None and out["nested"][1] == [1, 2]
        assert _same_bits(out["nested"][0]["arr"], [2.5])

    def test_not_a_container(self):
        with pytest.raises(StoreError, match="bad magic"):
            unseal(b"")
        with pytest.raises(StoreError, match="digest line"):
            unseal(MAGIC + b"abc")


def _result_digest(result) -> str:
    """sha256 over every sample array and readout signal of a result,
    in a fixed order; the recipe the fixture's digests were made with."""
    sha = hashlib.sha256()

    def add(array) -> None:
        sha.update(b"none" if array is None else
                   np.ascontiguousarray(array, dtype=float).tobytes())

    for name in sorted(result.traces):
        trace = result.traces[name]
        sha.update(name.encode())
        for array in (trace.times, trace.current, trace.true_current):
            add(array)
    for name in sorted(result.voltammograms):
        vg = result.voltammograms[name]
        sha.update(name.encode())
        for array in (vg.times, vg.potentials, vg.current, vg.sweep_sign,
                      vg.true_current):
            add(array)
    for target in sorted(result.readouts):
        sha.update(target.encode())
        add(np.array([result.readouts[target].signal]))
    return sha.hexdigest()


class TestOlderJsonStore:
    """``tests/data/legacy_store`` was written by the all-JSON store that
    preceded the container: two assay records (``ca_dwell=0.5``,
    ``scan_rate=0.2``, ``sample_rate=2.0``, seeds 11 and 12), the second
    with its ``integrity`` section removed, as stores older still wrote
    them.  ``legacy_store.expected.json`` holds the digests of the live
    results those records were made from."""

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(DATA / "legacy_store", tmp_path / "store")
        return api.RunStore(tmp_path / "store")

    def test_loads_bit_identically(self, store):
        expected = json.loads(
            (DATA / "legacy_store.expected.json").read_text())
        assert sorted(store.hashes()) == sorted(expected)
        before = store.stats()
        for key, want in expected.items():
            assert store.driver.read_bytes(key).startswith(b"{")
            record, messages = _quietly(lambda: store.get_job(key))
            assert messages == []
            assert isinstance(record, api.CachedAssayRecord)
            assert record.job_name == want["name"]
            assert api.JobKey.for_payload(record.spec).digest == key
            assert _result_digest(record.result) == want["digest"]
        after = store.stats()
        assert after.hits - before.hits == 2
        assert (after.misses, after.quarantined) == (before.misses, 0)

    def test_rewrite_uses_the_container_and_keeps_the_bits(self, store):
        key = ("8392de700079a5c656e361018995b7d4"
               "8a03665fc46e242b97c4e433ce3cb21f")
        old = store.get_job(key)
        live = api.AssayRunRecord(
            spec=old.spec, spec_hash=old.spec_hash,
            schema_version=old.schema_version, seed=old.seed,
            wall_time_s=old.wall_time_s, job_name=old.job_name,
            result=old.result, engine=old.engine)
        store.put_job(live)
        data = store.driver.read_bytes(key)
        assert data.startswith(MAGIC)
        assert _result_digest(store.get_job(key).result) == \
            _result_digest(old.result)
