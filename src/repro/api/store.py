"""Content-addressed persistence of run records — run once, replay free.

A :class:`RunStore` keys every persisted record by its ``spec_hash``
(SHA-256 over the canonical spec payload), so the store *is* the
memoisation table of the front door.  Two granularities share one
sharded layout:

- **Whole-run records** (any spec kind): the record's ``to_dict()``
  summary — provenance, canonical spec, quantified results.  A repeated
  ``run(spec, store=store)`` returns a
  :class:`~repro.api.records.StoredRunRecord` (``cached=True``) without
  touching the engine.
- **Per-job records** (kind ``assay``; :meth:`put_job` /
  :meth:`get_job`): the same summary *plus* a ``samples`` section — the
  lossless :func:`~repro.io.export.panel_result_to_payload` payload of
  the live result.  A hit rehydrates a
  :class:`~repro.api.records.CachedAssayRecord` whose
  :class:`~repro.measurement.panel.PanelResult` is bit-identical to the
  original solve, so warm jobs drop straight back into a merged fleet
  stream (see :class:`~repro.api.jobs.JobPlan`).  Because the per-job
  key is the assay payload hash, fleet members, sweep grid points and
  standalone assay runs all share one cache entry.

Because every hash covers the complete canonical payload — seeds,
injection schedules and all — two specs collide only when they would
execute identically, and a spec edited in any meaningful way misses
cleanly.

Engine rows
===========

Beneath the jobs sits the chemistry layer.  A fused batch's engine row
follows a trajectory fixed by its exact key bytes (see
:mod:`repro.engine.scheduler`), and an acquisition seed never enters
it, so a store-backed run keeps each solved row as a **row record**
(:meth:`put_row`) and serves it to any later run that meets the same
key (:meth:`get_row`): a fresh seed over known chemistry solves
nothing.  A row record holds the row's flux history over one engine
segment and its end state, plus the full key bytes; it is addressed by
the sha256 of those bytes (:func:`row_address`), and a lookup compares
the stored bytes with the asked-for key, so a hash collision is a miss,
never an alias.  Row records share the job records' sealing,
quarantine and LRU clock.  The rule for the two kinds:

- ``len(store)``, :meth:`hashes`, :meth:`records`, ``max_count`` and
  the ``records``/``bytes`` statistics count job (and whole-run)
  records only; ``row_records``/``row_bytes`` and the lifetime
  ``row_hits``/``row_misses`` describe the rows.
- ``max_bytes`` bounds the bytes of both kinds, evicting the least
  recently used record of either kind first; ``max_count`` never
  evicts a row.
- :meth:`clear` removes both kinds.

Storage drivers
===============

The *cache semantics* (record format, integrity seal, quarantine
policy, LRU accounting, lock policy, statistics) live in
:class:`RunStore`; the *persistence substrate* lives behind a
:class:`StorageDriver` — a small read/write/delete/list surface over
opaque byte blobs plus a text index blob and an advisory index lock.
:class:`LocalDirDriver` is the reference implementation (the sharded
local directory below); an object-store driver can drop in by
implementing the same eleven methods, and every semantic above —
including cluster-wide row hits for :mod:`repro.api.distributed`
workers sharing one root — carries over unchanged.  Workers read and
write row records only; job records are written by the submitting
run.

Layout on disk (one file per record, sharded by the first hash byte so
a million records don't share one directory)::

    <root>/
      index.json           # LRU/size index + lifetime hit counters
      ab/
        ab3f...e2.json     # sealed record.to_dict() [+ "samples" for jobs]
      c0/
        c04d...91.json

Each record file is one :mod:`repro.io.sealed` container: a magic line,
a SHA-256 digest, a sorted-key JSON header (provenance, canonical spec,
result summary, readouts) and the sample arrays as raw little-endian
float64 blocks.  The files keep the ``.json`` name of the older
all-JSON format, so one shard glob finds records of either format.
Records are persisted atomically (a per-writer temp file +
``os.replace``) — concurrent writers, threads or processes, racing on
the same spec hash simply last-write-wins a bit-identical payload, and
a reader can never observe a truncated record.  The ``index.json``
read-modify-write is additionally serialised across processes by an
``os.O_EXCL`` lockfile (``<root>/index.lock``, bounded wait, stale
locks broken) with a merge-on-save that unions record entries and
max-merges the monotone counters, and across threads by a per-store
reentrant mutex — many service requests can multiplex onto one warm
store without dropping each other's LRU-clock updates.  Contended lock acquisitions tick the
lifetime ``lock_waits`` counter, so index-lock churn under a worker
fleet is visible in provenance rather than guessed at.

Integrity and quarantine
========================

Every record written is sealed: its container carries a SHA-256 digest
of every byte after the digest line, and every read checks the stored
bytes against it *before* parsing anything.  A record that fails its
checksum, fails to parse, or is structurally malformed is
**quarantined**: moved aside to ``<root>/quarantine/`` (named so the
``??/`` shard glob never lists it), dropped from the index, counted in
the lifetime ``quarantined`` statistic, and reported once as a
:class:`RuntimeWarning` naming the file and the reason.  The lookup
that found it counts as a miss, so the affected job simply re-runs and
re-persists a clean record — corruption degrades to recomputation, not
to an exception five layers up.

Records of the older all-JSON format (leading byte ``{``) still load
through one branch: their ``integrity`` section, when present, is
checked against the canonical JSON of the rest of the payload, as that
format specified; records without one get parse and structure checks
only.  New writes always use the sealed container.

Eviction and statistics
=======================

``index.json`` tracks per-record byte sizes and a logical LRU clock,
plus lifetime ``hits`` / ``misses`` / ``evictions`` counters.  It is a
best-effort cache, not a source of truth: a missing or corrupt index is
rebuilt from the record files, and :meth:`gc` / :meth:`stats` reconcile
it against the directory first.  ``RunStore(root, max_count=, max_bytes=)``
enforces the limits after every write; :meth:`gc` applies them (or
one-off limits) on demand, evicting least-recently-used records first.
:meth:`stats` returns a :class:`StoreStats` snapshot — the same numbers
the CLI ``cache stats`` subcommand prints and :func:`repro.api.run`
stamps into record provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.jobs import JobKey
from repro.api.records import (
    AssayRunRecord,
    CachedAssayRecord,
    EngineStats,
    RunRecord,
    StoredRunRecord,
)
from repro.api.resilience import FaultInjector
from repro.api.specs import hash_payload, spec_hash
from repro.errors import ReproError, StoreError
from repro.io.export import write_atomic
from repro.io.sealed import seal, unseal

__all__ = ["RunStore", "StoreStats", "StorageDriver", "LocalDirDriver"]

_HASH_LENGTH = 64  # hex sha-256
_INDEX_VERSION = 1
_LOCK_WAIT_S = 5.0   # bounded wait for index.lock before proceeding
_LOCK_STALE_S = 30.0  # a lockfile older than this belongs to a dead writer

#: Lifetime counters persisted in (and max-merged across) ``index.json``.
_INDEX_COUNTERS = ("clock", "hits", "misses", "evictions",
                   "quarantined", "lock_waits", "row_hits", "row_misses")

#: The index kind of row records; every other kind is a job record.
_ROW = "row"
#: Leads every row key blob, so row and job addresses hash disjoint
#: preimages.
_ROW_TAG = b"repro-row 1\n"


def _row_blob(key: tuple[bytes, ...]) -> bytes:
    """A row key's exact bytes: each part length-prefixed, so no two
    keys share a blob."""
    return _ROW_TAG + b"".join(len(part).to_bytes(8, "little") + part
                               for part in key)


def row_address(blob: bytes) -> str:
    """The record key a row key blob is stored under."""
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """One snapshot of a store's counters and footprint.

    ``hits``/``misses``/``evictions``/``quarantined``/``lock_waits``
    are lifetime counters persisted in the index (or, when stamped into
    a record's provenance by :func:`repro.api.run`, the *deltas* of
    that one run); ``records`` and ``bytes`` are the store's current
    footprint.  ``lock_waits`` counts contended index-lock
    acquisitions — how often this store met another writer on the
    shared index, the observable for index churn under a worker fleet.
    ``records``/``bytes``/``hits``/``misses`` describe job (and
    whole-run) records; ``row_records``/``row_bytes``/``row_hits``/
    ``row_misses`` the engine row records beneath them.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    records: int = 0
    bytes: int = 0
    quarantined: int = 0
    lock_waits: int = 0
    row_records: int = 0
    row_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "records": self.records,
                "bytes": self.bytes, "quarantined": self.quarantined,
                "lock_waits": self.lock_waits,
                "row_records": self.row_records,
                "row_bytes": self.row_bytes, "row_hits": self.row_hits,
                "row_misses": self.row_misses}


class StorageDriver:
    """The persistence substrate behind a :class:`RunStore`.

    A driver stores opaque *byte blobs* under spec-hash keys, one text
    index blob, and an advisory index lock.  Everything semantic — the
    record format, integrity sealing and verification, quarantine
    policy, LRU accounting, the lock *policy* (bounded wait, stale
    break), statistics — stays in :class:`RunStore`, so a driver is
    deliberately dumb: eleven small methods, and an object-store
    implementation (keys → objects, the lock → a conditional put) drops
    in without touching any cache semantics.  :class:`LocalDirDriver`
    is the reference.

    Record blobs are read with :meth:`read_bytes`: a driver written for
    the older text blobs, whose ``read`` returns ``str``, fails loudly
    instead of feeding text to the binary decoder.
    """

    # -- record blobs ------------------------------------------------------------

    def read_bytes(self, key: str) -> bytes | None:
        """The record blob under ``key`` — ``None`` when absent;
        :class:`~repro.errors.StoreError` for I/O failures reading an
        existing record."""
        raise NotImplementedError

    def write(self, key: str, data: bytes) -> int:
        """Store ``data`` under ``key`` atomically (a concurrent
        :meth:`read_bytes` sees the old blob or the new one, never a
        truncation, and concurrent writers never corrupt each other).
        Returns the stored size in bytes; :class:`~repro.errors.
        StoreError` for I/O failures."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove the record under ``key`` (absent keys are a no-op)."""
        raise NotImplementedError

    def size(self, key: str) -> int | None:
        """Stored size in bytes, or ``None`` when the key is absent."""
        raise NotImplementedError

    def list(self) -> list[tuple[str, int]]:
        """Every stored ``(key, bytes)``, sorted by key (quarantined
        records excluded)."""
        raise NotImplementedError

    def quarantine(self, key: str) -> None:
        """Move the record under ``key`` aside for post-mortem: it must
        never appear in :meth:`list`/:meth:`read` again, but should be
        preserved rather than destroyed where the substrate allows."""
        raise NotImplementedError

    # -- the index blob ----------------------------------------------------------

    def read_index(self) -> str | None:
        """The index blob, or ``None`` when absent/unreadable (the
        store rebuilds from :meth:`list`)."""
        raise NotImplementedError

    def write_index(self, text: str) -> None:
        """Store the index blob atomically."""
        raise NotImplementedError

    # -- the advisory index lock -------------------------------------------------

    def try_lock_index(self) -> bool:
        """One atomic, non-blocking attempt to take the index lock."""
        raise NotImplementedError

    def unlock_index(self) -> None:
        """Release (or break) the index lock; absent locks are a no-op."""
        raise NotImplementedError

    def index_lock_age_s(self) -> float | None:
        """Age of the current lock holder in seconds — ``None`` when
        the lock just disappeared (the store retries immediately)."""
        raise NotImplementedError


class LocalDirDriver(StorageDriver):
    """The reference driver: a sharded local directory.

    One file per record blob at ``<root>/<key[:2]>/<key>.json``, the
    text index at ``<root>/index.json``, quarantined records preserved
    under ``<root>/quarantine/`` (invisible to the ``??/`` shard glob),
    and the index lock as an ``os.O_EXCL``-created
    ``<root>/index.lock`` — the one creation primitive that is atomic
    on every local (and NFS) filesystem.  Writes stage to a temp file
    of the writer's own in the target directory and ``os.replace`` into
    place (:func:`~repro.io.export.write_atomic`), so readers never
    observe a truncated blob, even with writers racing in one process.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"LocalDirDriver({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @staticmethod
    def _replace(path: Path, data: bytes) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(data, path)
        except OSError as exc:
            raise StoreError(f"cannot write {path}: {exc}") from exc

    @staticmethod
    def _prune(shard: Path) -> None:
        if shard.is_dir() and not any(shard.iterdir()):
            shard.rmdir()

    def read_bytes(self, key: str) -> bytes | None:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot read stored record {path}: "
                             f"{exc}") from exc

    #: The benchmark tracer (``perfbench/spans.py``) wraps ``read`` by
    #: name and measures its result as text, so the store reads records
    #: through ``read_bytes``; this alias only keeps that hook valid.
    read = read_bytes

    def write(self, key: str, data: bytes) -> int:
        self._replace(self._path(key), data)
        return len(data)

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - racing delete
            pass
        self._prune(path.parent)

    def size(self, key: str) -> int | None:
        try:
            return self._path(key).stat().st_size
        except OSError:
            return None

    def list(self) -> list[tuple[str, int]]:
        if not self.root.is_dir():
            return []
        out = []
        for path in sorted(self.root.glob("??/*.json")):
            if len(path.stem) != _HASH_LENGTH:
                continue
            try:
                out.append((path.stem, path.stat().st_size))
            except OSError:  # pragma: no cover - racing delete
                continue
        return out

    def quarantine(self, key: str) -> None:
        path = self._path(key)
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except OSError:  # pragma: no cover - racing delete
            pass
        self._prune(path.parent)

    def read_index(self) -> str | None:
        try:
            return (self.root / "index.json").read_text()
        except (FileNotFoundError, OSError):
            return None

    def write_index(self, text: str) -> None:
        self._replace(self.root / "index.json", text.encode())

    def try_lock_index(self) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.root / "index.lock",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def unlock_index(self) -> None:
        try:
            (self.root / "index.lock").unlink()
        except OSError:  # pragma: no cover - racing cleanup
            pass

    def index_lock_age_s(self) -> float | None:
        try:
            return time.time() - (self.root / "index.lock").stat().st_mtime
        except OSError:
            return None


class RunStore:
    """A directory of run records, content-addressed by spec hash.

    Job and whole-run records are keyed by spec hash; beneath them,
    engine row records (:meth:`get_row` / :meth:`put_row`) are keyed by
    the sha256 of a row's exact key bytes and let a scheduler pass skip
    every row the store has solved before (module docstring).

    ``max_count`` / ``max_bytes`` (optional) cap the store: after every
    write the least-recently-used records are evicted until both limits
    hold — ``max_count`` over job records, ``max_bytes`` over the bytes
    of both kinds.  Limits may also be applied one-off through
    :meth:`gc`.

    ``driver`` (optional) swaps the persistence substrate — any
    :class:`StorageDriver`; the default is a :class:`LocalDirDriver`
    rooted at ``root``.  All cache semantics (locking, quarantine,
    LRU, statistics) are driver-independent.

    ``faults`` (a :class:`~repro.api.resilience.FaultInjector`, default
    from the ``REPRO_FAULTS`` environment variable) arms deterministic
    ``store_corrupt`` fault rules: matched writes land on disk
    deliberately truncated, exercising the verify-on-read + quarantine
    path end to end.  Production stores simply leave it unset.

    A store pickles as its configuration (root, limits, faults, driver)
    and unpickles as a fresh handle on the same records, which is how a
    process slot opens the run's store.
    """

    def __init__(self, root: str | Path, max_count: int | None = None,
                 max_bytes: int | None = None,
                 faults: FaultInjector | None = None,
                 driver: StorageDriver | None = None) -> None:
        if max_count is not None and max_count < 0:
            raise StoreError(f"max_count must be >= 0, got {max_count}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.driver = driver if driver is not None else \
            LocalDirDriver(self.root)
        self.max_count = max_count
        self.max_bytes = max_bytes
        self.faults = faults if faults is not None else (
            FaultInjector.from_env())
        self._index: dict | None = None
        self._defer = 0          # batched() nesting depth
        self._dirty = False      # index changed while deferred
        self._gc_pending = False  # limits to enforce at batch exit
        # In-process index guard: every public read/write path holds it,
        # so threads sharing one RunStore (the service's dispatchers on
        # one warm store) cannot interleave a read-modify-write of the
        # in-memory index.  Reentrant because puts call gc which calls
        # _save_index_locked.  Cross-*process* safety is the lockfile's job —
        # see _index_lock.
        self._mutex = threading.RLock()

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r})"

    def __reduce__(self):
        return (RunStore, (self.root, self.max_count, self.max_bytes,
                           self.faults, self.driver))

    # -- keys and paths ----------------------------------------------------------

    @staticmethod
    def _key(spec_or_hash) -> str:
        """Accept a spec (dataclass or payload dict), a JobKey, or a
        literal hash."""
        if isinstance(spec_or_hash, JobKey):
            return spec_or_hash.digest
        if isinstance(spec_or_hash, str):
            key = spec_or_hash.lower()
            if len(key) != _HASH_LENGTH or any(
                    c not in "0123456789abcdef" for c in key):
                raise StoreError(f"not a spec hash: {spec_or_hash!r} "
                                 f"(need {_HASH_LENGTH} hex characters)")
            return key
        return spec_hash(spec_or_hash)

    def path_for(self, spec_or_hash) -> Path:
        """The record's location under the reference local-dir layout
        (nominal for drivers that are not directory-backed)."""
        key = self._key(spec_or_hash)
        return self.root / key[:2] / f"{key}.json"

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def __contains__(self, spec_or_hash) -> bool:
        return self.driver.size(self._key(spec_or_hash)) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.hashes())

    def hashes(self) -> Iterator[str]:
        """Every stored spec hash (row records excluded), sorted for
        stable listings."""
        with self._mutex:
            records = self._sync_index_locked()["records"]
            return iter(sorted(key for key, entry in records.items()
                               if entry.get("kind") != _ROW))

    # -- the LRU/size index ------------------------------------------------------

    @staticmethod
    def _empty_index() -> dict:
        return {"version": _INDEX_VERSION, "records": {},
                **dict.fromkeys(_INDEX_COUNTERS, 0)}

    def _load_index_locked(self) -> dict:
        if self._index is not None:
            return self._index
        payload = None
        text = self.driver.read_index()
        if text is not None:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = None
        if (not isinstance(payload, dict)
                or payload.get("version") != _INDEX_VERSION
                or not isinstance(payload.get("records"), dict)):
            payload = self._rebuild_index()
        for counter in _INDEX_COUNTERS:
            if not isinstance(payload.get(counter), int):
                payload[counter] = 0
        self._index = payload
        return payload

    def _rebuild_index(self) -> dict:
        """Re-derive the index from the record files (LRU order is lost;
        hash order stands in, which only biases the first evictions)."""
        index = self._empty_index()
        for key, size in self.driver.list():
            index["clock"] += 1
            index["records"][key] = {"bytes": size, "used": index["clock"],
                                     "kind": self._peek_kind(key)}
        return index

    def _peek_kind(self, key: str) -> str:
        try:
            payload = self._decode(self.driver.read_bytes(key) or b"")
            if payload.get("kind") == _ROW:
                return _ROW
            return str(payload["provenance"]["kind"])
        except (StoreError, KeyError, TypeError):
            return "?"

    @contextmanager
    def _index_lock(self, wait_s: float = _LOCK_WAIT_S):
        """Hold the driver's index lock around an index
        read-modify-write; yields ``True`` when acquisition was
        contended (the signal behind the ``lock_waits`` statistic).

        The lock itself is one atomic driver primitive (``os.O_EXCL``
        creation for the local driver), so two processes multiplexed
        onto one warm store serialise their index saves instead of
        last-writer-winning each other's LRU-clock updates; the
        *policy* here is driver-independent.  The wait is bounded:
        after ``wait_s`` the caller proceeds *without* the lock (a
        RuntimeWarning notes it) because a cache index must degrade to
        best-effort, never deadlock the pipeline.  A lock older than
        ``_LOCK_STALE_S`` belongs to a writer that died mid-save and is
        broken on sight.
        """
        deadline = time.monotonic() + wait_s
        acquired = False
        waited = False
        while True:
            if self.driver.try_lock_index():
                acquired = True
                break
            waited = True
            age = self.driver.index_lock_age_s()
            if age is None:
                continue  # holder just released; retry immediately
            if age > _LOCK_STALE_S:
                self.driver.unlock_index()  # break a dead writer's lock
                continue
            if time.monotonic() >= deadline:
                warnings.warn(
                    f"run store: could not acquire index.lock within "
                    f"{wait_s:.1f}s; saving index without the lock "
                    f"(concurrent LRU updates may be lost)",
                    RuntimeWarning, stacklevel=3)
                break
            time.sleep(0.005)
        try:
            yield waited
        finally:
            if acquired:
                self.driver.unlock_index()

    def _merge_disk_index(self, index: dict) -> dict:
        """Fold another writer's saved index into ours before saving.

        Called under :meth:`_index_lock`.  Lifetime counters and the LRU
        clock take the elementwise max (monotone, so concurrent
        increments cannot move them backwards; simultaneous increments
        may still undercount — they are statistics, not invariants).
        Record entries are unioned: another writer's keys are adopted
        only when the record still exists, so our own evictions
        and quarantines are not resurrected.
        """
        text = self.driver.read_index()
        if text is None:
            return index
        try:
            disk = json.loads(text)
        except json.JSONDecodeError:
            return index
        if (not isinstance(disk, dict)
                or disk.get("version") != _INDEX_VERSION
                or not isinstance(disk.get("records"), dict)):
            return index
        for counter in _INDEX_COUNTERS:
            other = disk.get(counter)
            if isinstance(other, int) and other > index[counter]:
                index[counter] = other
        ours = index["records"]
        for key, entry in disk["records"].items():
            if key in ours or not isinstance(entry, dict):
                continue
            if self.driver.size(key) is not None:
                ours[key] = entry
        return index

    def _save_index_locked(self) -> None:
        if self._index is None:  # pragma: no cover - defensive
            return
        if self._defer:
            self._dirty = True
            return
        self._dirty = False
        with self._index_lock() as waited:
            if waited:
                self._index["lock_waits"] += 1
            merged = self._merge_disk_index(self._index)
            self.driver.write_index(
                json.dumps(merged, indent=2, sort_keys=True) + "\n")

    @contextmanager
    def batched(self):
        """Coalesce index writes across many lookups/puts.

        Inside the context every get/put updates only the in-memory
        index; one index save (and, when ``max_count`` /
        ``max_bytes`` are set, one eviction pass) happens at exit
        instead of one per operation — the difference between O(N) and
        O(N^2) file I/O when a JobPlan keys an N-point sweep.  Nests
        safely; the runner wraps whole fleet merges in one batch, and
        distributed workers wrap each claimed shard's lookups and
        write-backs the same way.
        """
        self._defer += 1
        try:
            yield self
        finally:
            self._defer -= 1
            if self._defer == 0:
                with self._mutex:
                    if self._gc_pending:
                        self._gc_pending = False
                        self.gc()  # syncs and saves the index itself
                    elif self._dirty:
                        self._save_index_locked()

    def _sync_index_locked(self) -> dict:
        """Reconcile the index against the substrate (records written or
        deleted by other processes), without counting hits/misses."""
        index = self._load_index_locked()
        records = index["records"]
        stored = dict(self.driver.list())
        for key in set(records) - set(stored):
            del records[key]
        for key, size in stored.items():
            if key not in records:
                index["clock"] += 1
                records[key] = {"bytes": size, "used": index["clock"],
                                "kind": self._peek_kind(key)}
        return index

    def _note_lookup(self, key: str | None, hit: bool,
                     row: bool = False) -> None:
        """Count a job (or ``row``) hit/miss; hits also refresh the
        record's LRU clock."""
        prefix = "row_" if row else ""
        with self._mutex:
            index = self._load_index_locked()
            if hit and key is not None:
                index[f"{prefix}hits"] += 1
                index["clock"] += 1
                entry = index["records"].get(key)
                if entry is None:
                    # A record the index has not seen (written by
                    # another process, or a pre-index store): adopt it
                    # on access.
                    size = self.driver.size(key)
                    entry = {"bytes": size if size is not None else 0,
                             "kind": _ROW if row else self._peek_kind(key)}
                    index["records"][key] = entry
                entry["used"] = index["clock"]
            else:
                index[f"{prefix}misses"] += 1
            self._save_index_locked()

    # -- quarantine --------------------------------------------------------------

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt record aside instead of serving or raising.

        The record is preserved by the driver for post-mortem
        (``<root>/quarantine/`` locally, invisible to listings and
        index rebuilds), its index entry is dropped, the lifetime
        ``quarantined`` counter ticks, and a :class:`RuntimeWarning`
        names the record and the reason.
        """
        self.driver.quarantine(key)
        with self._mutex:
            index = self._load_index_locked()
            index["quarantined"] += 1
            index["records"].pop(key, None)
            self._save_index_locked()
        warnings.warn(f"run store: quarantined corrupt record "
                      f"{key}.json: {reason}", RuntimeWarning,
                      stacklevel=4)

    # -- reads -------------------------------------------------------------------

    @staticmethod
    def _decode(data: bytes) -> dict:
        """The verified payload of one stored blob; :class:`~repro.
        errors.StoreError` naming the damage otherwise.

        The leading byte picks the format: ``{`` is the older all-JSON
        record (its ``integrity`` section, when present, verified and
        dropped), anything else must be a sealed container.
        """
        if not data.startswith(b"{"):
            return unseal(data)
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise StoreError(f"not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise StoreError("not a JSON object")
        integrity = payload.pop("integrity", None)
        if integrity is not None:
            digest = (integrity.get("digest")
                      if isinstance(integrity, dict) else None)
            if digest != hash_payload(payload):
                raise StoreError("integrity checksum mismatch")
        return payload

    def _read_payload(self, key: str) -> dict | None:
        """The verified payload under ``key`` — ``None`` when absent
        *or* quarantined as corrupt (failing its checksum, unparseable,
        or not an object); :class:`~repro.errors.StoreError` only for
        I/O failures reading an existing record."""
        data = self.driver.read_bytes(key)
        if data is None:
            return None
        try:
            return self._decode(data)
        except StoreError as exc:
            self._quarantine(key, str(exc))
            return None

    @staticmethod
    def _stored_record(payload: dict, key: str) -> StoredRunRecord:
        try:
            provenance = payload["provenance"]
            return StoredRunRecord(
                spec=payload["spec"],
                spec_hash=provenance["spec_hash"],
                schema_version=provenance["schema_version"],
                seed=provenance.get("seed"),
                wall_time_s=provenance["wall_time_s"],
                result=payload.get("result", {}),
                stored_provenance=dict(provenance))
        except (KeyError, TypeError) as exc:
            raise StoreError(f"stored record {key}.json is malformed "
                             f"({exc!r}); delete it or clear the store"
                             ) from exc

    def get(self, spec_or_hash) -> StoredRunRecord | None:
        """The stored record for a spec/hash, or ``None`` on a miss.

        Counts one hit or miss in the store statistics.  Corrupt
        records (failed checksum, unparseable, malformed structure) are
        quarantined with a :class:`RuntimeWarning` and count as a miss
        — the caller simply re-runs the spec.
        """
        key = self._key(spec_or_hash)
        payload = self._read_payload(key)
        if payload is None:
            self._note_lookup(None, hit=False)
            return None
        try:
            record = self._stored_record(payload, key)
        except StoreError as exc:
            self._quarantine(key, str(exc))
            self._note_lookup(None, hit=False)
            return None
        self._note_lookup(key, hit=True)
        return record

    def get_job(self, key) -> CachedAssayRecord | None:
        """The per-job record for a :class:`~repro.api.jobs.JobKey`
        (or hash/assay spec), or ``None`` on a miss.

        A hit is always a full-sample record, rehydrated as a live
        :class:`~repro.api.records.CachedAssayRecord` — bit-identical
        traces, voltammograms and readouts.  A record without samples
        under the key (a :meth:`put` summary, or a summary-only record
        from an older store) is a miss and stays on disk until the
        re-run's :meth:`put_job` overwrites it.  Corrupt records are
        quarantined and count as a miss, so the job re-runs.
        """
        from repro.io.export import panel_result_from_payload

        digest = self._key(key)
        payload = self._read_payload(digest)
        samples = None if payload is None else payload.get("samples")
        if samples is None:
            self._note_lookup(None, hit=False)
            return None
        try:
            provenance = payload["provenance"]
            result_summary = payload.get("result", {})
            engine = result_summary.get("engine")
            record = CachedAssayRecord(
                spec=payload["spec"],
                spec_hash=provenance["spec_hash"],
                schema_version=provenance["schema_version"],
                seed=provenance.get("seed"),
                wall_time_s=provenance["wall_time_s"],
                job_name=result_summary.get(
                    "job_name", str(payload["spec"].get("name", ""))),
                result=panel_result_from_payload(samples),
                engine=(EngineStats.from_dict(engine)
                        if engine is not None else None))
        except (KeyError, TypeError, ValueError, AttributeError,
                ReproError) as exc:
            self._quarantine(digest, f"malformed job record ({exc!r})")
            self._note_lookup(None, hit=False)
            return None
        self._note_lookup(digest, hit=True)
        return record

    def records(self) -> Iterator[StoredRunRecord]:
        """Every stored record's summary, in hash order.

        Corrupt records are quarantined (with a :class:`RuntimeWarning`
        naming the record) rather than listed — one bad entry must not
        make the whole store unlistable, and it must not resurface on
        the next listing either.  Records that exist but cannot be
        *read* (I/O errors) are skipped with a warning.  Listing does
        not count hits/misses.
        """
        for key in self.hashes():
            try:
                payload = self._read_payload(key)
            except StoreError as exc:
                warnings.warn(f"run store: skipping unreadable record: "
                              f"{exc}", RuntimeWarning, stacklevel=2)
                continue
            if payload is None:
                continue
            try:
                yield self._stored_record(payload, key)
            except StoreError as exc:
                self._quarantine(key, str(exc))

    def get_row(self, key: tuple[bytes, ...]):
        """The ``(fluxes, state)`` stored for engine row ``key``, or
        ``None`` on a miss.

        ``key`` is the row's exact key as a tuple of bytes (see
        :mod:`repro.engine.scheduler`); ``fluxes`` is its flux history
        over the keyed segment and ``state`` maps its end-state
        attribute names to arrays.  A record under the same address
        whose key bytes differ is a miss; a corrupt or malformed one is
        quarantined and is a miss too, so the row is solved again.
        Counts one row hit or miss.
        """
        blob = _row_blob(key)
        address = row_address(blob)
        payload = self._read_payload(address)
        hit = None
        if payload is not None and payload.get("kind") == _ROW:
            try:
                stored = payload["key"].tobytes()[:payload["key_bytes"]]
                if stored == blob:
                    hit = payload["fluxes"], dict(payload["state"])
            except (KeyError, TypeError, AttributeError) as exc:
                self._quarantine(address, f"malformed row record ({exc!r})")
        self._note_lookup(address if hit else None, hit is not None,
                          row=True)
        return hit

    def put_row(self, key: tuple[bytes, ...], fluxes: np.ndarray,
                state: dict) -> None:
        """Persist one solved engine row under its key (:meth:`get_row`)."""
        blob = _row_blob(key)
        padded = blob + bytes(-len(blob) % 8)
        self._write(row_address(blob), {
            "kind": _ROW, "key": np.frombuffer(padded, dtype="<f8"),
            "key_bytes": len(blob), "fluxes": fluxes, "state": state}, _ROW)

    # -- writes ------------------------------------------------------------------

    def _write(self, key: str, payload: dict, kind: str) -> Path:
        # The container's digest covers every stored byte after it, so
        # any later on-disk mutation fails verify-on-read.
        data = seal(payload)
        nbytes = self.driver.write(key, data)
        if self.faults is not None and self.faults.corrupts(key):
            # Deterministic fault injection: truncate the just-written
            # record mid-payload, as a crash or full disk would.
            nbytes = self.driver.write(key, data[: max(len(data) // 2, 1)])
        with self._mutex:
            index = self._load_index_locked()
            index["clock"] += 1
            index["records"][key] = {"bytes": nbytes,
                                     "used": index["clock"], "kind": kind}
            self._save_index_locked()
            if self.max_count is not None or self.max_bytes is not None:
                if self._defer:
                    self._gc_pending = True
                else:
                    self.gc()
        return self.path_for(key)

    def put(self, record: RunRecord) -> Path:
        """Persist a live record's summary under its spec hash.

        Cached records are already in a store and are not re-persisted
        (their summaries would round-trip unchanged anyway).  Assay
        records carrying a live result should go through
        :meth:`put_job`, which also persists the sample arrays.
        """
        if record.cached:
            return self.path_for(record.spec_hash)
        return self._write(record.spec_hash, record.to_dict(), record.kind)

    def put_job(self, record: AssayRunRecord) -> Path:
        """Persist a per-job assay record, samples included.

        The payload is the record's ``to_dict()`` summary plus a
        ``samples`` section (:func:`~repro.io.export.
        panel_result_to_payload` with the sample arrays kept as float64
        blocks), so a later :meth:`get_job` hit rehydrates the live
        result bit for bit.
        """
        from repro.io.export import panel_result_to_payload

        if record.cached:
            return self.path_for(record.spec_hash)
        payload = record.to_dict()
        payload["samples"] = panel_result_to_payload(record.result,
                                                     arrays=True)
        return self._write(record.spec_hash, payload, record.kind)

    # -- eviction, statistics, clearing ------------------------------------------

    def gc(self, max_count: int | None = None,
           max_bytes: int | None = None) -> tuple[int, int]:
        """Evict least-recently-used records until the limits hold.

        Limits default to the store's own ``max_count``/``max_bytes``;
        pass either explicitly for a one-off collection.  Returns
        ``(n_evicted, bytes_freed)``, row records included.  A limit of
        ``None`` does not constrain that axis; ``gc()`` with no limits
        anywhere is a no-op.  ``max_count`` counts job records only and
        ``max_bytes`` the bytes of both kinds (module docstring).
        """
        max_count = self.max_count if max_count is None else max_count
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        with self._mutex:
            index = self._sync_index_locked()
            records = index["records"]
            count = sum(1 for entry in records.values()
                        if entry.get("kind") != _ROW)
            total = sum(entry["bytes"] for entry in records.values())
            evicted = 0
            freed = 0
            if max_count is not None or max_bytes is not None:
                for key, entry in sorted(records.items(),
                                         key=lambda kv: kv[1]["used"]):
                    over_count = max_count is not None and count > max_count
                    over_bytes = max_bytes is not None and total > max_bytes
                    if not over_count and not over_bytes:
                        break
                    row = entry.get("kind") == _ROW
                    if row and not over_bytes:
                        continue
                    self.driver.delete(key)
                    del records[key]
                    if not row:
                        count -= 1
                    total -= entry["bytes"]
                    freed += entry["bytes"]
                    evicted += 1
            index["evictions"] += evicted
            self._save_index_locked()
        return evicted, freed

    def stats(self) -> StoreStats:
        """Lifetime counters plus the store's current footprint."""
        with self._mutex:
            index = self._sync_index_locked()
            self._save_index_locked()
            jobs, rows = [], []
            for entry in index["records"].values():
                (rows if entry.get("kind") == _ROW else jobs).append(
                    entry["bytes"])
            return StoreStats(
                hits=index["hits"], misses=index["misses"],
                evictions=index["evictions"], records=len(jobs),
                bytes=sum(jobs), quarantined=index["quarantined"],
                lock_waits=index["lock_waits"], row_records=len(rows),
                row_bytes=sum(rows), row_hits=index["row_hits"],
                row_misses=index["row_misses"])

    def clear(self) -> int:
        """Delete every stored record, row records included; returns
        how many job records were removed.

        Lifetime hit/miss/eviction counters survive a clear (they
        describe the store's history, not its contents).
        """
        with self._mutex:
            removed = 0
            for key, entry in self._sync_index_locked()["records"].items():
                self.driver.delete(key)
                removed += entry.get("kind") != _ROW
            if removed or self.driver.read_index() is not None:
                index = self._load_index_locked()
                index["records"] = {}
                self._save_index_locked()
            return removed
