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
policy, LRU accounting, statistics) live in :class:`RunStore`; the
*persistence substrate* lives behind a :class:`StorageDriver` — a
small read/write/delete/list/touch surface over opaque byte blobs.
:class:`LocalDirDriver` is the reference implementation (the sharded
local directory below); an object-store driver can drop in by
implementing the same seven methods, and every semantic above —
including cluster-wide row hits for :mod:`repro.api.distributed`
workers sharing one root — carries over unchanged.  Workers read and
write row records only; job records are written by the submitting
run.

Layout on disk (one file per record, sharded by the first hash byte so
a million records don't share one directory)::

    <root>/
      ab/
        ab3f...e2.json     # sealed record.to_dict() [+ "samples" for jobs]
      rows/
        c0/
          c04d...91.json   # sealed engine row record
      counters/
        host-4242-9f2c41d07ab3.json  # lifetime counters of one process
      quarantine/          # corrupt records, moved aside

The record files are the store's only truth: which records exist and
their sizes come from the driver's listing, their kind from the
layout (row records live under ``rows/``, which the ``??/`` job glob
never matches), and their LRU recency from the file's mtime.  Only
64-hex names count as records, so other files kept beside them (the
service's ``usage.json``) are never listed, evicted or cleared.

Each record file is one :mod:`repro.io.sealed` container: a magic line,
a SHA-256 digest, a sorted-key JSON header (provenance, canonical spec,
result summary, readouts) and the sample arrays as raw little-endian
float64 blocks.  The files keep the ``.json`` name of the older
all-JSON format, so one shard glob finds records of either format.
Records are persisted atomically (a per-writer temp file +
``os.replace``) — concurrent writers, threads or processes, racing on
the same spec hash simply last-write-wins a bit-identical payload, and
a reader can never observe a truncated record.  Writers share nothing
else: each process writes only its own counter file (below).

Integrity and quarantine
========================

Every record written is sealed: its container carries a SHA-256 digest
of every byte after the digest line, and every read checks the stored
bytes against it *before* parsing anything.  A record that fails its
checksum, fails to parse, or is structurally malformed is
**quarantined**: moved aside to ``<root>/quarantine/`` (named so the
``??/`` shard glob never lists it), counted in the lifetime
``quarantined`` statistic, and reported once as a
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

Every write stamps the record's mtime, and every hit stamps it again
(:meth:`StorageDriver.touch`), both from ``time.time_ns()`` at the
filesystem's mtime resolution; eviction takes the oldest stamp first,
ties (one tick of a coarse filesystem) broken by key.
``RunStore(root, max_count=, max_bytes=)`` enforces the
limits after every write (once per :meth:`RunStore.batched` pass);
:meth:`RunStore.gc` applies them (or one-off limits) on demand.

The lifetime ``hits`` / ``misses`` / ``row_hits`` / ``row_misses`` /
``evictions`` / ``quarantined`` counters are kept in memory per handle
and flushed once per pass into ``counters/<host>-<pid>-<token>``, a
file only that process writes (read, add, replace, under a process-wide
lock; the token is random per process).  :meth:`RunStore.stats` sums
the counter files, and folds those of this host's exited processes
into its own: a file carries over only if this process's delete
removed it, so the files stay as many as the live writers.  A crash
between that delete and the flush loses the folded counts, and hosts
sharing a root need distinct host names.  It returns a
:class:`StoreStats` snapshot — the same numbers the CLI ``cache
stats`` subcommand prints and :func:`repro.api.run` stamps into record
provenance.

A root written before this layout still holds an ``index.json``.
Opening it migrates once: its counters become the ``counters/legacy``
term, its row records move under ``rows/``, and the index is deleted
last, so an interrupted migration simply runs again.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
import uuid
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

#: Lifetime counters, kept per handle and flushed to the counter files.
_COUNTERS = ("hits", "misses", "row_hits", "row_misses", "evictions",
             "quarantined")
#: Key prefixes: row records, and one counter file per writing process.
_ROWS = "rows/"
_COUNTER_FILES = "counters/"
#: The index blob of a store written before the record files were its
#: only truth (``<root>/index.json``), migrated when a store opens.
_LEGACY_INDEX = "index"

#: The ``kind`` of a row record's payload (and of its old index entry).
_ROW = "row"
#: Leads every row key blob, so row and job addresses hash disjoint
#: preimages.
_ROW_TAG = b"repro-row 1\n"

#: Serialises the read-add-replace of this process's counter file, so
#: two handles on one root cannot lose each other's increments.
_FLUSH_LOCK = threading.Lock()
#: Names this process's counter file apart from any other process's,
#: even one with the same host name and pid.
_TOKEN = uuid.uuid4().hex[:12]


def _after_fork() -> None:
    # A child forked while another thread flushed must not inherit the
    # held lock, nor its parent's counter file.
    global _FLUSH_LOCK, _TOKEN
    _FLUSH_LOCK = threading.Lock()
    _TOKEN = uuid.uuid4().hex[:12]


os.register_at_fork(after_in_child=_after_fork)


def _is_hash(text: str) -> bool:
    return len(text) == _HASH_LENGTH and all(
        c in "0123456789abcdef" for c in text)


def _writer_gone(key: str) -> bool:
    """Whether counter file ``key``'s writer ran on this host and its
    pid is now free or this process's (else, or unknown: ``False``)."""
    parts = key[len(_COUNTER_FILES):].rsplit("-", 2)
    if (os.name != "posix" or len(parts) != 3
            or parts[0] != socket.gethostname() or not parts[1].isdigit()):
        return False
    pid = int(parts[1])
    if pid == os.getpid():
        return parts[2] != _TOKEN
    try:
        os.kill(pid, 0)
    except OSError as exc:  # else PermissionError: another user's
        return isinstance(exc, ProcessLookupError)
    return False


def _counts_in(data: bytes | None) -> dict[str, int]:
    """The lifetime counters in a JSON object blob (a counter file, or
    an old ``index.json``); an absent or malformed blob holds none."""
    try:
        payload = json.loads(data)
    except (TypeError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    return {name: payload[name] for name in _COUNTERS
            if isinstance(payload.get(name), int)}


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

    ``hits``/``misses``/``evictions``/``quarantined`` are lifetime
    counters summed over the store's counter files (or, when stamped
    into a record's provenance by :func:`repro.api.run`, the *deltas*
    of that one run); ``records`` and ``bytes`` are the store's current
    footprint.  ``records``/``bytes``/``hits``/``misses`` describe job
    (and whole-run) records; ``row_records``/``row_bytes``/
    ``row_hits``/``row_misses`` the engine row records beneath them.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    records: int = 0
    bytes: int = 0
    quarantined: int = 0
    row_records: int = 0
    row_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def lock_waits(self) -> int:
        """Always 0 (no cross-process lock); kept for older readers."""
        return 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "records": self.records,
                "bytes": self.bytes, "quarantined": self.quarantined,
                "row_records": self.row_records,
                "row_bytes": self.row_bytes, "row_hits": self.row_hits,
                "row_misses": self.row_misses}


class StorageDriver:
    """The persistence substrate behind a :class:`RunStore`.

    A driver stores opaque *byte blobs* under string keys: a 64-hex
    spec hash for a job record, ``rows/<hash>`` for a row record,
    ``counters/<name>`` for a counter file.  Everything semantic — the
    record format, integrity sealing and verification, quarantine
    policy, LRU accounting, statistics — stays in :class:`RunStore`,
    so a driver is deliberately dumb: seven small methods, and an
    object-store implementation (keys → objects, recency → a metadata
    stamp) drops in without touching any cache semantics.
    :class:`LocalDirDriver` is the reference.

    Record blobs are read with :meth:`read_bytes`: a driver written for
    the older text blobs, whose ``read`` returns ``str``, fails loudly
    instead of feeding text to the binary decoder.
    """

    def read_bytes(self, key: str) -> bytes | None:
        """The blob under ``key`` — ``None`` when absent;
        :class:`~repro.errors.StoreError` for I/O failures reading an
        existing blob."""
        raise NotImplementedError

    def write(self, key: str, data: bytes) -> int:
        """Store ``data`` under ``key`` atomically (a concurrent
        :meth:`read_bytes` sees the old blob or the new one, never a
        truncation, and concurrent writers never corrupt each other)
        and stamp it used now, as :meth:`touch` does.  Returns the
        stored size in bytes; :class:`~repro.errors.StoreError` for I/O
        failures."""
        raise NotImplementedError

    def touch(self, key: str) -> None:
        """Stamp the blob under ``key`` used now, from
        ``time.time_ns()`` at the substrate's own timestamp resolution
        (absent keys are a no-op)."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove the blob under ``key``; ``True`` when this call
        removed it, ``False`` when it was absent (or another caller's
        delete won the race)."""
        raise NotImplementedError

    def size(self, key: str) -> int | None:
        """Stored size in bytes, or ``None`` when the key is absent."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[tuple[str, int, int]]:
        """Every stored ``(key, bytes, used_ns)`` whose key is
        ``prefix`` followed by a name without ``/``, sorted by key
        (quarantined blobs excluded).  ``used_ns`` is the last
        :meth:`write` or :meth:`touch` stamp."""
        raise NotImplementedError

    def quarantine(self, key: str) -> None:
        """Move the blob under ``key`` aside for post-mortem: it must
        never appear in :meth:`list`/:meth:`read_bytes` again, but
        should be preserved rather than destroyed where the substrate
        allows."""
        raise NotImplementedError


class LocalDirDriver(StorageDriver):
    """The reference driver: a sharded local directory.

    The blob under ``[<prefix>/]<name>`` is the file
    ``<root>/[<prefix>/]<name[:2]>/<name>.json`` when ``name`` is a
    64-hex hash and ``<root>/[<prefix>/]<name>.json`` otherwise;
    quarantined blobs are preserved under ``<root>/quarantine/``
    (invisible to the ``??/`` shard glob).  Writes stage to a temp file
    of the writer's own in the target directory and ``os.replace`` into
    place (:func:`~repro.io.export.write_atomic`), so readers never
    observe a truncated blob, even with writers racing in one process.
    The used stamp is the file's mtime, set with ``os.utime`` from
    ``time.time_ns()``; the filesystem keeps it at its own resolution.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"LocalDirDriver({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        prefix, _, name = key.rpartition("/")
        base = self.root / prefix
        if len(name) == _HASH_LENGTH:
            return base / name[:2] / f"{name}.json"
        return base / f"{name}.json"

    @staticmethod
    def _prune(path: Path) -> None:
        shard = path.parent
        if (len(path.stem) == _HASH_LENGTH and shard.is_dir()
                and not any(shard.iterdir())):
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
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(data, path)
        except OSError as exc:
            raise StoreError(f"cannot write {path}: {exc}") from exc
        self.touch(key)
        return len(data)

    def touch(self, key: str) -> None:
        path, now = self._path(key), time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except FileNotFoundError:  # absent, or a racing delete
            pass
        except OSError as exc:
            raise StoreError(f"cannot touch {path}: {exc}") from exc

    def delete(self, key: str) -> bool:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self._prune(path)
        return True

    def size(self, key: str) -> int | None:
        try:
            return self._path(key).stat().st_size
        except OSError:
            return None

    def list(self, prefix: str = "") -> list[tuple[str, int, int]]:
        def scan(directory) -> list[os.DirEntry]:
            try:
                with os.scandir(directory) as entries:
                    return list(entries)
            except OSError:  # absent, or a racing delete
                return []

        top, out = scan(self.root / prefix), []
        for entries, sharded in [(top, False), *(
                (scan(entry.path), True) for entry in top
                if len(entry.name) == 2 and entry.is_dir())]:
            for entry in entries:
                stem = entry.name[:-len(".json")]
                if (not entry.name.endswith(".json") or not entry.is_file()
                        or (len(stem) == _HASH_LENGTH) != sharded):
                    continue  # a hash outside its shard, or a stray file
                try:
                    stat = entry.stat()
                except OSError:  # pragma: no cover - racing delete
                    continue
                out.append((prefix + stem, stat.st_size, stat.st_mtime_ns))
        return sorted(out)

    def quarantine(self, key: str) -> None:
        path = self._path(key)
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except OSError:  # pragma: no cover - racing delete
            pass
        self._prune(path)


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
    rooted at ``root``.  All cache semantics (quarantine, LRU,
    statistics) are driver-independent.

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
        # Counter increments not yet flushed; every path that touches
        # them holds the mutex, so threads sharing one RunStore (the
        # service's dispatchers) cannot lose one.  The mutex also makes
        # one handle's eviction passes take turns.
        self._counts = dict.fromkeys(_COUNTERS, 0)
        self._defer = 0          # batched() nesting depth
        self._gc_pending = False  # limits to enforce at batch exit
        self._mutex = threading.Lock()
        self._migrate()

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
            if not _is_hash(key):
                raise StoreError(f"not a spec hash: {spec_or_hash!r} "
                                 f"(need {_HASH_LENGTH} hex characters)")
            return key
        return spec_hash(spec_or_hash)

    def path_for(self, spec_or_hash) -> Path:
        """The record's location under the reference local-dir layout
        (nominal for drivers that are not directory-backed)."""
        key = self._key(spec_or_hash)
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, spec_or_hash) -> bool:
        return self.driver.size(self._key(spec_or_hash)) is not None

    def _listing(self, prefix: str = "") -> list[tuple[str, int, int]]:
        """The driver's listing of job (``rows/``: row) records: 64-hex
        names only, so no other file beside them is taken for one."""
        return [entry for entry in self.driver.list(prefix)
                if _is_hash(entry[0][len(prefix):])]

    def __len__(self) -> int:
        return len(self._listing())

    def hashes(self) -> Iterator[str]:
        """Every stored spec hash (row records excluded), sorted for
        stable listings."""
        return iter([key for key, _, _ in self._listing()])

    # -- lifetime counters -------------------------------------------------------

    def _migrate(self) -> None:
        """Fold the ``index.json`` of an older store into the layout.

        Its counters become the ``counters/legacy`` term and its row
        records move under ``rows/``; the index goes last, so running
        this again after an interruption gives the same result.
        """
        data = self.driver.read_bytes(_LEGACY_INDEX)
        if data is None:
            return
        try:
            rows = [key for key, entry in json.loads(data)["records"].items()
                    if _is_hash(key) and isinstance(entry, dict)
                    and entry.get("kind") == _ROW]
        except (ValueError, TypeError, KeyError, AttributeError):
            rows = []
        counts = _counts_in(data)
        if counts:
            self.driver.write(_COUNTER_FILES + "legacy",
                              json.dumps(counts, sort_keys=True).encode())
        for key in rows:
            blob = self.driver.read_bytes(key)
            if blob is not None:
                self.driver.write(_ROWS + key, blob)
                self.driver.delete(key)
        self.driver.delete(_LEGACY_INDEX)

    def _count(self, name: str, n: int = 1) -> None:
        """Count ``n`` of lifetime counter ``name``; flushed at the end
        of the pass (at once outside :meth:`batched`)."""
        with self._mutex:
            self._counts[name] += n
        if not self._defer:
            self._flush()

    def _flush(self) -> None:
        """Add this handle's unflushed counts to this process's counter
        file: one read-add-replace of one small file."""
        with self._mutex:
            counts = {name: n for name, n in self._counts.items() if n}
            self._counts = dict.fromkeys(_COUNTERS, 0)
        if not counts:
            return
        key = (f"{_COUNTER_FILES}{socket.gethostname()}-{os.getpid()}-"
               f"{_TOKEN}")
        with _FLUSH_LOCK:
            totals = _counts_in(self.driver.read_bytes(key))
            for name, n in counts.items():
                totals[name] = totals.get(name, 0) + n
            self.driver.write(key,
                              json.dumps(totals, sort_keys=True).encode())

    @contextmanager
    def batched(self):
        """Make many lookups/puts one pass.

        Inside the context every get/put counts in memory only; one
        counter flush (and, when ``max_count`` / ``max_bytes`` are set,
        one eviction pass) happens at exit instead of one per
        operation.  Nests safely; the runner wraps whole fleet merges in
        one batch, and distributed workers wrap each claimed shard's
        lookups and write-backs the same way.
        """
        self._defer += 1
        try:
            yield self
        finally:
            self._defer -= 1
            if self._defer == 0:
                if self._gc_pending:
                    self._gc_pending = False
                    self.gc()  # flushes the counters itself
                else:
                    self._flush()

    def _note_lookup(self, key: str | None, hit: bool,
                     row: bool = False) -> None:
        """Count a job (or ``row``) hit/miss; hits also stamp the
        record used now."""
        if hit and key is not None:
            self.driver.touch(key)
        self._count(("row_" if row else "") + ("hits" if hit else "misses"))

    # -- quarantine --------------------------------------------------------------

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt record aside instead of serving or raising.

        The record is preserved by the driver for post-mortem
        (``<root>/quarantine/`` locally, invisible to listings), the
        lifetime ``quarantined`` counter ticks, and a
        :class:`RuntimeWarning` names the record and the reason.
        """
        self.driver.quarantine(key)
        self._count("quarantined")
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
        address = _ROWS + row_address(blob)
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
        self._write(_ROWS + row_address(blob), {
            "kind": _ROW, "key": np.frombuffer(padded, dtype="<f8"),
            "key_bytes": len(blob), "fluxes": fluxes, "state": state})

    # -- writes ------------------------------------------------------------------

    def _write(self, key: str, payload: dict) -> None:
        # The container's digest covers every stored byte after it, so
        # any later on-disk mutation fails verify-on-read.
        data = seal(payload)
        self.driver.write(key, data)
        if self.faults is not None and self.faults.corrupts(key):
            # Deterministic fault injection: truncate the just-written
            # record mid-payload, as a crash or full disk would.
            self.driver.write(key, data[: max(len(data) // 2, 1)])
        if self.max_count is not None or self.max_bytes is not None:
            if self._defer:
                self._gc_pending = True
            else:
                self.gc()

    def put(self, record: RunRecord) -> Path:
        """Persist a live record's summary under its spec hash.

        Cached records are already in a store and are not re-persisted
        (their summaries would round-trip unchanged anyway).  Assay
        records carrying a live result should go through
        :meth:`put_job`, which also persists the sample arrays.
        """
        if not record.cached:
            self._write(record.spec_hash, record.to_dict())
        return self.path_for(record.spec_hash)

    def put_job(self, record: AssayRunRecord) -> Path:
        """Persist a per-job assay record, samples included.

        The payload is the record's ``to_dict()`` summary plus a
        ``samples`` section (:func:`~repro.io.export.
        panel_result_to_payload` with the sample arrays kept as float64
        blocks), so a later :meth:`get_job` hit rehydrates the live
        result bit for bit.
        """
        from repro.io.export import panel_result_to_payload

        if not record.cached:
            payload = record.to_dict()
            payload["samples"] = panel_result_to_payload(record.result,
                                                         arrays=True)
            self._write(record.spec_hash, payload)
        return self.path_for(record.spec_hash)

    # -- eviction, statistics, clearing ------------------------------------------

    def gc(self, max_count: int | None = None,
           max_bytes: int | None = None) -> tuple[int, int]:
        """Evict least-recently-used records until the limits hold.

        Limits default to the store's own ``max_count``/``max_bytes``;
        pass either explicitly for a one-off collection.  Returns
        ``(n_evicted, bytes_freed)``, row records included.  A limit of
        ``None`` does not constrain that axis; ``gc()`` with no limits
        anywhere evicts nothing.  ``max_count`` counts job records only
        and ``max_bytes`` the bytes of both kinds (module docstring).
        """
        max_count = self.max_count if max_count is None else max_count
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        evicted = freed = 0
        if max_count is not None or max_bytes is not None:
            with self._mutex:
                jobs = self._listing()
                records = jobs + self._listing(_ROWS)
                count = len(jobs)
                total = sum(size for _, size, _ in records)
                for key, size, _ in sorted(records,
                                           key=lambda e: (e[2], e[0])):
                    over_count = max_count is not None and count > max_count
                    over_bytes = max_bytes is not None and total > max_bytes
                    if not over_count and not over_bytes:
                        break
                    row = key.startswith(_ROWS)
                    if row and not over_bytes:
                        continue
                    self.driver.delete(key)
                    count -= not row
                    total -= size
                    freed += size
                    evicted += 1
        self._count("evictions", evicted)
        return evicted, freed

    def stats(self) -> StoreStats:
        """Lifetime counters plus the store's current footprint (folding
        exited processes' counter files on the way: module docstring)."""
        totals = self._counter_totals()
        jobs = [size for _, size, _ in self._listing()]
        rows = [size for _, size, _ in self._listing(_ROWS)]
        return StoreStats(records=len(jobs), bytes=sum(jobs),
                          row_records=len(rows), row_bytes=sum(rows),
                          **totals)

    def _counter_totals(self) -> dict[str, int]:
        """The lifetime counters summed over the counter files, without
        listing a record: what :func:`repro.api.run` snapshots before a
        run."""
        self._flush()
        totals = dict.fromkeys(_COUNTERS, 0)
        for key, _, _ in self.driver.list(_COUNTER_FILES):
            counts = _counts_in(self.driver.read_bytes(key))
            for name, n in counts.items():
                totals[name] += n
            # Only the delete that removed the file carries it over.
            if _writer_gone(key) and self.driver.delete(key):
                with self._mutex:
                    for name, n in counts.items():
                        self._counts[name] += n
        self._flush()
        return totals

    def clear(self) -> int:
        """Delete every stored record, row records included; returns
        how many job records were removed.

        Lifetime hit/miss/eviction counters survive a clear (they
        describe the store's history, not its contents).
        """
        with self._mutex:
            jobs = self._listing()
            for key, _, _ in jobs + self._listing(_ROWS):
                self.driver.delete(key)
        return len(jobs)
