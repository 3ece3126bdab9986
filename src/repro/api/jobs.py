"""Job-level content addressing — the unit of cached work is the assay.

The run store memoising *whole* runs by spec hash leaves the platform's
real win on the table: a 100-point sweep that shares 90 grid points with
a previous study would re-simulate everything, because the sweep payload
— and therefore its hash — changed.  This module makes the individual
assay **job** the addressable unit of the execution pipeline:

- :class:`JobKey` content-addresses one assay job: SHA-256 over the
  canonical :class:`~repro.api.specs.AssaySpec` payload, which embeds
  the seed, the injection schedules and every protocol/cell/chain field
  — so two jobs collide only when they would execute identically, and
  renaming, reseeding or retuning a job misses cleanly.  The digest is
  the same value every per-job :class:`~repro.api.records.
  AssayRunRecord` carries as ``spec_hash``, so per-job store records,
  standalone assay runs and fleet members all share one identity.

- :class:`JobPlan` is the pipeline's admission step: given a fleet and
  a store, it keys every job, pulls the warm records
  (:class:`~repro.api.records.CachedAssayRecord` — live, bit-identical
  results rehydrated from persisted samples), and exposes the *miss
  fleet* — the sub-fleet of jobs that still need engine time.  Cached
  jobs are dropped **before** the executors shard, so only misses reach
  :meth:`~repro.engine.scheduler.AssayScheduler.run_iter`, on any
  backend; the runner then re-merges cached and fresh records in job
  order.

Planning is robust to store damage: a per-job record whose stored
bytes fail their SHA-256 seal (or fail to parse) is quarantined by the store and
surfaces here as a plain miss, so the affected job simply re-runs on
the backend and re-persists a clean record.  Failed (degraded) jobs
from a supervised partial run are never persisted at all — they stay
misses until a run completes them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.api.records import CachedAssayRecord
from repro.api.specs import AssaySpec, FleetSpec, hash_payload

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.store import RunStore

__all__ = ["JobKey", "JobPlan"]


@dataclass(frozen=True)
class JobKey:
    """The content address of one assay job.

    ``digest`` is the SHA-256 over the job's canonical assay payload —
    seed included — identical to the ``spec_hash`` of the
    :class:`~repro.api.records.AssayRunRecord` the job produces, and to
    the key the :class:`~repro.api.store.RunStore` files it under.
    ``name`` and ``seed`` are carried for display/provenance only; they
    are already part of the hashed payload.
    """

    digest: str
    name: str = ""
    seed: int | None = None

    @classmethod
    def for_assay(cls, assay: AssaySpec) -> "JobKey":
        return cls.for_payload(assay.to_dict())

    @classmethod
    def for_payload(cls, payload: Mapping) -> "JobKey":
        """Key an *already canonical* assay payload (``to_dict`` output)."""
        return cls(digest=hash_payload(payload),
                   name=str(payload.get("name", "")),
                   seed=payload.get("seed"))

    def __str__(self) -> str:
        return self.digest


@dataclass(frozen=True)
class JobPlan:
    """One fleet's jobs split into warm store hits and engine misses.

    ``keys[i]`` addresses ``fleet.assays[i]``; ``cached`` maps the job
    indices whose full per-job records were rehydrated from the store.
    Everything else is a miss and reaches the execution backend via
    :meth:`miss_fleet`.
    """

    fleet: FleetSpec
    keys: tuple[JobKey, ...]
    cached: Mapping[int, CachedAssayRecord] = field(default_factory=dict)

    @classmethod
    def plan(cls, fleet: FleetSpec,
             store: "RunStore | None" = None) -> "JobPlan":
        """Key every job and consult ``store`` for warm per-job records.

        Only full-sample records (:class:`~repro.api.records.
        CachedAssayRecord`) count as hits — a legacy summary-only assay
        record cannot rejoin a live stream and is treated as a miss.
        """
        keys = tuple(JobKey.for_assay(assay) for assay in fleet.assays)
        cached: dict[int, CachedAssayRecord] = {}
        if store is not None:
            # One batched pass: N lookups, one index write.
            with store.batched():
                for index, key in enumerate(keys):
                    hit = store.get_job(key)
                    if isinstance(hit, CachedAssayRecord):
                        cached[index] = hit
        return cls(fleet=fleet, keys=keys, cached=cached)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def n_cached(self) -> int:
        return len(self.cached)

    @property
    def miss_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.keys))
                     if i not in self.cached)

    def miss_fleet(self) -> FleetSpec | None:
        """The sub-fleet of jobs that must actually run, in job order
        (same name and execution block), or ``None`` when fully warm."""
        misses = self.miss_indices
        if not misses:
            return None
        return self.fleet.subset(misses)
