"""Uniform run records: result + provenance for every front-door run.

Every :func:`repro.api.run` / :func:`repro.api.iter_results` call
returns a :class:`RunRecord` subclass carrying the layer-specific result
object *plus* the provenance that makes the run reproducible and
auditable: the canonical spec payload, its SHA-256 hash, the spec schema
version, the seed, the wall time, and (where the batched engine ran)
its fusion statistics.  ``to_dict()`` serialises record summaries for
:func:`repro.io.export.run_record_to_json`; raw sample arrays stay on
the live result objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.calibration import CalibrationCurve
    from repro.core.explorer import ExplorationResult
    from repro.core.platform import PlatformRunResult
    from repro.measurement.panel import PanelResult

__all__ = [
    "EngineStats", "ResilienceStats", "RunRecord", "AssayRunRecord",
    "CachedAssayRecord", "FailedAssayRecord", "FleetRunRecord",
    "CalibrationRunRecord", "PlatformRunRecord", "ExploreRunRecord",
    "StoredRunRecord",
]


@dataclass(frozen=True)
class EngineStats:
    """Fusion statistics of the batched engine pass behind a record.

    ``n_solve_steps`` counts the fused engine time steps actually
    solved — chronoamperometric dwell groups plus cross-cell fused CV
    sweep groups — the observable that lets a job-level cache prove a
    fully warm re-run performed **zero** engine solves.
    """

    n_fused_dwells: int
    n_dwell_groups: int
    n_solve_steps: int = 0

    def to_dict(self) -> dict:
        return {"n_fused_dwells": self.n_fused_dwells,
                "n_dwell_groups": self.n_dwell_groups,
                "n_solve_steps": self.n_solve_steps}

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        return cls(n_fused_dwells=int(payload.get("n_fused_dwells", 0)),
                   n_dwell_groups=int(payload.get("n_dwell_groups", 0)),
                   n_solve_steps=int(payload.get("n_solve_steps", 0)))


@dataclass(frozen=True)
class ResilienceStats:
    """Fault/retry tallies of a supervised execution, cumulative since
    the stream started (like ``wall_time_s`` and the engine statistics).

    Stamped onto records by the supervised backends
    (:mod:`repro.api.resilience`) and surfaced in
    ``provenance()["resilience"]``; an all-zero snapshot on a
    supervised run is itself informative — it proves the run needed no
    recovery.
    """

    retries: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    engine_errors: int = 0
    failed_jobs: int = 0

    @property
    def faults(self) -> int:
        """Total failure events observed (before retry accounting)."""
        return (self.worker_crashes + self.worker_hangs
                + self.engine_errors)

    def to_dict(self) -> dict:
        return {"retries": self.retries,
                "worker_crashes": self.worker_crashes,
                "worker_hangs": self.worker_hangs,
                "engine_errors": self.engine_errors,
                "failed_jobs": self.failed_jobs}

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceStats":
        return cls(retries=int(payload.get("retries", 0)),
                   worker_crashes=int(payload.get("worker_crashes", 0)),
                   worker_hangs=int(payload.get("worker_hangs", 0)),
                   engine_errors=int(payload.get("engine_errors", 0)),
                   failed_jobs=int(payload.get("failed_jobs", 0)))


@dataclass(frozen=True)
class RunRecord:
    """Provenance shared by every front-door run.

    ``spec`` is the canonical payload the run was built from (what
    :meth:`~repro.api.specs.AssaySpec.to_dict` returned), ``spec_hash``
    its SHA-256, ``schema_version`` the spec schema it was written
    against, and ``seed`` the acquisition-noise seed — together they pin
    the run bit for bit.  ``wall_time_s`` is the elapsed time since the
    run (or, for records streamed by :func:`repro.api.iter_results`,
    since the *stream*) started, measured when the record was produced.
    """

    spec: dict
    spec_hash: str
    schema_version: int
    seed: int | None
    wall_time_s: float

    #: ``True`` only on records rehydrated from a
    #: :class:`~repro.api.store.RunStore` hit (:class:`StoredRunRecord` /
    #: :class:`CachedAssayRecord`); live engine runs report ``False``.
    cached = False

    #: :class:`~repro.api.store.StoreStats` snapshot stamped by
    #: :func:`repro.api.run` when the run consulted a store (``None``
    #: otherwise); surfaced in :meth:`provenance` under ``"store"``.
    #: A class-level default so frozen subclasses need no extra field —
    #: the runner attaches it with ``object.__setattr__``.
    store_stats = None

    #: :class:`ResilienceStats` snapshot stamped by the supervised
    #: backends (:mod:`repro.api.resilience`) — cumulative retry/fault
    #: counts at the moment the record streamed; ``None`` on
    #: unsupervised runs.  Same class-attribute pattern as
    #: ``store_stats``.  Surfaced in :meth:`provenance` under
    #: ``"resilience"``.
    resilience = None

    #: ``True`` only on :class:`FailedAssayRecord` — a job that
    #: exhausted its retry budget under ``on_error="partial"``.
    failed = False

    @property
    def kind(self) -> str:
        return str(self.spec.get("kind", "?"))

    def _screening_flag(self) -> bool | None:
        """The run's screening-profile flag, if the spec declares one.

        Assay and sweep payloads carry it at top level; fleet payloads
        carry it per assay (the fleet screened if any job did).  Pre-v3
        payloads have no flag and report ``None`` (omitted from
        provenance) rather than a fabricated ``False``.
        """
        if "screening" in self.spec:
            return bool(self.spec["screening"])
        assays = self.spec.get("assays")
        if isinstance(assays, list) and any(
                isinstance(a, dict) and "screening" in a for a in assays):
            return any(bool(a.get("screening", False))
                       for a in assays if isinstance(a, dict))
        return None

    def provenance(self) -> dict:
        out = {"kind": self.kind, "spec_hash": self.spec_hash,
               "schema_version": self.schema_version, "seed": self.seed,
               "wall_time_s": self.wall_time_s, "cached": self.cached}
        screening = self._screening_flag()
        if screening is not None:
            out["screening"] = screening
        if self.store_stats is not None:
            out["store"] = self.store_stats.to_dict()
        if self.resilience is not None:
            out["resilience"] = self.resilience.to_dict()
        if self.failed:
            out["failed"] = True
        return out

    def _result_dict(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        return {"provenance": self.provenance(), "spec": self.spec,
                "result": self._result_dict()}


@dataclass(frozen=True)
class AssayRunRecord(RunRecord):
    """One panel assay: a :class:`~repro.measurement.panel.PanelResult`
    plus provenance.  ``engine`` carries the fused-batch statistics of
    the scheduler pass that solved it: set on every live record, and on
    a :class:`CachedAssayRecord` those of the original solve (``None``
    only when the stored record carried none)."""

    job_name: str
    result: "PanelResult"
    engine: EngineStats | None = None

    #: Distinct engine rows solved per step, summed over the fused
    #: groups run so far in the stream (cumulative like ``engine``;
    #: replicate rows count once).  Stamped by the execution core on
    #: fresh records, ``None`` elsewhere; an observation only, kept out
    #: of ``engine``, provenance and the store.
    n_solved_systems = None
    #: Distinct engine rows served from the run store instead of solved,
    #: stamped and accumulated like ``n_solved_systems``.
    n_store_rows = None

    def _result_dict(self) -> dict:
        summary = self.result.summary_dict()
        summary["job_name"] = self.job_name
        if self.engine is not None:
            summary["engine"] = self.engine.to_dict()
        return summary


@dataclass(frozen=True)
class CachedAssayRecord(AssayRunRecord):
    """A per-job assay record rehydrated from a run store hit.

    Unlike :class:`StoredRunRecord` (whole-run summaries), per-job
    records persist every sample array, so a hit rebuilds a **live**
    :class:`~repro.measurement.panel.PanelResult` — bit-identical
    traces, voltammograms and readouts — and drops into a merged fleet
    stream exactly where the uncached run would have produced it.  Only
    the raw :class:`~repro.electronics.chain.ChannelReading` attachments
    (ADC codes, saturation flags) are not persisted; rehydrated traces
    carry ``reading=None``.  ``wall_time_s`` and ``engine`` describe the
    *original* solve; ``cached`` is ``True``.
    """

    cached = True


@dataclass(frozen=True)
class FailedAssayRecord(RunRecord):
    """A job that exhausted its retry budget under ``on_error="partial"``.

    Streams (and files into :class:`FleetRunRecord.records`) in the
    failed job's slot, so the fleet's job order survives partial
    degradation.  Carries what an operator needs to attribute the
    failure: the last exception's type, message and traceback, plus the
    number of attempts consumed (``provenance()["attempts"]``).
    ``result`` and ``engine`` are ``None`` — there is nothing to
    persist, and stores never cache failures (a later run retries the
    job as a plain miss).  The ``spec``/``spec_hash`` are the job's own
    canonical payload and :class:`~repro.api.jobs.JobKey` digest,
    identical to what the successful record would have carried.
    """

    job_name: str = ""
    error_type: str = "ExecutionError"
    error: str = ""
    traceback: str = ""
    attempts: int = 1

    failed = True
    result = None
    engine = None

    def provenance(self) -> dict:
        out = super().provenance()
        out["attempts"] = self.attempts
        return out

    def _result_dict(self) -> dict:
        return {"job_name": self.job_name, "failed": True,
                "error_type": self.error_type, "error": self.error,
                "attempts": self.attempts}


@dataclass(frozen=True)
class FleetRunRecord(RunRecord):
    """One fleet pass: the per-job records, in job order, plus the
    fused-engine totals across the whole fleet.

    A fleet has no single seed (``seed`` is ``None``); ``seeds`` records
    every job's acquisition seed, in job order, so the whole pass stays
    reproducible from the record alone.
    """

    records: tuple[AssayRunRecord, ...]
    engine: EngineStats
    seeds: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(record.job_name for record in self.records)

    @property
    def results(self) -> tuple["PanelResult", ...]:
        return tuple(record.result for record in self.records)

    @property
    def n_failed(self) -> int:
        """Jobs that exhausted their retry budget (``on_error="partial"``
        yields them as :class:`FailedAssayRecord`; 0 everywhere else)."""
        return sum(1 for record in self.records if record.failed)

    def provenance(self) -> dict:
        out = super().provenance()
        out["seeds"] = list(self.seeds)
        if self.n_failed:
            out["n_failed"] = self.n_failed
        return out

    def _result_dict(self) -> dict:
        return {"n_jobs": len(self.records),
                "engine": self.engine.to_dict(),
                "jobs": [r._result_dict() for r in self.records]}


@dataclass(frozen=True)
class CalibrationRunRecord(RunRecord):
    """One measured calibration: the fitted curve plus the held
    potential and electrode area needed to express paper-style
    area-normalised sensitivities."""

    target: str
    curve: "CalibrationCurve"
    e_applied: float
    we_area: float

    def _result_dict(self) -> dict:
        return {"target": self.target,
                "e_applied_v": self.e_applied,
                "we_area_m2": self.we_area,
                "blank_mean_a": self.curve.blank_mean,
                "blank_std_a": self.curve.blank_std,
                "points": [{"concentration_mm": p.concentration,
                            "signal_a": p.signal,
                            "signal_std_a": p.signal_std}
                           for p in self.curve.points]}


@dataclass(frozen=True)
class PlatformRunRecord(RunRecord):
    """One assay on a materialised design: the
    :class:`~repro.core.platform.PlatformRunResult` plus the platform's
    human-readable summary."""

    result: "PlatformRunResult"
    summary: str

    def _result_dict(self) -> dict:
        return {"assay_time_s": self.result.assay_time,
                "blank_current_a": self.result.blank_current,
                "readouts": {target: readout.to_dict()
                             for target, readout
                             in self.result.readouts.items()}}


@dataclass(frozen=True)
class ExploreRunRecord(RunRecord):
    """One design-space exploration: the full
    :class:`~repro.core.explorer.ExplorationResult`."""

    result: "ExplorationResult"

    def _result_dict(self) -> dict:
        return {"panel_name": self.result.panel_name,
                "n_candidates": self.result.n_candidates,
                "n_feasible": self.result.n_feasible,
                "n_pareto": len(self.result.front)}


@dataclass(frozen=True)
class StoredRunRecord(RunRecord):
    """A run record rehydrated from a :class:`~repro.api.store.RunStore`.

    Cache hits return everything the store persisted — the canonical
    spec, full provenance (including extras like a fleet's per-job
    ``seeds``) and the quantified result summary — without touching the
    engine.  Raw sample arrays were never persisted, so ``result`` is
    the summary dict, not a live result object; re-run the spec without
    a store when the live arrays are needed.  ``cached`` is ``True`` and
    ``wall_time_s`` is the *original* run's wall time.
    """

    result: dict
    stored_provenance: dict = field(default_factory=dict)

    cached = True

    def provenance(self) -> dict:
        out = super().provenance()
        # Preserve provenance extras the original record type emitted
        # (e.g. FleetRunRecord.seeds); the live fields above stay
        # authoritative for anything they both carry.
        for key, value in self.stored_provenance.items():
            out.setdefault(key, value)
        out["cached"] = True
        return out

    def _result_dict(self) -> dict:
        return dict(self.result)
