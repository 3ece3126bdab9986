"""Versioned, JSON-round-trippable *execution* specs.

Where :mod:`repro.core.spec` serialises what a deployment *wants*
(panel targets, design constraints) and what it *chose* (a platform
design), this module serialises what the platform should *do*: which
cell to wet, which acquisition chain to drive it, which protocol
parameters and injection schedules to run, and which seed pins the
noise.  Every spec is a frozen dataclass with a canonical ``to_dict``
payload (``schema`` + ``kind`` envelope, shared with the core specs),
so a spec file is a complete, hashable description of a run —
:func:`spec_hash` over the canonical payload is the provenance key every
:class:`~repro.api.records.RunRecord` carries.

Spec kinds (see :mod:`repro.api` for the schema/versioning policy):

- ``assay`` — one multiplexed panel assay: cell x chain x protocol x seed.
- ``fleet`` — N concurrent assays for the batched scheduler, plus a
  declarative ``execution`` block (backend / workers / ...) selecting
  how the fleet executes (see :mod:`repro.api.executors`).
- ``sweep`` — a parameter grid over a base ``assay``, compiled into one
  ``fleet`` payload so parameter studies flow through the same
  backends and run store.
- ``calibration`` — a measured calibration ladder of one reference sensor.
- ``platform`` — materialise a :class:`~repro.core.architecture.
  PlatformDesign` (embedded core ``design`` payload) and assay a sample.
- ``explore`` — design-space exploration of a core ``panel`` payload.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.api.resilience import RetryPolicy
from repro.chem.solution import Injection, InjectionSchedule
from repro.core.spec import (
    check_kind,
    read_payload,
    require,
    require_list,
)
from repro.errors import SpecError

#: Schema written into every api payload.  Version 2 added the fleet
#: ``execution`` block and the ``sweep`` kind; version 3 added the
#: opt-in ``screening`` flag on assays and sweeps; version 4 added the
#: ``retry`` policy and ``on_error`` mode to the execution block;
#: version 5 added the ``distributed`` backend with its ``queue``
#: pointer and the opt-in speculative ``prefetch`` flag; version 6
#: removed the execution block's ``shard`` strategy and ``prefetch``
#: flag; version 7 removed the protocol's ``batch_electrodes`` flag.
#: Older files still load (missing keys take their defaults, unknown
#: keys such as a v5 ``shard`` or a v6 ``batch_electrodes`` are
#: ignored), so readers accept all seven.
SCHEMA_VERSION = 7
SUPPORTED_SCHEMAS = (1, 2, 3, 4, 5, 6, 7)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from pathlib import Path

    from repro.core.architecture import PlatformDesign
    from repro.core.targets import PanelSpec
    from repro.electronics.chain import AcquisitionChain
    from repro.engine.scheduler import AssayJob
    from repro.measurement.panel import PanelProtocol
    from repro.sensors.cell import ElectrochemicalCell

__all__ = [
    "SCHEMA_VERSION", "SUPPORTED_SCHEMAS",
    "ChainSpec", "CellSpec", "InjectionEvent", "PanelProtocolSpec",
    "ExecutionSpec",
    "AssaySpec", "FleetSpec", "SweepSpec", "CalibrationSpec",
    "PlatformSpec", "ExploreSpec",
    "spec_from_dict", "load_spec", "spec_hash", "hash_payload",
    "canonical_payload",
]


def _check_kind(payload: Mapping, kind: str, path: str) -> None:
    """Envelope check accepting every schema this reader interprets."""
    check_kind(payload, kind, path, version=SUPPORTED_SCHEMAS)


def canonical_payload(spec) -> dict:
    """The canonical JSON payload of a spec.

    Raw payload dicts are normalised by parsing them back into a spec
    first, so hand-written files (``"ca_dwell": 30``) and ``to_dict``
    output (``30.0``) canonicalise — and therefore hash — identically.
    """
    if isinstance(spec, Mapping):
        return spec_from_dict(spec).to_dict()
    to_dict = getattr(spec, "to_dict", None)
    if to_dict is None:
        raise SpecError(f"not a spec: {type(spec).__name__}")
    return to_dict()


def _float_value(value, label: str) -> float:
    # Strict like _int_value/_bool_value: bool/str coercions (float(True)
    # == 1.0, float("30")) would silently change a hand-written spec.
    if isinstance(value, (bool, str)):
        raise SpecError(f"{label}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: expected a number, "
                        f"got {value!r}") from exc


def _int_value(value, label: str) -> int:
    # Reject bools, strings and non-integral floats rather than coercing:
    # a spec saying "seed": 7.9 must not silently run a different stream.
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise SpecError(f"{label}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: expected an integer, "
                        f"got {value!r}") from exc


def _bool_value(value, label: str) -> bool:
    # No coercion: bool("false") is True, which would silently flip the
    # meaning of a hand-written spec.
    if not isinstance(value, bool):
        raise SpecError(f"{label}: expected true or false, got {value!r}")
    return value


def hash_payload(payload: Mapping) -> str:
    """SHA-256 of an *already canonical* payload (``to_dict`` output).

    The runner uses this to hash the payload it just serialised without
    re-parsing it; arbitrary hand-written dicts should go through
    :func:`spec_hash`, which canonicalises first.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_hash(spec) -> str:
    """SHA-256 over the canonical JSON payload — the provenance key."""
    return hash_payload(canonical_payload(spec))


# -- building blocks ---------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """Which acquisition chain digitises the assay.

    ``kind`` is ``"integrated"`` (the paper's Sec. II-C multiplexed
    chain; ``readout`` names a :data:`~repro.data.catalog.
    READOUT_CLASSES` entry) or ``"bench"`` (the laboratory-grade chain
    behind the cited Table III numbers).  ``seed`` pins the chain's own
    noise generator and nothing else: it selects acquisition noise only,
    for chronoamperometric dwells and CV sweeps alike, never the
    chemistry the chain digitises.
    """

    kind: str = "integrated"
    readout: str = "cyp_micro"
    n_channels: int = 5
    seed: int = 2011

    def build(self) -> "AcquisitionChain":
        from repro.data import bench_chain, integrated_chain

        if self.kind == "bench":
            return bench_chain(seed=self.seed)
        if self.kind == "integrated":
            return integrated_chain(self.readout, n_channels=self.n_channels,
                                    seed=self.seed)
        raise SpecError(f"chain spec: unknown kind {self.kind!r} "
                        f"(known: integrated, bench)")

    def to_dict(self) -> dict:
        # Bench chains ignore readout/n_channels; emit nulls so two
        # bench specs that execute identically also hash identically.
        if self.kind == "bench":
            return {"kind": "bench", "readout": None, "n_channels": None,
                    "seed": int(self.seed)}
        return {"kind": self.kind, "readout": self.readout,
                "n_channels": int(self.n_channels), "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, payload: Mapping, path: str = "chain") -> "ChainSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object")
        readout = payload.get("readout")
        n_channels = payload.get("n_channels")
        return cls(kind=payload.get("kind", "integrated"),
                   readout="cyp_micro" if readout is None else readout,
                   n_channels=(5 if n_channels is None
                               else _int_value(n_channels,
                                               f"{path}.n_channels")),
                   seed=_int_value(payload.get("seed", 2011),
                                   f"{path}.seed"))


@dataclass(frozen=True)
class CellSpec:
    """Which electrochemical cell (chip + sample) the assay runs on.

    ``kind`` is ``"paper_panel"`` (the Fig. 4 five-electrode chip) or
    ``"reference"`` (the single-sensor cell of ``target``'s calibrated
    reference electrode).  ``concentrations`` maps species names to bulk
    loadings in mM for either kind — the paper panel defaults to the
    mid-linear-range sample, the reference cell to an unloaded chamber.
    ``target`` is meaningful only for ``"reference"``.
    """

    kind: str = "paper_panel"
    target: str | None = None
    concentrations: Mapping[str, float] | None = None

    def build(self) -> "ElectrochemicalCell":
        from repro.data import paper_panel_cell, reference_cell

        if self.kind == "paper_panel":
            if self.target is not None:
                raise SpecError(
                    "cell spec: 'target' is only for kind 'reference' "
                    "(the paper panel chip is fixed)")
            loading = (dict(self.concentrations)
                       if self.concentrations is not None else None)
            return paper_panel_cell(loading)
        if self.kind == "reference":
            if not self.target:
                raise SpecError(
                    "cell spec: kind 'reference' needs a 'target'")
            try:
                cell = reference_cell(self.target)
            except KeyError as exc:
                raise SpecError(
                    f"cell spec: {exc.args[0]}") from exc
            for species, value in (self.concentrations or {}).items():
                cell.chamber.set_bulk(species, value)
            return cell
        raise SpecError(f"cell spec: unknown kind {self.kind!r} "
                        f"(known: paper_panel, reference)")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target,
                "concentrations": ({k: float(v)
                                    for k, v in self.concentrations.items()}
                                   if self.concentrations is not None
                                   else None)}

    @classmethod
    def from_dict(cls, payload: Mapping, path: str = "cell") -> "CellSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object")
        concentrations = payload.get("concentrations")
        if concentrations is not None:
            if not isinstance(concentrations, Mapping):
                raise SpecError(f"{path}.concentrations: expected an object "
                                f"mapping species to mM")
            concentrations = {
                k: _float_value(v, f"{path}.concentrations[{k!r}]")
                for k, v in concentrations.items()}
        return cls(kind=payload.get("kind", "paper_panel"),
                   target=payload.get("target"),
                   concentrations=concentrations)


@dataclass(frozen=True)
class InjectionEvent:
    """One mid-dwell bulk addition (mirrors :class:`~repro.chem.solution.
    Injection`): at ``time`` seconds the bulk of ``species`` rises by
    ``concentration_step`` mM."""

    time: float
    species: str
    concentration_step: float

    def build(self) -> Injection:
        return Injection(self.time, self.species, self.concentration_step)

    def to_dict(self) -> dict:
        return {"time": float(self.time), "species": self.species,
                "concentration_step": float(self.concentration_step)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "injection") -> "InjectionEvent":
        return cls(time=_float_value(require(payload, "time", path),
                                     f"{path}.time"),
                   species=require(payload, "species", path),
                   concentration_step=_float_value(
                       require(payload, "concentration_step", path),
                       f"{path}.concentration_step"))


def _events_to_schedule(events: tuple[InjectionEvent, ...],
                        ) -> InjectionSchedule:
    return InjectionSchedule(tuple(e.build() for e in events))


def _events_from_list(items, path: str) -> tuple[InjectionEvent, ...]:
    return tuple(InjectionEvent.from_dict(item, f"{path}[{i}]")
                 for i, item in enumerate(items))


@dataclass(frozen=True)
class PanelProtocolSpec:
    """The :class:`~repro.measurement.panel.PanelProtocol` parameter set.

    Field defaults mirror the protocol's constructor; ``injections`` is
    ``None``, a tuple of :class:`InjectionEvent` applied to every
    chronoamperometric WE, or a mapping from WE name to a tuple.
    Every assay built from a spec runs batched, through
    :class:`~repro.engine.scheduler.AssayScheduler`; the sequential
    per-WE reference is ``PanelProtocol(batch_electrodes=False)``, a
    class-level check outside the spec.
    """

    ca_dwell: float = 60.0
    cv_window_margin: float = 0.25
    scan_rate: float = 0.020
    sample_rate: float = 10.0
    settle_between: float = 1.0
    peak_min_height: float = 2.0e-9
    injections: (tuple[InjectionEvent, ...]
                 | Mapping[str, tuple[InjectionEvent, ...]] | None) = None

    def build(self, screening: bool = False) -> "PanelProtocol":
        from repro.measurement.panel import PanelProtocol

        if self.injections is None:
            schedule = None
        elif isinstance(self.injections, Mapping):
            schedule = {we: _events_to_schedule(tuple(events))
                        for we, events in self.injections.items()}
        else:
            schedule = _events_to_schedule(tuple(self.injections))
        return PanelProtocol(
            ca_dwell=self.ca_dwell, cv_window_margin=self.cv_window_margin,
            scan_rate=self.scan_rate, sample_rate=self.sample_rate,
            settle_between=self.settle_between,
            peak_min_height=self.peak_min_height,
            ca_injections=schedule, screening=screening)

    def to_dict(self) -> dict:
        if self.injections is None:
            injections = None
        elif isinstance(self.injections, Mapping):
            injections = {we: [e.to_dict() for e in events]
                          for we, events in self.injections.items()}
        else:
            injections = [e.to_dict() for e in self.injections]
        return {"ca_dwell": float(self.ca_dwell),
                "cv_window_margin": float(self.cv_window_margin),
                "scan_rate": float(self.scan_rate),
                "sample_rate": float(self.sample_rate),
                "settle_between": float(self.settle_between),
                "peak_min_height": float(self.peak_min_height),
                "injections": injections}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "protocol") -> "PanelProtocolSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object")
        raw = payload.get("injections")
        injections: (tuple[InjectionEvent, ...]
                     | dict[str, tuple[InjectionEvent, ...]] | None)
        if raw is None:
            injections = None
        elif isinstance(raw, Mapping):
            injections = {we: _events_from_list(
                              items, f"{path}.injections[{we!r}]")
                          for we, items in raw.items()}
        elif isinstance(raw, (list, tuple)):
            injections = _events_from_list(raw, f"{path}.injections")
        else:
            raise SpecError(f"{path}.injections: expected null, a list of "
                            f"events, or a WE-name mapping")
        defaults = cls()

        def number(key: str) -> float:
            return _float_value(payload.get(key, getattr(defaults, key)),
                                f"{path}.{key}")

        return cls(
            ca_dwell=number("ca_dwell"),
            cv_window_margin=number("cv_window_margin"),
            scan_rate=number("scan_rate"),
            sample_rate=number("sample_rate"),
            settle_between=number("settle_between"),
            peak_min_height=number("peak_min_height"),
            injections=injections)


# -- runnable specs ----------------------------------------------------------------


@dataclass(frozen=True)
class AssaySpec:
    """One declarative panel assay: cell x chain x protocol x seed.

    ``seed`` pins the acquisition-noise generator the protocol draws
    from and selects nothing else: neither dwell nor CV chemistry
    consumes randomness, so two runs of the same spec are bit-identical,
    and assays differing only in their seeds (technical replicates)
    share their built cell, chain and protocol, their plan and every
    diffusion solve in a fused fleet (:meth:`build_job`).
    ``screening`` opts the assay into the coarse-grid screening profile
    — never the default; the flag is part of the canonical payload, so
    a screening run can never share a content address (or a store slot)
    with its full-fidelity twin.
    """

    name: str = "assay"
    seed: int = 2011
    cell: CellSpec = field(default_factory=CellSpec)
    chain: ChainSpec = field(default_factory=ChainSpec)
    protocol: PanelProtocolSpec = field(default_factory=PanelProtocolSpec)
    screening: bool = False

    def build_protocol(self) -> "PanelProtocol":
        return self.protocol.build(screening=self.screening)

    def chemistry_key(self) -> str:
        """The assay's *chemistry*: its canonical payload without
        ``name`` and ``seed``, which select only the job's label and its
        acquisition-noise generator.  Exact, like
        :func:`~repro.engine.mechanisms.mechanism_key`: the payload's
        JSON text in ``to_dict`` order, so only assays that build
        identical cells, chains and protocols share a key."""
        payload = self.to_dict()
        del payload["name"], payload["seed"]
        return json.dumps(payload, separators=(",", ":"))

    def build_job(self, memo: dict | None = None) -> "AssayJob":
        """A scheduler-ready job: built cell, chain, protocol and RNG.

        ``memo`` (one dict per scheduler pass) shares the built cell,
        chain and protocol between assays of one :meth:`chemistry_key`,
        so the scheduler plans each shared triple once.  Never keep a
        memo across passes: a solved pass leaves its dwells' mechanisms
        holding end-of-record profiles.
        """
        from repro.engine.scheduler import AssayJob

        key = self.chemistry_key()
        memo = {} if memo is None else memo
        built = memo.get(key)
        if built is None:
            built = memo[key] = (self.cell.build(), self.chain.build(),
                                 self.build_protocol())
        cell, chain, protocol = built
        return AssayJob(cell=cell, chain=chain, name=self.name,
                        rng=np.random.default_rng(self.seed),
                        protocol=protocol)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "kind": "assay",
                "name": self.name, "seed": int(self.seed),
                "cell": self.cell.to_dict(), "chain": self.chain.to_dict(),
                "protocol": self.protocol.to_dict(),
                "screening": bool(self.screening)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "assay spec") -> "AssaySpec":
        _check_kind(payload, "assay", path)
        return cls(
            name=payload.get("name", "assay"),
            seed=_int_value(payload.get("seed", 2011), f"{path}.seed"),
            cell=CellSpec.from_dict(payload.get("cell", {}), f"{path}.cell"),
            chain=ChainSpec.from_dict(payload.get("chain", {}),
                                      f"{path}.chain"),
            protocol=PanelProtocolSpec.from_dict(payload.get("protocol", {}),
                                                 f"{path}.protocol"),
            screening=_bool_value(payload.get("screening", False),
                                  f"{path}.screening"))


_EXECUTION_BACKENDS = ("inline", "process", "distributed")
_EXECUTION_ON_ERROR = ("raise", "partial")


@dataclass(frozen=True)
class ExecutionSpec:
    """How a fleet executes — the declarative face of the backend API.

    ``backend`` selects an :class:`~repro.api.executors.Executor`:
    ``"inline"`` (one fused scheduler pass in this process, the
    bit-identical reference) or ``"process"`` (the fleet's jobs sharded
    across worker processes).  ``workers`` is the process count (``null``
    means one per CPU core).

    ``retry`` (schema v4) is a :class:`~repro.api.resilience.
    RetryPolicy` — attempt budget, per-dispatch timeout, backoff —
    that turns the backend into its supervised variant; ``on_error``
    selects what exhausting the budget does: ``"raise"`` (default —
    the run fails with :class:`~repro.errors.ExecutionError`) or
    ``"partial"`` (the job streams a :class:`~repro.api.records.
    FailedAssayRecord` in its slot and the fleet survives).

    ``"distributed"`` (schema v5) publishes shards to the task queue
    directory named by ``queue`` instead of owning a process pool;
    independent ``repro worker`` processes — on this host or any host
    sharing the filesystem — claim and execute them (see
    :mod:`repro.api.distributed`).  Like ``workers``, the ``queue``
    pointer describes how the run is performed and so participates in
    the fleet-level hash without affecting per-job store identity.

    Every field defaults to the schema-1 behaviour, so older fleet
    files load unchanged.  Results are backend-independent bit for bit;
    only the wall time and engine fusion statistics reflect the choice.
    """

    backend: str = "inline"
    workers: int | None = None
    retry: RetryPolicy | None = None
    on_error: str = "raise"
    queue: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in _EXECUTION_BACKENDS:
            raise SpecError(
                f"execution spec: unknown backend {self.backend!r} "
                f"(known: {', '.join(_EXECUTION_BACKENDS)})")
        if self.workers is not None and (
                isinstance(self.workers, bool)
                or not isinstance(self.workers, int) or self.workers < 1):
            raise SpecError(f"execution spec: workers must be an integer "
                            f">= 1 or None, got {self.workers!r}")
        if self.retry is not None \
                and not isinstance(self.retry, RetryPolicy):
            raise SpecError(f"execution spec: retry must be a "
                            f"RetryPolicy or None, "
                            f"got {type(self.retry).__name__}")
        if self.on_error not in _EXECUTION_ON_ERROR:
            raise SpecError(
                f"execution spec: unknown on_error mode "
                f"{self.on_error!r} "
                f"(known: {', '.join(_EXECUTION_ON_ERROR)})")
        if self.queue is not None and not isinstance(self.queue, str):
            raise SpecError(f"execution spec: queue must be a directory "
                            f"path or null, got "
                            f"{type(self.queue).__name__}")
        if self.backend == "distributed" and self.queue is None:
            raise SpecError("execution spec: the distributed backend "
                            "needs a queue directory (execution.queue "
                            "/ --queue)")

    def build(self, faults=None):
        """The configured :class:`~repro.api.executors.Executor`.

        ``faults`` (a :class:`~repro.api.resilience.FaultInjector`) is
        deliberately *not* a spec field — injected faults are a harness
        concern and must never enter the canonical payload, or a
        faulted run would hash apart from its fault-free twin.
        """
        from repro.api.executors import InlineExecutor, ProcessExecutor

        if self.backend == "inline":
            return InlineExecutor(retry=self.retry,
                                  on_error=self.on_error, faults=faults)
        if self.backend == "distributed":
            from repro.api.distributed import DistributedExecutor

            return DistributedExecutor(queue=self.queue,
                                       workers=self.workers,
                                       retry=self.retry,
                                       on_error=self.on_error,
                                       faults=faults)
        return ProcessExecutor(workers=self.workers, retry=self.retry,
                               on_error=self.on_error, faults=faults)

    def to_dict(self) -> dict:
        return {"backend": self.backend,
                "workers": (int(self.workers)
                            if self.workers is not None else None),
                "retry": (self.retry.to_dict()
                          if self.retry is not None else None),
                "on_error": self.on_error,
                "queue": self.queue}

    @classmethod
    def from_dict(cls, payload: Mapping | None,
                  path: str = "execution") -> "ExecutionSpec":
        if payload is None:
            return cls()
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object or null")
        # Re-check the enumerations here so file errors name the
        # offending path, like every other loader; __post_init__ stays
        # the authority for programmatic construction.
        backend = payload.get("backend", "inline")
        if backend not in _EXECUTION_BACKENDS:
            raise SpecError(f"{path}.backend: unknown backend {backend!r} "
                            f"(known: {', '.join(_EXECUTION_BACKENDS)})")
        workers = payload.get("workers")
        retry_payload = payload.get("retry")
        on_error = payload.get("on_error", "raise")
        if on_error not in _EXECUTION_ON_ERROR:
            raise SpecError(f"{path}.on_error: unknown mode "
                            f"{on_error!r} "
                            f"(known: {', '.join(_EXECUTION_ON_ERROR)})")
        queue = payload.get("queue")
        if queue is not None and not isinstance(queue, str):
            raise SpecError(f"{path}.queue: expected a directory path "
                            f"or null, got {type(queue).__name__}")
        return cls(backend=backend,
                   workers=(None if workers is None
                            else _int_value(workers, f"{path}.workers")),
                   retry=(None if retry_payload is None
                          else RetryPolicy.from_dict(retry_payload,
                                                     f"{path}.retry")),
                   on_error=on_error,
                   queue=queue)


@dataclass(frozen=True)
class FleetSpec:
    """N concurrent assays for the batched fleet scheduler.

    The canonical payload stores every assay explicitly (fully
    reproducible files); :meth:`homogeneous` builds the common case of N
    identical cells with consecutive seeds, mirroring the CLI's
    ``fleet --cells N --seed S`` convention (job ``k`` gets seed
    ``S + k`` for both its chain and its acquisition RNG).
    ``execution`` declares the backend the fleet runs on; results are
    backend-independent, so two fleets differing only in ``execution``
    produce bit-identical panel results (but hash differently — the
    payload records how the run was performed).
    """

    name: str = "fleet"
    assays: tuple[AssaySpec, ...] = ()
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        # Reject empty fleets at construction so every FleetSpec that
        # exists (and therefore every exported payload) can be reloaded.
        if not self.assays:
            raise SpecError("fleet spec: a fleet needs at least one assay")

    @classmethod
    def homogeneous(cls, cells: int, seed: int = 2011,
                    ca_dwell: float = 30.0, readout: str = "cyp_micro",
                    name: str = "fleet",
                    execution: ExecutionSpec | None = None) -> "FleetSpec":
        if cells < 1:
            raise SpecError("fleet spec: cells must be >= 1")
        assays = tuple(
            AssaySpec(name=f"cell{k:02d}", seed=seed + k,
                      chain=ChainSpec(readout=readout, seed=seed + k),
                      protocol=PanelProtocolSpec(ca_dwell=ca_dwell))
            for k in range(cells))
        return cls(name=name, assays=assays,
                   execution=(execution if execution is not None
                              else ExecutionSpec()))

    def __len__(self) -> int:
        return len(self.assays)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "kind": "fleet",
                "name": self.name,
                "assays": [a.to_dict() for a in self.assays],
                "execution": self.execution.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "fleet spec") -> "FleetSpec":
        _check_kind(payload, "fleet", path)
        assays = tuple(
            AssaySpec.from_dict(item, f"{path}.assays[{i}]")
            for i, item in enumerate(require_list(payload, "assays", path)))
        if not assays:
            raise SpecError(f"{path}.assays: a fleet needs at least one "
                            f"assay")
        return cls(name=payload.get("name", "fleet"), assays=assays,
                   execution=ExecutionSpec.from_dict(
                       payload.get("execution"), f"{path}.execution"))

    def build_jobs(self) -> list:
        """Scheduler-ready jobs for every assay, in fleet order."""
        return [assay.build_job() for assay in self.assays]

    def subset(self, indices) -> "FleetSpec":
        """The sub-fleet of the given job indices (same name/execution).

        This is the job-level pipeline's miss fleet: cached jobs are
        dropped *before* the executors shard, so only the jobs that
        still need engine time are dispatched.  Indices must be valid
        and the subset non-empty (a :class:`FleetSpec` cannot be empty).
        """
        indices = tuple(indices)
        try:
            assays = tuple(self.assays[i] for i in indices)
        except IndexError:
            raise SpecError(
                f"fleet spec: subset index out of range for a "
                f"{len(self.assays)}-assay fleet: {indices}") from None
        return FleetSpec(name=self.name, assays=assays,
                         execution=self.execution)


def _grid_assign(payload: dict, dotted: str, value, label: str) -> None:
    """Set ``dotted`` (e.g. ``"protocol.ca_dwell"``) inside a payload.

    Intermediate objects are created when the canonical payload carries
    ``null`` there (e.g. ``cell.concentrations``); anything else that is
    not an object is a spec error naming the axis.
    """
    parts = dotted.split(".")
    node = payload
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise SpecError(f"{label}: path {dotted!r} crosses "
                            f"non-object key {part!r}")
        node = child
    node[parts[-1]] = value


@dataclass(frozen=True)
class SweepSpec:
    """A parameter study: a grid of overrides over one base assay.

    ``grid`` maps dotted paths into the base assay's canonical payload
    (``"seed"``, ``"protocol.ca_dwell"``,
    ``"cell.concentrations.glucose"``, ...) to the list of values each
    axis takes.  :meth:`compile` expands the Cartesian product — axes
    sorted by path for determinism, values in file order — into one
    :class:`FleetSpec` payload, so sweeps flow through the same
    executors and :class:`~repro.api.store.RunStore` as every other
    fleet.  Grid point ``k`` is named ``<base.name>#<k>`` and re-parsed
    through :meth:`AssaySpec.from_dict`, so an invalid override surfaces
    as a :class:`~repro.errors.SpecError` naming the grid point.
    """

    name: str = "sweep"
    base: AssaySpec = field(default_factory=AssaySpec)
    grid: Mapping[str, tuple] = field(default_factory=dict)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    screening: bool = False

    def __post_init__(self) -> None:
        if not self.grid:
            raise SpecError("sweep spec: a sweep needs at least one grid "
                            "axis")
        normalised = {}
        for dotted, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                    values, (list, tuple)):
                raise SpecError(f"sweep spec: grid[{dotted!r}] must be a "
                                f"list of values")
            if not values:
                raise SpecError(f"sweep spec: grid[{dotted!r}] needs at "
                                f"least one value")
            normalised[dotted] = tuple(values)
        object.__setattr__(self, "grid", normalised)

    def __len__(self) -> int:
        """Number of grid points the sweep compiles to."""
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size

    def compile(self) -> FleetSpec:
        """Expand the grid into the equivalent explicit fleet."""
        axes = sorted(self.grid.items())
        base_payload = self.base.to_dict()
        # A screening sweep screens every grid point; grid axes may
        # still override "screening" per point if a study mixes tiers.
        if self.screening:
            base_payload["screening"] = True
        assays = []
        for k, combo in enumerate(itertools.product(
                *(values for _, values in axes))):
            payload = copy.deepcopy(base_payload)
            for (dotted, _), value in zip(axes, combo):
                _grid_assign(payload, dotted, value,
                             f"sweep spec.grid[{dotted!r}]")
            payload["name"] = f"{self.base.name}#{k}"
            assays.append(AssaySpec.from_dict(
                payload, f"sweep spec: grid point {k}"))
        return FleetSpec(name=self.name, assays=tuple(assays),
                         execution=self.execution)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "kind": "sweep",
                "name": self.name, "base": self.base.to_dict(),
                "grid": {dotted: list(values)
                         for dotted, values in self.grid.items()},
                "execution": self.execution.to_dict(),
                "screening": bool(self.screening)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "sweep spec") -> "SweepSpec":
        _check_kind(payload, "sweep", path)
        grid = require(payload, "grid", path)
        if not isinstance(grid, Mapping):
            raise SpecError(f"{path}.grid: expected an object mapping "
                            f"payload paths to value lists")
        return cls(name=payload.get("name", "sweep"),
                   base=AssaySpec.from_dict(require(payload, "base", path),
                                            f"{path}.base"),
                   grid={dotted: values for dotted, values in grid.items()},
                   execution=ExecutionSpec.from_dict(
                       payload.get("execution"), f"{path}.execution"),
                   screening=_bool_value(payload.get("screening", False),
                                         f"{path}.screening"))


@dataclass(frozen=True)
class CalibrationSpec:
    """A measured calibration of one reference sensor.

    ``points`` concentrations are laddered linearly from the target's
    paper linear range (up to 1.5x its top); ``seed`` pins the bench
    chain's noise.  The spec floor is 2 points; the curve fit itself
    (:func:`~repro.analysis.calibration.run_calibration`) needs >= 3 and
    reports the shortfall as a one-line
    :class:`~repro.errors.CalibrationError`.
    """

    target: str = "glucose"
    points: int = 8
    seed: int = 2011

    def __post_init__(self) -> None:
        if self.points < 2:
            raise SpecError(f"calibration spec: need at least 2 ladder "
                            f"points, got {self.points}")

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "kind": "calibration",
                "target": self.target, "points": int(self.points),
                "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "calibration spec") -> "CalibrationSpec":
        _check_kind(payload, "calibration", path)
        points = _int_value(payload.get("points", 8), f"{path}.points")
        if points < 2:
            raise SpecError(f"{path}.points: need at least 2 ladder points, "
                            f"got {points}")
        return cls(target=require(payload, "target", path),
                   points=points,
                   seed=_int_value(payload.get("seed", 2011),
                                   f"{path}.seed"))


@dataclass(frozen=True)
class PlatformSpec:
    """Materialise a platform design and run one assay on a sample.

    ``design`` embeds a :mod:`repro.core.spec` ``design`` payload (the
    explorer's output format), so a Pareto point saved with
    :func:`~repro.core.spec.save_design` drops straight into a run spec.
    """

    design: Mapping
    concentrations: Mapping[str, float] | None = None
    ca_dwell: float = 60.0
    sample_rate: float = 10.0
    seed: int = 2011
    readout_class: str | None = None

    def build_design(self) -> "PlatformDesign":
        from repro.core.spec import design_from_dict

        return design_from_dict(dict(self.design), "platform spec.design")

    def to_dict(self) -> dict:
        from repro.core.spec import design_to_dict

        # Re-emit the embedded design through its own serialiser so
        # hand-written files (missing optional keys, int-typed numbers)
        # canonicalise — and hash — identically to saved designs.
        return {"schema": SCHEMA_VERSION, "kind": "platform",
                "design": design_to_dict(self.build_design()),
                "concentrations": ({k: float(v)
                                    for k, v in self.concentrations.items()}
                                   if self.concentrations is not None
                                   else None),
                "ca_dwell": float(self.ca_dwell),
                "sample_rate": float(self.sample_rate),
                "seed": int(self.seed),
                "readout_class": self.readout_class}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "platform spec") -> "PlatformSpec":
        _check_kind(payload, "platform", path)
        concentrations = payload.get("concentrations")
        if concentrations is not None:
            if not isinstance(concentrations, Mapping):
                raise SpecError(f"{path}.concentrations: expected an object "
                                f"mapping species to mM")
            concentrations = {
                k: _float_value(v, f"{path}.concentrations[{k!r}]")
                for k, v in concentrations.items()}
        design = require(payload, "design", path)
        if not isinstance(design, Mapping):
            raise SpecError(f"{path}.design: expected a core design spec "
                            f"object, got {type(design).__name__}")
        return cls(design=dict(design),
                   concentrations=concentrations,
                   ca_dwell=_float_value(payload.get("ca_dwell", 60.0),
                                         f"{path}.ca_dwell"),
                   sample_rate=_float_value(payload.get("sample_rate", 10.0),
                                            f"{path}.sample_rate"),
                   seed=_int_value(payload.get("seed", 2011),
                                   f"{path}.seed"),
                   readout_class=payload.get("readout_class"))


@dataclass(frozen=True)
class ExploreSpec:
    """Design-space exploration of a measurement-problem panel spec.

    ``panel`` embeds a :mod:`repro.core.spec` ``panel`` payload; ``None``
    explores the paper's Sec. III six-target panel.
    """

    panel: Mapping | None = None

    def build_panel(self) -> "PanelSpec":
        from repro.core.spec import panel_from_dict
        from repro.core.targets import paper_panel_spec

        if self.panel is None:
            return paper_panel_spec()
        return panel_from_dict(dict(self.panel), "explore spec.panel")

    def to_dict(self) -> dict:
        from repro.core.spec import panel_to_dict

        # Canonicalise the embedded panel like PlatformSpec.to_dict does
        # for designs (None — the paper panel default — stays None).
        return {"schema": SCHEMA_VERSION, "kind": "explore",
                "panel": (panel_to_dict(self.build_panel())
                          if self.panel is not None else None)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "explore spec") -> "ExploreSpec":
        _check_kind(payload, "explore", path)
        panel = payload.get("panel")
        if panel is not None and not isinstance(panel, Mapping):
            raise SpecError(f"{path}.panel: expected a core panel spec "
                            f"object or null")
        return cls(panel=dict(panel) if panel is not None else None)


# -- loading and dispatch ----------------------------------------------------------

_SPEC_KINDS = {
    "assay": AssaySpec,
    "fleet": FleetSpec,
    "sweep": SweepSpec,
    "calibration": CalibrationSpec,
    "platform": PlatformSpec,
    "explore": ExploreSpec,
}

RunnableSpec = (AssaySpec | FleetSpec | SweepSpec | CalibrationSpec
                | PlatformSpec | ExploreSpec)


def spec_from_dict(payload: Mapping, path: str = "spec") -> RunnableSpec:
    """Rebuild any runnable spec from its payload, dispatching on kind."""
    if not isinstance(payload, Mapping):
        raise SpecError(f"{path}: expected a JSON object, "
                        f"got {type(payload).__name__}")
    kind = require(payload, "kind", path)
    cls = _SPEC_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"{path}: unknown spec kind {kind!r} "
                        f"(known: {', '.join(sorted(_SPEC_KINDS))})")
    return cls.from_dict(payload, path)


def load_spec(path: "str | Path") -> RunnableSpec:
    """Load any runnable spec from a JSON file (SpecError on failure)."""
    return spec_from_dict(read_payload(path), f"spec {path!s}")
