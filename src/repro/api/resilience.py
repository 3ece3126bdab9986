"""Resilience vocabulary: retry policy, fault injection, failure records.

The paper's platform is a *clinical* pipeline: a crashed worker, a hung
solve or a corrupt cached record must degrade into an attributable
per-assay failure, never a lost fleet.  The state machine that enforces
that lives in one place, :func:`repro.api.executors.run_units`, under
every backend; this module holds what it is configured and tested with:

- :class:`RetryPolicy` — how hard to try: per-job attempt budget,
  per-dispatch timeout, exponential backoff with deterministic (seeded)
  jitter.  Rides in the fleet's ``execution`` block (schema v4) and
  round-trips through JSON like every other spec.
- :class:`FaultInjector` — a deterministic, seeded harness that turns
  the failure modes into reproducible test fixtures: ``worker_crash``
  (``os._exit`` mid-unit), ``worker_hang`` (stall past the timeout),
  ``engine_error`` (a raised :class:`~repro.errors.ExecutionError`) and
  ``store_corrupt`` (scramble a just-written store payload).  Rules are
  count-based (``"worker_crash:1"`` — fire on a unit's first attempt
  only, so retries provably recover) or rate-based
  (``"engine_error:0.25"`` — a seeded hash decides, reproducibly), with
  an optional ``@substring`` job-name filter, and load from the
  ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` environment so CI can fault
  an unmodified program.  The core decides each unit's fault in the
  parent, once per dispatch; a worker only carries out the command
  (:func:`inject`).

Because injected faults live in the *executor*, never in the spec
payload, a faulted run and its fault-free twin share every spec hash
and :class:`~repro.api.jobs.JobKey` — which is exactly what lets tests
assert the recovered stream is **bit-identical** to the undisturbed
one.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback as traceback_module
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ExecutionError, SpecError

__all__ = ["RetryPolicy", "FaultInjector", "FaultRule", "inject",
           "kill_pool", "ENV_FAULTS", "ENV_FAULTS_SEED"]

#: Environment variables the :class:`FaultInjector` loads from:
#: ``REPRO_FAULTS="worker_crash:1;engine_error:2@cell05"`` and an
#: optional integer ``REPRO_FAULTS_SEED`` for rate-based rules.
ENV_FAULTS = "REPRO_FAULTS"
ENV_FAULTS_SEED = "REPRO_FAULTS_SEED"

_FAULT_KINDS = ("worker_crash", "worker_hang", "engine_error",
                "store_corrupt")

#: Exit status an injected worker crash dies with — distinctive in
#: worker logs, irrelevant to the parent (any abrupt death looks the
#: same to it).
_CRASH_EXIT_STATUS = 170


def _seeded_unit_interval(*parts) -> float:
    """A deterministic number in ``[0, 1)`` from the given parts."""
    text = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _policy_float(value, label: str, *, optional: bool = False):
    if optional and value is None:
        return None
    if isinstance(value, (bool, str)):
        raise SpecError(f"{label}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: expected a number, got {value!r}"
                        ) from exc


def _policy_int(value, label: str) -> int:
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise SpecError(f"{label}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: expected an integer, got {value!r}"
                        ) from exc


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a backend tries before a job is declared failed.

    ``max_attempts`` is the per-*job* budget (1 = no retries) — a job
    consumes one attempt every time a unit containing it crashes, hangs,
    or raises.  ``timeout_s`` bounds each dispatched unit's wall time
    (``None`` = never time out); a unit past its deadline is treated as
    hung and its worker killed.  Re-dispatch waits ``backoff_s *
    backoff_factor**(attempt-1)`` seconds plus a deterministic jitter in
    ``[0, jitter_s)`` derived from ``jitter_seed`` and the job name —
    seeded, so two runs of the same faulted fleet back off identically
    (and the recovered stream stays reproducible end to end).
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    jitter_s: float = 0.0
    jitter_seed: int = 2011

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) \
                or isinstance(self.max_attempts, bool) \
                or self.max_attempts < 1:
            raise SpecError(f"retry policy: max_attempts must be an "
                            f"integer >= 1, got {self.max_attempts!r}")
        if self.timeout_s is not None and not self.timeout_s > 0.0:
            raise SpecError(f"retry policy: timeout_s must be > 0 or "
                            f"null, got {self.timeout_s!r}")
        if self.backoff_s < 0.0:
            raise SpecError(f"retry policy: backoff_s must be >= 0, "
                            f"got {self.backoff_s!r}")
        if self.backoff_factor < 1.0:
            raise SpecError(f"retry policy: backoff_factor must be "
                            f">= 1, got {self.backoff_factor!r}")
        if self.jitter_s < 0.0:
            raise SpecError(f"retry policy: jitter_s must be >= 0, "
                            f"got {self.jitter_s!r}")

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before re-dispatching after failure number
        ``attempt`` (1-based).  Deterministic for a given ``key``."""
        attempt = max(1, int(attempt))
        delay = self.backoff_s * self.backoff_factor ** (attempt - 1)
        if self.jitter_s > 0.0:
            delay += self.jitter_s * _seeded_unit_interval(
                self.jitter_seed, key, attempt)
        return delay

    def to_dict(self) -> dict:
        return {"max_attempts": int(self.max_attempts),
                "timeout_s": (float(self.timeout_s)
                              if self.timeout_s is not None else None),
                "backoff_s": float(self.backoff_s),
                "backoff_factor": float(self.backoff_factor),
                "jitter_s": float(self.jitter_s),
                "jitter_seed": int(self.jitter_seed)}

    @classmethod
    def from_dict(cls, payload: Mapping,
                  path: str = "retry policy") -> "RetryPolicy":
        if not isinstance(payload, Mapping):
            raise SpecError(f"{path}: expected a JSON object or null")
        return cls(
            max_attempts=_policy_int(payload.get("max_attempts", 3),
                                     f"{path}.max_attempts"),
            timeout_s=_policy_float(payload.get("timeout_s"),
                                    f"{path}.timeout_s", optional=True),
            backoff_s=_policy_float(payload.get("backoff_s", 0.0),
                                    f"{path}.backoff_s"),
            backoff_factor=_policy_float(
                payload.get("backoff_factor", 2.0),
                f"{path}.backoff_factor"),
            jitter_s=_policy_float(payload.get("jitter_s", 0.0),
                                   f"{path}.jitter_s"),
            jitter_seed=_policy_int(payload.get("jitter_seed", 2011),
                                    f"{path}.jitter_seed"))


# --------------------------------------------------------------------------
# Deterministic fault injection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *which* fault, *when*, and *where*.

    ``count`` fires the fault while a unit's attempt number is below it
    (``1`` = first attempt only, so the retry provably recovers);
    ``rate`` fires with that probability per opportunity, decided by a
    seeded hash (reproducible across runs).  Exactly one of the two is
    active.  ``match`` restricts the rule to units containing a job
    whose name has it as a substring (for ``store_corrupt``: the record
    key).
    """

    kind: str
    count: int = 0
    rate: float = 0.0
    match: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise SpecError(f"fault rule: unknown fault kind "
                            f"{self.kind!r} "
                            f"(known: {', '.join(_FAULT_KINDS)})")
        if self.count < 0:
            raise SpecError(f"fault rule: count must be >= 0, "
                            f"got {self.count}")
        if not 0.0 <= self.rate < 1.0:
            raise SpecError(f"fault rule: rate must be in [0, 1), "
                            f"got {self.rate}")
        if bool(self.count) == bool(self.rate):
            raise SpecError("fault rule: exactly one of count/rate "
                            "must be set")


class FaultInjector:
    """Deterministic, seeded injection of the failure modes under test.

    Build one programmatically (:meth:`parse`) or from the environment
    (:meth:`from_env`; format ``"kind:count[@match]"`` or
    ``"kind:rate[@match]"``, ``;``-separated).  The execution core
    consults :meth:`command` once per dispatched unit, in the parent, so
    decisions never depend on worker scheduling, and
    the store consults :meth:`corrupts` once per record write.  All
    decisions are pure functions of (rule, seed, names, attempt), so a
    faulted run replays identically.
    """

    def __init__(self, rules: Sequence[FaultRule] = (),
                 seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._write_counts: dict[str, int] = {}

    def __repr__(self) -> str:
        return (f"FaultInjector({self.describe()!r}, seed={self.seed})")

    def describe(self) -> str:
        """The injector's rules back in :meth:`parse` syntax."""
        parts = []
        for rule in self.rules:
            amount = rule.count if rule.count else rule.rate
            suffix = f"@{rule.match}" if rule.match is not None else ""
            parts.append(f"{rule.kind}:{amount}{suffix}")
        return ";".join(parts)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultInjector":
        """``"worker_crash:1;engine_error:2@cell05"`` → an injector."""
        rules = []
        for item in text.replace(",", ";").split(";"):
            item = item.strip()
            if not item:
                continue
            kind, sep, amount = item.partition(":")
            if not sep:
                raise SpecError(f"fault spec {item!r}: expected "
                                f"kind:count or kind:rate")
            amount, _, match = amount.partition("@")
            try:
                value = float(amount)
            except ValueError:
                raise SpecError(f"fault spec {item!r}: {amount!r} is "
                                f"not a count or rate") from None
            if value >= 1.0 or value.is_integer():
                rule = FaultRule(kind=kind.strip(), count=int(value),
                                 match=match or None)
            else:
                rule = FaultRule(kind=kind.strip(), rate=value,
                                 match=match or None)
            rules.append(rule)
        if not rules:
            raise SpecError(f"fault spec {text!r}: no rules")
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, environ: Mapping | None = None
                 ) -> "FaultInjector | None":
        """The injector ``REPRO_FAULTS`` describes, or ``None``."""
        environ = os.environ if environ is None else environ
        text = environ.get(ENV_FAULTS, "").strip()
        if not text:
            return None
        seed_text = environ.get(ENV_FAULTS_SEED, "").strip()
        try:
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            raise SpecError(f"{ENV_FAULTS_SEED}={seed_text!r}: expected "
                            f"an integer") from None
        return cls.parse(text, seed=seed)

    def _fires(self, rule: FaultRule, names: Sequence[str],
               attempt: int) -> bool:
        if rule.match is not None and not any(
                rule.match in name for name in names):
            return False
        if rule.count:
            return attempt < rule.count
        return _seeded_unit_interval(
            self.seed, rule.kind, *names, attempt) < rule.rate

    def command(self, names: Sequence[str],
                attempt: int) -> str | None:
        """The fault a dispatched unit should suffer, if any.

        ``names`` are the unit's job names and ``attempt`` the unit's
        attempt number (0 = first try).  Crash beats hang beats error
        when several rules fire at once.
        """
        for kind, command in (("worker_crash", "crash"),
                              ("worker_hang", "hang"),
                              ("engine_error", "error")):
            for rule in self.rules:
                if rule.kind == kind and self._fires(rule, names, attempt):
                    return command
        return None

    def corrupts(self, key: str) -> bool:
        """Whether this write of record ``key`` should be scrambled.

        Counts write opportunities per key, so ``store_corrupt:1``
        corrupts a record's first write and lets the re-write after
        quarantine land clean.
        """
        opportunity = self._write_counts.get(key, 0)
        self._write_counts[key] = opportunity + 1
        return any(rule.kind == "store_corrupt"
                   and self._fires(rule, (key,), opportunity)
                   for rule in self.rules)


def inject(fault: str | None, hang_s: float,
           claimed: Callable[[], bool] = lambda: True) -> None:
    """Carry out a unit's fault command inside the worker.

    ``crash`` dies on the spot — no exception, no cleanup, exactly what
    a segfault or OOM kill looks like to the parent.  ``hang`` stalls
    without progress for ``hang_s`` seconds (or until ``claimed()``
    turns false: a file-queue worker whose unit was reclaimed stops
    stalling) and then fails.  ``error`` raises a transient engine
    error.  ``None`` does nothing.
    """
    if fault == "crash":
        os._exit(_CRASH_EXIT_STATUS)
    if fault == "hang":
        deadline = time.monotonic() + hang_s
        while claimed() and time.monotonic() < deadline:
            time.sleep(0.05)
        raise ExecutionError("injected hung worker outlived its timeout")
    if fault == "error":
        raise ExecutionError("injected transient engine error")


def kill_pool(pool: ProcessPoolExecutor, grace_s: float = 2.0) -> None:
    """Shut a worker pool down without waiting on hung workers.

    ``shutdown(wait=True)`` blocks until every running future returns —
    forever, if a worker is hung — so teardown goes through here: cancel
    everything queued, terminate the workers, give them ``grace_s``
    seconds, then SIGKILL the stragglers.

    A worker killed while sending a result leaves a truncated message
    in the result pipe, and the pool's manager thread blocks reading
    the rest.  This process holds the pipe's write end too, so the read
    would never end, and interpreter exit joins that thread.  Once every
    worker is dead that write end is closed: the read ends in EOF and
    the manager thread winds down.
    """
    # shutdown() drops the process table and the result queue: take
    # them first.
    workers = list((getattr(pool, "_processes", None) or {}).values())
    results = getattr(pool, "_result_queue", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    deadline = time.monotonic() + grace_s
    for worker in workers:
        worker.join(max(0.0, deadline - time.monotonic()))
    for worker in workers:
        if worker.is_alive():  # pragma: no cover - SIGTERM ignored
            worker.kill()
            worker.join(grace_s)
    if results is not None and not any(w.is_alive() for w in workers):
        results._writer.close()


@dataclass(frozen=True)
class _Failure:
    """What felled a unit — carried to failed records and errors, and
    across the queue as a plain dict.  ``exc`` is the exception itself
    when it was caught (or unpickled) in this process, so an error
    raised for the failure can chain to it."""

    error_type: str
    message: str
    traceback: str = ""
    exc: BaseException | None = field(default=None, compare=False,
                                      repr=False)

    @classmethod
    def of(cls, exc: BaseException) -> "_Failure":
        text = "".join(traceback_module.format_exception(
            type(exc), exc, exc.__traceback__)).strip()
        return cls(error_type=type(exc).__name__, message=str(exc),
                   traceback=text, exc=exc)

    def to_dict(self) -> dict:
        return {"error_type": self.error_type, "message": self.message,
                "traceback": self.traceback}
