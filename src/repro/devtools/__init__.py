"""repro.devtools — static enforcement of the platform's invariants.

The platform's load-bearing guarantees (bit-identical replay, a closed
error taxonomy, lock-guarded shared state, versioned round-trippable
specs — PRs 4–8) were previously enforced only by runtime tests that
exercise particular code paths.  One unseeded ``np.random`` call or
one unlocked ``_counts`` write in a *new* module breaks the contract
silently until a bit-identity pin flakes.  This package checks the
contracts statically, over every source file, on every CI run — the
same move as contract-based fault localisation in layered diagnostic
systems: verify each layer's invariant directly instead of waiting
for an end-to-end symptom.

Everything here is stdlib-``ast`` only: no third-party dependencies,
no importing (let alone executing) the code under analysis.

Rule catalog
============

REP001  determinism
    No global-state randomness (``np.random.<legacy>``, stdlib
    ``random``), no unseeded ``default_rng()``, no time-derived seeds
    in ``engine/``, ``chem/``, ``electronics/``, ``api/``,
    ``service/``.  Randomness must flow from an explicitly seeded
    ``np.random.Generator`` handed down from the spec — this is what
    makes inline, process, supervised, and served execution
    bit-identical.

REP002  error taxonomy
    No bare ``except:`` or ``except Exception/BaseException`` (they
    swallow the taxonomy; deliberate supervision boundaries carry a
    ``lint-ignore`` with a reason).  Inside ``api/`` and ``service/``,
    ``raise`` of a generic builtin is an error: embedding callers were
    promised that everything the platform raises is a ``ReproError``
    subclass.

REP003  lock discipline
    Attributes registered as lock-guarded (``RunStore._counts``, the
    service registries, rate-limiter state) may only be touched inside
    ``with self.<lock>:``, in ``__init__``, or in a ``*_locked``
    helper — the naming convention for private methods documented as
    called under the lock.

REP004  spec-schema drift
    The extracted spec-dataclass field surface must match the
    committed ``devtools/schema_snapshot.json``.  Drift without a
    ``SCHEMA_VERSION`` bump is an error (old payloads would stop
    round-tripping with no migration gate); with a bump, refresh the
    snapshot via ``repro lint --write-schema``.

REP005  float equality
    ``==``/``!=`` against non-zero float literals is
    representation-dependent; use ``math.isclose`` or an explicit
    tolerance.  Exact-zero guards for degenerate inputs stay allowed.

REP006  provenance completeness
    Every spec field must appear in both ``to_dict`` and
    ``from_dict``: a field missing from ``to_dict`` never reaches
    ``canonical_payload``/``spec_hash``, so two different specs would
    silently share cached results; one missing from ``from_dict``
    cannot replay.

REP000 is reserved for the engine itself (unparseable files, malformed
suppressions) and is never suppressible.

Suppression policy
==================

Inline, same line or the line above::

    except Exception as exc:  # repro: lint-ignore[REP002] supervision

Every suppression names its rule(s) and carries a non-empty reason —
a missing reason or unknown rule id is itself a REP000 finding.  Use
suppressions for *intentional, permanent* exemptions (supervision
boundaries, GC-time teardown guards).  The committed baseline
(``devtools/lint_baseline.json``) is only for temporarily
grandfathered debt: entries that stop matching are reported as stale
so the file can only shrink.  This repo's baseline is empty.

Entry points: ``repro lint [paths] [--json] [--rule REP00x]
[--baseline FILE] [--write-baseline] [--write-schema]`` (exit 0 clean,
1 findings, 2 usage), or :func:`default_engine` from code/tests.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.baseline import Baseline
from repro.devtools.engine import (
    LintEngine,
    LintResult,
    ModuleSource,
    Rule,
    RuleVisitor,
    collect_sources,
)
from repro.devtools.findings import Finding, Suppression
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import (
    DeterminismRule,
    ErrorTaxonomyRule,
    FloatEqualityRule,
    LockDisciplineRule,
)
from repro.devtools.schema import (
    SchemaSnapshotRule,
    SpecRoundTripRule,
    write_snapshot,
)

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE",
    "DEFAULT_SNAPSHOT",
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "Finding",
    "FloatEqualityRule",
    "LintEngine",
    "LintResult",
    "LockDisciplineRule",
    "ModuleSource",
    "Rule",
    "RuleVisitor",
    "SchemaSnapshotRule",
    "SpecRoundTripRule",
    "Suppression",
    "collect_sources",
    "default_engine",
    "default_rules",
    "render_json",
    "render_text",
    "write_snapshot",
]

#: Committed artifacts living next to this package.
DEFAULT_SNAPSHOT = Path(__file__).parent / "schema_snapshot.json"
DEFAULT_BASELINE = Path(__file__).parent / "lint_baseline.json"


def default_rules(snapshot: str | Path | None = None) -> list[Rule]:
    """The full REP001–REP006 rule set with default configuration."""
    return [
        DeterminismRule(),
        ErrorTaxonomyRule(),
        LockDisciplineRule(),
        SchemaSnapshotRule(snapshot or DEFAULT_SNAPSHOT),
        FloatEqualityRule(),
        SpecRoundTripRule(),
    ]


def default_engine(root: str | Path | None = None,
                   baseline: str | Path | None = None,
                   snapshot: str | Path | None = None) -> LintEngine:
    """Engine wired exactly as the ``repro lint`` CLI runs it."""
    return LintEngine(
        default_rules(snapshot),
        root=root,
        baseline=Baseline.load(baseline or DEFAULT_BASELINE),
    )
