"""Tests for :mod:`repro.devtools` — the static invariant linter.

Each rule gets fixture-driven positive (fires), negative (quiet) and
suppressed coverage; on top of that: suppression-annotation hygiene
(REP000), baseline add/expire semantics, reporter output stability,
CLI exit codes (0 clean / 1 findings / 2 usage), the REP004
schema-drift regression demanded by the issue (field change fires
without a ``SCHEMA_VERSION`` bump, stays quiet with one), and the
self-hosting gate: the shipped rule set runs clean over ``src/``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import (
    DEFAULT_SNAPSHOT,
    Baseline,
    DeterminismRule,
    ErrorTaxonomyRule,
    FloatEqualityRule,
    LintEngine,
    LockDisciplineRule,
    SchemaSnapshotRule,
    SpecRoundTripRule,
    default_engine,
    default_rules,
    render_json,
    render_text,
)
from repro.devtools.engine import collect_sources
from repro.devtools.schema import (
    extract_specs,
    load_snapshot,
    snapshot_payload,
    write_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(tmp_path: Path, files: dict[str, str], rules,
         baseline: Baseline | None = None):
    """Write a fixture tree and run ``rules`` over it."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    engine = LintEngine(rules, root=tmp_path, baseline=baseline)
    return engine.run([tmp_path])


def rules_of(result) -> list[str]:
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# REP001 — determinism


class TestDeterminism:
    def test_legacy_np_random_fires(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            import numpy as np

            def noisy(n):
                return np.random.rand(n)
        """}, [DeterminismRule()])
        assert rules_of(result) == ["REP001"]
        assert "legacy global random state" in result.findings[0].message

    def test_stdlib_random_fires(self, tmp_path):
        result = lint(tmp_path, {"chem/mod.py": """
            import random

            def jitter():
                return random.random()
        """}, [DeterminismRule()])
        assert rules_of(result) == ["REP001"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        result = lint(tmp_path, {"api/mod.py": """
            import numpy as np

            def fresh():
                return np.random.default_rng()
        """}, [DeterminismRule()])
        assert rules_of(result) == ["REP001"]
        assert "without a seed" in result.findings[0].message

    def test_time_derived_seed_fires(self, tmp_path):
        result = lint(tmp_path, {"service/mod.py": """
            import time
            import numpy as np

            def sneaky():
                return np.random.default_rng(int(time.time()))

            def sneakier():
                return np.random.default_rng(seed=time.time_ns())
        """}, [DeterminismRule()])
        # int(time.time()) hides the call one level down — the direct
        # keyword form is caught; the wrapped one documents the limit.
        assert "REP001" in rules_of(result)

    def test_seeded_rng_is_quiet(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
        """}, [DeterminismRule()])
        assert result.clean

    def test_outside_restricted_packages_is_quiet(self, tmp_path):
        result = lint(tmp_path, {"scripts/mod.py": """
            import numpy as np

            def whatever():
                return np.random.rand(3)
        """}, [DeterminismRule()])
        assert result.clean

    def test_suppressed(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            import numpy as np

            def noisy(n):
                # repro: lint-ignore[REP001] test fixture exercising
                # the legacy path on purpose
                return np.random.rand(n)
        """}, [DeterminismRule()])
        assert result.clean and len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# REP002 — error taxonomy


class TestErrorTaxonomy:
    def test_bare_except_fires_anywhere(self, tmp_path):
        result = lint(tmp_path, {"scripts/mod.py": """
            def swallow():
                try:
                    return 1
                except:
                    return None
        """}, [ErrorTaxonomyRule()])
        assert rules_of(result) == ["REP002"]

    def test_except_exception_fires(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            def swallow():
                try:
                    return 1
                except (KeyError, Exception):
                    return None
        """}, [ErrorTaxonomyRule()])
        assert rules_of(result) == ["REP002"]

    def test_generic_raise_at_boundary_fires(self, tmp_path):
        result = lint(tmp_path, {"api/mod.py": """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
        """}, [ErrorTaxonomyRule()])
        assert rules_of(result) == ["REP002"]

    def test_generic_raise_outside_boundary_is_quiet(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
        """}, [ErrorTaxonomyRule()])
        assert result.clean

    def test_taxonomy_raise_and_narrow_except_are_quiet(self, tmp_path):
        result = lint(tmp_path, {"api/mod.py": """
            from repro.errors import SpecError

            def check(x):
                try:
                    return int(x)
                except KeyError:
                    raise SpecError("bad")
        """}, [ErrorTaxonomyRule()])
        assert result.clean

    def test_suppressed_with_reason(self, tmp_path):
        result = lint(tmp_path, {"api/mod.py": """
            def boundary():
                try:
                    return 1
                except Exception:  # repro: lint-ignore[REP002] boundary
                    return None
        """}, [ErrorTaxonomyRule()])
        assert result.clean and len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# REP003 — lock discipline


LOCKED_CLASS = """
    import threading

    class RunStore:
        def __init__(self):
            self._mutex = threading.RLock()
            self._counts = {}

        def unlocked_peek(self):
            return len(self._counts)

        def locked_peek(self):
            with self._mutex:
                return len(self._counts)

        def _peek_locked(self):
            return len(self._counts)
"""


class TestLockDiscipline:
    def test_unlocked_access_fires(self, tmp_path):
        result = lint(tmp_path, {"api/store.py": LOCKED_CLASS},
                      [LockDisciplineRule()])
        assert rules_of(result) == ["REP003"]
        assert "unlocked_peek" in result.findings[0].message

    def test_with_lock_init_and_locked_helper_are_quiet(self, tmp_path):
        quiet = LOCKED_CLASS.replace(
            "def unlocked_peek(self):\n            "
            "return len(self._counts)", "")
        result = lint(tmp_path, {"api/store.py": quiet},
                      [LockDisciplineRule()])
        assert result.clean

    def test_unlisted_class_is_quiet(self, tmp_path):
        result = lint(tmp_path, {
            "api/store.py": LOCKED_CLASS.replace("RunStore", "Sidecar")},
            [LockDisciplineRule()])
        assert result.clean

    def test_injectable_guards_table(self, tmp_path):
        rule = LockDisciplineRule(
            guards={"Sidecar": (("_mutex",), ("_counts",))})
        result = lint(tmp_path, {
            "api/store.py": LOCKED_CLASS.replace("RunStore", "Sidecar")},
            [rule])
        assert rules_of(result) == ["REP003"]

    def test_suppressed(self, tmp_path):
        text = LOCKED_CLASS.replace(
            "def unlocked_peek(self):",
            "def unlocked_peek(self):\n"
            "            # repro: lint-ignore[REP003] stats-only read\n"
            "            # of a len() is tear-free on CPython")
        result = lint(tmp_path, {"api/store.py": text},
                      [LockDisciplineRule()])
        assert result.clean and len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# REP005 — float equality


class TestFloatEquality:
    def test_nonzero_float_equality_fires(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            def check(x, y):
                return x == 1.5 or y != -2.25
        """}, [FloatEqualityRule()])
        assert rules_of(result) == ["REP005", "REP005"]
        assert all(f.severity == "warning" for f in result.findings)

    def test_zero_guard_and_int_equality_are_quiet(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            def check(denom, n):
                if denom == 0.0:
                    return None
                return n == 3
        """}, [FloatEqualityRule()])
        assert result.clean

    def test_suppressed(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            def check(x):
                return x == 1.5  # repro: lint-ignore[REP005] exact pin
        """}, [FloatEqualityRule()])
        assert result.clean and len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# REP006 — provenance completeness (spec round-trip)


SPEC_OK = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ThingSpec:
        alpha: int
        beta: float = 1.0

        def to_dict(self):
            return {"alpha": self.alpha, "beta": self.beta}

        @classmethod
        def from_dict(cls, payload):
            return cls(alpha=payload["alpha"], beta=payload["beta"])
"""


class TestSpecRoundTrip:
    def test_complete_spec_is_quiet(self, tmp_path):
        result = lint(tmp_path, {"api/specs.py": SPEC_OK},
                      [SpecRoundTripRule()])
        assert result.clean

    def test_field_missing_from_to_dict_fires(self, tmp_path):
        broken = SPEC_OK.replace('"beta": self.beta', '"b": self.beta')
        result = lint(tmp_path, {"api/specs.py": broken},
                      [SpecRoundTripRule()])
        assert rules_of(result) == ["REP006"]
        assert "ThingSpec.beta" in result.findings[0].message

    def test_field_missing_from_from_dict_fires(self, tmp_path):
        broken = SPEC_OK.replace('beta=payload["beta"]', "beta=1.0")
        result = lint(tmp_path, {"api/specs.py": broken},
                      [SpecRoundTripRule()])
        assert rules_of(result) == ["REP006"]
        assert "from_dict" in result.findings[0].message

    def test_plain_dataclass_is_not_a_spec(self, tmp_path):
        plain = "\n".join(
            line for line in textwrap.dedent(SPEC_OK).splitlines()
            if "dict" not in line and "return {" not in line
            and "return cls(" not in line and "payload" not in line
            and "@classmethod" not in line)
        result = lint(tmp_path, {"api/other.py": plain},
                      [SpecRoundTripRule()])
        assert result.clean


# ---------------------------------------------------------------------------
# REP004 — schema snapshot drift (the issue's regression scenario)


SPEC_V1 = """
    from dataclasses import dataclass

    SCHEMA_VERSION = 4

    @dataclass(frozen=True)
    class ThingSpec:
        alpha: int

        def to_dict(self):
            return {"alpha": self.alpha, "schema": SCHEMA_VERSION}

        @classmethod
        def from_dict(cls, payload):
            return cls(alpha=payload["alpha"])
"""


def write_tree(tmp_path: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


class TestSchemaSnapshot:
    def snapshot_for(self, tmp_path: Path) -> Path:
        write_tree(tmp_path, {"api/specs.py": SPEC_V1})
        snapshot = tmp_path / "schema_snapshot.json"
        write_snapshot(snapshot,
                       collect_sources([tmp_path / "api"], tmp_path))
        return snapshot

    def run(self, tmp_path, snapshot):
        engine = LintEngine([SchemaSnapshotRule(snapshot)],
                            root=tmp_path)
        return engine.run([tmp_path / "api"])

    def test_matching_snapshot_is_quiet(self, tmp_path):
        snapshot = self.snapshot_for(tmp_path)
        assert self.run(tmp_path, snapshot).clean

    def test_added_field_without_bump_fires(self, tmp_path):
        snapshot = self.snapshot_for(tmp_path)
        write_tree(tmp_path, {"api/specs.py": SPEC_V1.replace(
            "alpha: int", "alpha: int\n        gamma: float = 0.0")})
        result = self.run(tmp_path, snapshot)
        assert rules_of(result) == ["REP004"]
        assert "field(s) added: gamma" in result.findings[0].message

    def test_removed_field_without_bump_fires(self, tmp_path):
        snapshot = self.snapshot_for(tmp_path)
        write_tree(tmp_path, {"api/specs.py": SPEC_V1.replace(
            "        alpha: int\n", "")})
        result = self.run(tmp_path, snapshot)
        assert rules_of(result) == ["REP004"]
        assert "field(s) removed: alpha" in result.findings[0].message

    def test_drift_with_version_bump_is_quiet(self, tmp_path):
        snapshot = self.snapshot_for(tmp_path)
        write_tree(tmp_path, {"api/specs.py": SPEC_V1.replace(
            "SCHEMA_VERSION = 4", "SCHEMA_VERSION = 5").replace(
            "alpha: int", "alpha: int\n        gamma: float = 0.0")})
        assert self.run(tmp_path, snapshot).clean

    def test_missing_snapshot_fires(self, tmp_path):
        write_tree(tmp_path, {"api/specs.py": SPEC_V1})
        result = self.run(tmp_path, tmp_path / "nope.json")
        assert rules_of(result) == ["REP004"]
        assert "--write-schema" in result.findings[0].message

    def test_spec_class_added_without_bump_fires(self, tmp_path):
        snapshot = self.snapshot_for(tmp_path)
        write_tree(tmp_path, {"api/specs.py": textwrap.dedent(SPEC_V1)
                   + textwrap.dedent(SPEC_OK).replace(
                       "ThingSpec", "OtherSpec")})
        result = self.run(tmp_path, snapshot)
        assert rules_of(result) == ["REP004"]
        assert "spec class added" in result.findings[0].message


# ---------------------------------------------------------------------------
# REP000 — suppression hygiene


class TestSuppressionHygiene:
    def test_unknown_rule_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            x = 1  # repro: lint-ignore[REP042] typo'd rule id
        """}, [DeterminismRule()])
        assert rules_of(result) == ["REP000"]
        assert "unknown rule" in result.findings[0].message

    def test_missing_reason_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            import numpy as np
            y = np.random.rand()  # repro: lint-ignore[REP001]
        """}, [DeterminismRule()])
        # The reasonless annotation is a finding AND suppresses nothing:
        # the REP001 it tried to hide still fires.
        assert sorted(rules_of(result)) == ["REP000", "REP001"]

    def test_unparseable_file_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": "def broken(:\n"},
                      [DeterminismRule()])
        assert rules_of(result) == ["REP000"]
        assert "does not parse" in result.findings[0].message

    def test_comment_block_covers_first_code_line(self, tmp_path):
        result = lint(tmp_path, {"engine/mod.py": """
            import numpy as np

            # repro: lint-ignore[REP001] a reason long enough that it
            # wraps over two whole comment lines before the code
            y = np.random.rand()
        """}, [DeterminismRule()])
        assert result.clean and len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# Baseline add / expire


class TestBaseline:
    FILES = {"api/mod.py": """
        def check(x):
            if x < 0:
                raise ValueError("negative")
    """}

    def test_baselined_finding_does_not_fail_gate(self, tmp_path):
        first = lint(tmp_path, self.FILES, [ErrorTaxonomyRule()])
        assert not first.clean
        path = tmp_path / "baseline.json"
        Baseline.write(path, first.findings)
        second = lint(tmp_path, {}, [ErrorTaxonomyRule()],
                      baseline=Baseline.load(path))
        assert second.clean and len(second.baselined) == 1

    def test_fixed_finding_goes_stale(self, tmp_path):
        first = lint(tmp_path, self.FILES, [ErrorTaxonomyRule()])
        path = tmp_path / "baseline.json"
        Baseline.write(path, first.findings)
        (tmp_path / "api/mod.py").write_text(
            "def check(x):\n    return x\n", encoding="utf-8")
        result = lint(tmp_path, {}, [ErrorTaxonomyRule()],
                      baseline=Baseline.load(path))
        assert result.clean
        assert len(result.stale_baseline) == 1
        assert result.stale_baseline[0]["rule"] == "REP002"

    def test_baseline_does_not_hide_new_findings(self, tmp_path):
        first = lint(tmp_path, self.FILES, [ErrorTaxonomyRule()])
        path = tmp_path / "baseline.json"
        Baseline.write(path, first.findings)
        result = lint(tmp_path, {"api/new.py": """
            def swallow():
                try:
                    return 1
                except:
                    return None
        """}, [ErrorTaxonomyRule()], baseline=Baseline.load(path))
        assert rules_of(result) == ["REP002"]
        assert result.findings[0].path == "api/new.py"

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == []


# ---------------------------------------------------------------------------
# Reporters


class TestReporters:
    def result(self, tmp_path):
        return lint(tmp_path, {"api/mod.py": """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
        """}, [ErrorTaxonomyRule()])

    def test_text_report_is_stable_and_parseable(self, tmp_path):
        result = self.result(tmp_path)
        text = render_text(result)
        assert text == render_text(result)  # deterministic
        line = text.splitlines()[0]
        assert line.startswith("api/mod.py:4:")
        assert "REP002 error:" in line
        assert text.splitlines()[-1].startswith("1 finding in 1 file")

    def test_json_report_round_trips(self, tmp_path):
        result = self.result(tmp_path)
        payload = json.loads(render_json(result))
        assert payload["clean"] is False
        assert payload["n_files"] == 1
        assert payload["findings"][0]["rule"] == "REP002"
        assert render_json(result) == render_json(result)

    def test_clean_summary(self, tmp_path):
        result = lint(tmp_path, {"api/mod.py": "x = 1\n"},
                      [ErrorTaxonomyRule()])
        assert render_text(result) == "0 findings in 1 file"
        assert json.loads(render_json(result))["clean"] is True


# ---------------------------------------------------------------------------
# CLI exit codes and self-hosting


class TestCli:
    def test_exit_0_on_clean_tree(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"pkg/mod.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "pkg"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_1_on_findings(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"api/mod.py": (
            "def f(x):\n"
            "    raise ValueError(x)\n")})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "api"]) == 1
        assert "REP002" in capsys.readouterr().out

    def test_exit_2_on_missing_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "no-such-dir"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_exit_2_on_unknown_rule(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--rule", "REP999"])
        assert excinfo.value.code == 2

    def test_rule_filter(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, {"api/mod.py": (
            "def f(x):\n"
            "    raise ValueError(x)\n")})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "api", "--rule", "REP005"]) == 0

    def test_json_report_and_custom_baseline(self, tmp_path,
                                             monkeypatch, capsys):
        write_tree(tmp_path, {"api/mod.py": (
            "def f(x):\n"
            "    raise ValueError(x)\n")})
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "api", "--baseline", "bl.json",
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "api", "--baseline", "bl.json",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert len(payload["baselined"]) == 1

    def test_help_epilog_lists_rules(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.rule_id in out

    def test_self_hosting_src_is_lint_clean(self, monkeypatch, capsys):
        """The shipped tree passes its own gate (the CI invariant)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0

    def test_committed_snapshot_matches_src(self):
        """REP004 goes quiet on any drift once SCHEMA_VERSION exceeds
        the snapshot's; this keeps the snapshot re-anchored at every
        version, so the rule never stays quiet after a bump."""
        specs, version = extract_specs(
            collect_sources([REPO_ROOT / "src"], REPO_ROOT))
        assert load_snapshot(DEFAULT_SNAPSHOT) == \
            snapshot_payload(specs, version)

    def test_default_engine_matches_cli(self):
        result = default_engine(root=REPO_ROOT).run([REPO_ROOT / "src"])
        assert result.clean
        assert not result.stale_baseline
