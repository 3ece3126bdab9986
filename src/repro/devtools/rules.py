"""The per-module invariant rules: determinism, error taxonomy, lock
discipline, float equality.

Each rule encodes one contract the platform's runtime tests pin only
piecewise (see :mod:`repro.devtools` for the catalog and rationale).
Rules are plain :class:`~repro.devtools.engine.Rule` subclasses over
stdlib ``ast`` — no imports of the analysed code, no execution.
"""

from __future__ import annotations

import ast

from repro.devtools.engine import ModuleSource, Rule
from repro.devtools.findings import SEVERITY_WARNING, Finding

__all__ = ["DeterminismRule", "ErrorTaxonomyRule", "LockDisciplineRule",
           "FloatEqualityRule", "RESTRICTED_PACKAGES",
           "BOUNDARY_PACKAGES", "DEFAULT_GUARDS"]

#: Packages whose modules must be bit-replayable: randomness only
#: through explicitly seeded generators (REP001), and whose raises at
#: the ``api``/``service`` boundary must stay inside the ReproError
#: taxonomy (REP002).
RESTRICTED_PACKAGES = ("engine", "chem", "electronics", "api", "service")
BOUNDARY_PACKAGES = ("api", "service")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_packages(module: ModuleSource, packages) -> bool:
    return any(segment in packages for segment in module.segments[:-1])


class DeterminismRule(Rule):
    """REP001 — randomness must flow from an explicitly seeded
    generator.

    Inside the restricted packages, global-state randomness
    (``np.random.<legacy>``, the stdlib ``random`` module), an
    *unseeded* ``np.random.default_rng()``, or a time-derived seed
    (``default_rng(time.time())``) all silently break bit-identical
    replay across the inline/process/supervised/served paths.  Only
    ``np.random.default_rng(seed)`` / ``Generator`` / ``SeedSequence``
    construction is allowed; everything downstream takes the generator
    as a parameter.
    """

    rule_id = "REP001"
    summary = ("no global or unseeded randomness in engine/chem/"
               "electronics/api/service; seed explicitly")

    #: np.random attributes that construct explicit generators rather
    #: than touching the legacy global state.
    ALLOWED_NP_RANDOM = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"})
    TIME_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic",
        "time.perf_counter", "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow"})

    def __init__(self, packages=RESTRICTED_PACKAGES) -> None:
        self.packages = tuple(packages)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.tree is None or not _in_packages(module, self.packages):
            return []
        findings = []
        random_aliases = {"random"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "numpy.random"):
                    names = {a.name for a in node.names}
                    if node.module == "random" or not names.issubset(
                            self.ALLOWED_NP_RANDOM):
                        findings.append(self.finding(
                            module, node,
                            f"import from {node.module} pulls "
                            f"global-state randomness into a "
                            f"determinism-critical package; take a "
                            f"seeded np.random.Generator parameter "
                            f"instead"))
            elif isinstance(node, ast.Attribute):
                findings.extend(self._check_attribute(module, node,
                                                      random_aliases))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node))
        return findings

    def _check_attribute(self, module, node, random_aliases):
        dotted = _dotted(node)
        if dotted is None:
            return []
        parts = dotted.split(".")
        if parts[0] in ("np", "numpy") and len(parts) >= 3 \
                and parts[1] == "random":
            if parts[2] not in self.ALLOWED_NP_RANDOM:
                return [self.finding(
                    module, node,
                    f"{dotted} uses numpy's legacy global random state;"
                    f" use an explicitly seeded "
                    f"np.random.default_rng(seed) passed in as a "
                    f"parameter")]
        elif parts[0] in random_aliases and len(parts) == 2:
            return [self.finding(
                module, node,
                f"{dotted} draws from the stdlib global random state; "
                f"use an explicitly seeded np.random.Generator "
                f"parameter")]
        return []

    def _check_call(self, module, node):
        dotted = _dotted(node.func)
        if dotted is None:
            return []
        tail = dotted.rsplit(".", maxsplit=1)[-1]
        if tail not in ("default_rng", "SeedSequence"):
            return []
        if not node.args and not node.keywords:
            return [self.finding(
                module, node,
                f"{dotted}() without a seed draws OS entropy; every "
                f"generator in a determinism-critical package must be "
                f"seeded from the spec")]
        findings = []
        seeds = list(node.args) + [kw.value for kw in node.keywords
                                   if kw.arg in (None, "seed")]
        for seed in seeds:
            if isinstance(seed, ast.Call):
                seed_fn = _dotted(seed.func)
                if seed_fn in self.TIME_CALLS:
                    findings.append(self.finding(
                        module, seed,
                        f"time-derived seed {seed_fn}() makes every "
                        f"run unique; seeds must come from the spec"))
        return findings


class ErrorTaxonomyRule(Rule):
    """REP002 — the error surface is the closed ``ReproError`` taxonomy.

    Bare ``except:`` and ``except Exception/BaseException`` swallow the
    taxonomy (and ``KeyboardInterrupt``/cancellation, for the bare
    form) anywhere in the tree; intentional supervision boundaries
    carry a ``lint-ignore`` with their justification.  Inside the
    ``api``/``service`` boundary packages, ``raise`` of a generic
    builtin (``ValueError``, ``RuntimeError``, ...) leaks a
    non-``ReproError`` to embedding callers who were promised a single
    catchable base class; ``AssertionError`` (unreachable-state
    invariants) and ``NotImplementedError`` stay allowed.
    """

    rule_id = "REP002"
    summary = ("no bare/over-broad except; api/service must raise "
               "ReproError subclasses")

    BROAD = frozenset({"Exception", "BaseException"})
    GENERIC_RAISES = frozenset({
        "Exception", "BaseException", "ValueError", "TypeError",
        "KeyError", "IndexError", "LookupError", "ArithmeticError",
        "ZeroDivisionError", "RuntimeError", "OSError", "IOError",
        "AttributeError", "StopIteration", "TimeoutError",
        "ConnectionError", "NameError"})

    def __init__(self, boundary=BOUNDARY_PACKAGES) -> None:
        self.boundary = tuple(boundary)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.tree is None:
            return []
        findings = []
        at_boundary = _in_packages(module, self.boundary)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                findings.extend(self._check_handler(module, node))
            elif isinstance(node, ast.Raise) and at_boundary:
                findings.extend(self._check_raise(module, node))
        return findings

    def _check_handler(self, module, node):
        if node.type is None:
            return [self.finding(
                module, node,
                "bare 'except:' catches everything including "
                "KeyboardInterrupt; name the expected ReproError "
                "subclass")]
        caught = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for exc in caught:
            name = _dotted(exc)
            if name in self.BROAD:
                return [self.finding(
                    module, node,
                    f"'except {name}' swallows the whole error "
                    f"taxonomy; catch the specific ReproError "
                    f"subclass (or lint-ignore a deliberate "
                    f"supervision boundary)")]
        return []

    def _check_raise(self, module, node):
        exc = node.exc
        if exc is None:  # re-raise
            return []
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted(exc)
        if name in self.GENERIC_RAISES:
            return [self.finding(
                module, node,
                f"raise {name} crosses the api/service boundary "
                f"outside the ReproError taxonomy; raise the matching "
                f"ReproError subclass so callers can catch one base "
                f"class")]
        return []


#: Default lock-discipline table: class name -> (lock attributes,
#: guarded attributes).  Guarded state may only be touched inside
#: ``with self.<lock>:`` (any listed lock), in ``__init__``, or in a
#: method whose name ends in ``_locked`` (the documented
#: called-under-lock helper convention).  Only classes that *own* a
#: lock belong here — e.g. ``TokenBucket`` carries no lock and is
#: guarded externally by ``RateLimiter._lock``, so it is not listed.
DEFAULT_GUARDS = {
    "RunStore": (("_mutex",), ("_counts",)),
    "JobState": (("_lock",), ("_records",)),
    "JobRegistry": (("_lock",), ("_jobs", "_counter")),
    "ServiceRuntime": (("_resilience_lock",), ("_resilience_totals",)),
    "PriorityJobQueue": (("_cond",), ("_tiers", "_size")),
    "RateLimiter": (("_lock",), ("_buckets",)),
    "UsageLedger": (("_lock",), ("_usage",)),
}


class LockDisciplineRule(Rule):
    """REP003 — shared mutable state is only touched under its lock.

    The table maps class names to their lock attribute(s) and the
    attributes that lock guards.  An access is compliant when it is
    lexically inside ``with self.<lock>:``, in ``__init__`` (no
    concurrent aliases exist yet), or in a ``*_locked`` helper (the
    convention for private methods documented as called under the
    lock).  Everything else — most importantly a *public* method
    reading ``_counts`` or ``_jobs`` directly — is a finding.
    """

    rule_id = "REP003"
    summary = ("guarded shared state (RunStore._counts, registry maps) "
               "only under 'with self._lock'")

    def __init__(self, guards=None) -> None:
        self.guards = dict(DEFAULT_GUARDS if guards is None else guards)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.tree is None:
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in self.guards:
                locks, guarded = self.guards[node.name]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        findings.extend(self._check_method(
                            module, node.name, item, locks, guarded))
        return findings

    def _check_method(self, module, class_name, method, locks, guarded):
        if method.name == "__init__" or method.name.endswith("_locked"):
            return []
        findings = []

        def is_lock_ctx(expr) -> bool:
            return (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in locks)

        def visit(node, held: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held or any(is_lock_ctx(item.context_expr)
                                    for item in node.items)
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded and not held):
                findings.append(self.finding(
                    module, node,
                    f"{class_name}.{method.name} touches "
                    f"self.{node.attr} outside 'with self."
                    f"{' / self.'.join(locks)}'; guarded state needs "
                    f"the lock (or a *_locked helper called under "
                    f"it)"))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for child in method.body:
            visit(child, False)
        return findings


class FloatEqualityRule(Rule):
    """REP005 — no ``==``/``!=`` against non-zero float literals.

    Exact equality on floats is only meaningful for the bit-identity
    pins in the test suite (which is not linted) and for exact-zero
    guards of degenerate inputs (``denom == 0.0`` — a value that is
    *assigned* zero, not computed near it), which stay allowed.
    Everything else wants ``math.isclose``/``np.isclose`` or an
    explicit tolerance.
    """

    rule_id = "REP005"
    severity = SEVERITY_WARNING
    summary = ("no ==/!= against non-zero float literals; use "
               "math.isclose or an explicit tolerance")

    @staticmethod
    def _nonzero_float(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                        ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and node.value != 0.0)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.tree is None:
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(self._nonzero_float(side) for side in operands):
                    findings.append(self.finding(
                        module, node,
                        "float equality against a non-zero literal is "
                        "representation-dependent; use math.isclose "
                        "(exact-zero guards are exempt)"))
                    break
        return findings
