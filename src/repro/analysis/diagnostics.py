"""Diagnostic records and the rule registry.

Every finding the static analyzer (or the runtime integrity checker, once
folded through the same emitters) produces is a :class:`Diagnostic` with a
stable rule code.  Codes are partitioned by namespace:

* ``REP0xx`` — runtime integrity invariants (``engine/integrity.py``);
* ``REP1xx`` — schema-graph structure (cycles, dangling references, arity);
* ``REP2xx`` — resolution and permeability (diamonds, holes, shadows);
* ``REP3xx`` — composition (recursive composites, subrel restrictions);
* ``REP4xx`` — transactions and lock ordering;
* ``REP5xx`` — query and index advisories;
* ``REP6xx`` — engine concurrency invariants: the self-lint over the
  repo's *own source* (``analysis/engine_lint.py``) and the static
  lock-order analysis (``analysis/lockorder.py``).  These rules anchor in
  Python source files, not DDL — the same :class:`SourceLocation` carries
  ``path:line`` either way.

Severities: ``error`` predicts a schema-build or runtime failure,
``warning`` flags legal-but-surprising semantics (the engine resolves them
deterministically), ``advice`` is stylistic or performance guidance.  The
differential verifier (:mod:`repro.analysis.verify`) holds the analyzer to
that contract: every error must correspond to an actual failure on a
synthesized instance, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ERROR",
    "WARNING",
    "ADVICE",
    "SEVERITIES",
    "SourceLocation",
    "Diagnostic",
    "RuleInfo",
    "RULES",
    "register_rule",
    "rule_info",
    "severity_rank",
    "filter_diagnostics",
    "sort_diagnostics",
    "count_by_severity",
]

ERROR = "error"
WARNING = "warning"
ADVICE = "advice"

#: Severities from most to least severe; index is the sort rank.
SEVERITIES: Tuple[str, ...] = (ERROR, WARNING, ADVICE)


def severity_rank(severity: str) -> int:
    """0 for error, 1 for warning, 2 for advice (unknown sorts last)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(frozen=True)
class SourceLocation:
    """Where a finding anchors in DDL source, when known."""

    path: Optional[str] = None
    line: Optional[int] = None

    def render(self) -> str:
        path = self.path or "<schema>"
        return f"{path}:{self.line}" if self.line is not None else path


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata of one rule code."""

    code: str
    slug: str
    severity: str
    summary: str


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``severity`` may differ from the rule's default (a rule can downgrade a
    variant it knows the engine tolerates).  ``subject`` names the type,
    member or object the finding is about; ``hint`` is an optional fix-it.
    """

    code: str
    severity: str
    message: str
    subject: str = ""
    location: Optional[SourceLocation] = None
    hint: Optional[str] = None

    @property
    def rule(self) -> Optional[RuleInfo]:
        return RULES.get(self.code)

    def render(self) -> str:
        where = (self.location or SourceLocation()).render()
        return f"{where}: {self.severity} {self.code} {self.message}"


#: Code → metadata for every known rule (static and runtime namespaces).
RULES: Dict[str, RuleInfo] = {}


def register_rule(code: str, slug: str, severity: str, summary: str) -> RuleInfo:
    """Register a rule code; codes are unique and stable across releases."""
    if code in RULES:
        raise ValueError(f"rule code {code!r} registered twice")
    if severity not in SEVERITIES:
        raise ValueError(f"rule {code!r}: unknown severity {severity!r}")
    info = RuleInfo(code, slug, severity, summary)
    RULES[code] = info
    return info


def rule_info(code: str) -> RuleInfo:
    try:
        return RULES[code]
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}") from None


def _matches(code: str, patterns: Sequence[str]) -> bool:
    """Prefix matching as in other linters: ``REP2`` selects all REP2xx."""
    return any(code.startswith(pattern) for pattern in patterns)


def filter_diagnostics(
    diagnostics: Iterable[Diagnostic],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Keep codes matching ``select`` (all when empty) minus ``ignore``."""
    kept = []
    for diagnostic in diagnostics:
        if select and not _matches(diagnostic.code, select):
            continue
        if ignore and _matches(diagnostic.code, ignore):
            continue
        kept.append(diagnostic)
    return kept


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: severity, then code, then source line, then subject."""
    return sorted(
        diagnostics,
        key=lambda d: (
            severity_rank(d.severity),
            d.code,
            (d.location.line if d.location and d.location.line is not None else 1 << 30),
            d.subject,
            d.message,
        ),
    )


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    counts = {severity: 0 for severity in SEVERITIES}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# the rule catalog (docs/analysis.md mirrors this table)
# ---------------------------------------------------------------------------

# REP0xx — runtime integrity invariants (engine/integrity.py kinds).
register_rule("REP001", "registry-invariant", ERROR,
              "Object registry invariant broken (deleted/foreign/mis-keyed object)")
register_rule("REP002", "containment-invariant", ERROR,
              "Containment invariant broken (parent/container disagreement, shared member)")
register_rule("REP003", "relationship-invariant", ERROR,
              "Relationship invariant broken (deleted participant, missing back-reference)")
register_rule("REP004", "inheritance-invariant", ERROR,
              "Inheritance-link invariant broken (endpoint mismatch, vanished member, object cycle)")
register_rule("REP005", "class-invariant", ERROR,
              "Class-extent invariant broken (untracked/deleted/non-conforming member)")
register_rule("REP006", "constraint-violation", ERROR,
              "A value constraint does not hold on the loaded image")

# REP1xx — schema graph.
register_rule("REP100", "schema-build-failure", ERROR,
              "The schema fails to build for a reason no specific rule predicted")
register_rule("REP101", "inheritance-cycle", ERROR,
              "Type-level inheritance cycle through inheritor-in declarations")
register_rule("REP102", "unknown-reference", ERROR,
              "Reference to a type or domain that is never declared")
register_rule("REP103", "relationship-arity", ERROR,
              "Relationship type with no roles, clashing roles, or no transmitter")
register_rule("REP104", "bad-inheriting-clause", ERROR,
              "Inheritance relationship with an empty or duplicated inheriting clause")
register_rule("REP105", "duplicate-declaration", ERROR,
              "Type, member or domain declared more than once")
register_rule("REP106", "end-name-mismatch", ADVICE,
              "end <name> does not match the declaration it closes")
register_rule("REP107", "reference-kind-mismatch", ERROR,
              "Reference resolves to a declaration of the wrong kind")
register_rule("REP108", "forward-reference", ERROR,
              "Reference to a type declared later in the schema (only inheritor "
              "restrictions may be forward)")

# REP2xx — resolution / permeability.
register_rule("REP201", "permeability-hole", ERROR,
              "inheriting names a member the transmitter type does not have")
register_rule("REP202", "local-shadow", ERROR,
              "Type declares a member locally and also inherits it")
register_rule("REP203", "diamond-ambiguity", WARNING,
              "Member permeable through several inheritance relationships; "
              "declaration order decides")
register_rule("REP204", "diamond-domain-conflict", WARNING,
              "Diamond whose competing transmitters type the member differently")
register_rule("REP205", "inheritor-restriction-bypass", WARNING,
              "inheritor-in declared by a type outside the relationship's "
              "inheritor restriction")
register_rule("REP206", "constraint-unknown-member", WARNING,
              "Constraint references a name not visible at the anchoring type")
register_rule("REP207", "constraint-syntax-error", ERROR,
              "Constraint or where clause does not parse")

# REP3xx — composition.
register_rule("REP301", "composite-recursion", WARNING,
              "Composite type reachable from itself through subclass containment")
register_rule("REP302", "subrel-where-unknown-name", WARNING,
              "Subrel where clause references a name outside its binding scope")

# REP4xx — transactions / locking.
register_rule("REP401", "lock-order-cycle", WARNING,
              "Lock-inheritance and composition lock scopes form a cycle "
              "(potential deadlock between expansion and inherited-read plans)")

# REP5xx — query / index advisories.
register_rule("REP501", "unindexed-sargable-attribute", ADVICE,
              "Workload query filters on an attribute with no value index")
register_rule("REP502", "unknown-query-source", ERROR,
              "Workload query selects from a name that is neither class nor type")
register_rule("REP503", "query-unresolved-name", ADVICE,
              "Workload query references a name the source type cannot resolve")
register_rule("REP504", "constraint-not-compilable", ADVICE,
              "Constraint has dynamic free names, so it cannot compile to a "
              "slot program and evaluates through the interpretive fallback")
register_rule("REP505", "view-ineligible-member", ADVICE,
              "Inherited member cannot materialize into a per-type view "
              "column (container member; queries resolve it per object)")

# REP6xx — engine concurrency invariants (the engine's own source).
register_rule("REP601", "raw-cell-write-without-epoch", WARNING,
              "Raw obj._write_cell(...) call whose enclosing function "
              "neither bumps _mutation_epoch nor restores through "
              "_restore_attribute — memoised readers, value indexes and "
              "views will serve the stale value")
register_rule("REP602", "event-outside-bus", WARNING,
              "Event constructed outside the event bus — it bypasses the "
              "cause-stack stamping every audit consumer relies on")
register_rule("REP603", "lock-release-not-in-finally", ERROR,
              "Lock acquire/release pair where the release is not in a "
              "finally block — an exception between them leaks the lock "
              "and strands every parked waiter")
register_rule("REP604", "unsnapshotted-shared-iteration", WARNING,
              "Iteration over shared engine state (_locks/_waits_for/"
              "_by_txn) outside the table mutex and without snapshotting "
              "— mutation during iteration raises RuntimeError under "
              "concurrency")
register_rule("REP610", "static-lock-order-cycle", WARNING,
              "Two mutexes are acquired in both orders on different code "
              "paths — a potential ABBA deadlock")
register_rule("REP611", "blocking-call-under-lock", WARNING,
              "Blocking call (sleep/join/wait with no timeout/IO) while "
              "holding a mutex — stalls every thread contending for it")
register_rule("REP612", "reentrant-lock-acquire", ERROR,
              "A non-reentrant mutex may be acquired while already held "
              "on the same path — self-deadlock")


def make(code: str, message: str, *, subject: str = "",
         location: Optional[SourceLocation] = None,
         hint: Optional[str] = None,
         severity: Optional[str] = None) -> Diagnostic:
    """Build a diagnostic for a registered code (severity defaults from it)."""
    info = rule_info(code)
    return Diagnostic(
        code=code,
        severity=severity or info.severity,
        message=message,
        subject=subject,
        location=location,
        hint=hint,
    )
