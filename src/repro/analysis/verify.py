"""Differential verification: static predictions vs runtime oracles.

``verify_against_runtime`` takes a schema, lints it, then *actually*
exercises the engine — building the catalog, synthesizing one instance per
object type, binding every declared inheritor, creating one relationship
per relationship type — and cross-checks the two verdicts:

* every **error** diagnostic must correspond to a real failure (the build
  raises, instantiation/binding raises, an oracle disagrees, or
  ``check_integrity`` reports violations);
* a schema with **no** error diagnostics must come up clean on all of the
  above.

Member reads are double-checked against the interpretive oracles
(:func:`~repro.core.resolution.naive_get_member`,
:func:`~repro.core.resolution.naive_resolution_chain`) so a lint-clean
schema is also demonstrated to resolve deterministically.  Constraint
evaluation is deliberately *not* part of the runtime verdict: synthesized
instances leave attributes unset, which legitimately violates value
constraints without indicating a schema defect.

``strict=True`` holds the rule set itself to account: the REP100
build-failure safety net is not consulted, so a build failure counts as
*missed* unless a specific rule predicted it.  The curated defect corpus
in the tests runs in strict mode; randomized schemas use the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core import resolution
from ..core.inheritance import InheritanceRelationshipType
from ..core.reltype import RelationshipType
from ..ddl import ast as ddl_ast
from ..ddl.builder import SchemaBuilder
from ..ddl.parser import parse_schema_source
from ..engine.database import Database
from ..engine.integrity import check_integrity
from ..errors import ReproError
from .diagnostics import Diagnostic, ERROR, make, sort_diagnostics
from .model import model_from_ast
from .rules import diagnostics_from_violations, run_model_rules

__all__ = ["Disagreement", "VerifyReport", "verify_against_runtime"]


@dataclass
class Disagreement:
    """One divergence between the static and the runtime verdict."""

    #: ``missed-failure`` (runtime failed, no error predicted) or
    #: ``false-alarm`` (errors predicted, runtime clean).
    kind: str
    detail: str

    def render(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class VerifyReport:
    """Outcome of one differential run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)
    #: Runtime failures observed (empty for a clean schema).
    failures: List[str] = field(default_factory=list)
    #: Individual runtime probes performed (reads, oracle comparisons …).
    checks: int = 0
    built: bool = False

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        errors = sum(1 for d in self.diagnostics if d.severity == ERROR)
        lines = [
            f"verify: {len(self.diagnostics)} diagnostic(s) "
            f"({errors} error(s)), {len(self.failures)} runtime "
            f"failure(s), {self.checks} probe(s), "
            f"{'schema built' if self.built else 'build failed'}",
        ]
        lines.extend(d.render() for d in self.disagreements)
        lines.append("verify: OK" if self.ok else
                     f"verify: {len(self.disagreements)} disagreement(s)")
        return "\n".join(lines)


def verify_against_runtime(
    source: Union[str, ddl_ast.Schema],
    source_path: Optional[str] = None,
    strict: bool = False,
) -> VerifyReport:
    """Cross-check static predictions against the live engine."""
    report = VerifyReport()

    if isinstance(source, str):
        try:
            schema = parse_schema_source(source)
        except ReproError as exc:
            # Unparseable DDL: the analyzer reports REP100 with the parse
            # error; runtime agrees by definition (nothing can build).
            report.diagnostics = [make(
                "REP100", f"schema does not parse: {exc}",
            )]
            report.failures = [f"parse: {exc}"]
            return report
    else:
        schema = source

    model = model_from_ast(schema, source_path)
    report.diagnostics = sort_diagnostics(run_model_rules(model))
    predicted_errors = [d for d in report.diagnostics if d.severity == ERROR]

    db = Database("verify")
    try:
        SchemaBuilder(db.catalog).build(schema)
    except Exception as exc:  # noqa: BLE001 — any build failure is the signal
        report.failures.append(f"build: {type(exc).__name__}: {exc}")
        if not strict:
            report.diagnostics = sort_diagnostics(
                report.diagnostics
                + [make("REP100", f"schema fails to build: {exc}")]
            )
            predicted_errors = [
                d for d in report.diagnostics if d.severity == ERROR
            ]
        if not predicted_errors:
            report.disagreements.append(Disagreement(
                "missed-failure",
                f"schema build raised {type(exc).__name__} ({exc}) but no "
                f"error diagnostic predicted it",
            ))
        return report
    report.built = True

    _exercise(db, report)

    if report.failures and not predicted_errors:
        report.disagreements.append(Disagreement(
            "missed-failure",
            f"runtime failed ({report.failures[0]}"
            + (f" and {len(report.failures) - 1} more" if len(report.failures) > 1 else "")
            + ") but no error diagnostic predicted it",
        ))
    if predicted_errors and not report.failures:
        for diagnostic in predicted_errors:
            report.disagreements.append(Disagreement(
                "false-alarm",
                f"{diagnostic.code} predicted a failure "
                f"({diagnostic.message}) but the schema builds and runs "
                f"cleanly",
            ))
    return report


# ---------------------------------------------------------------------------
# instance synthesis + oracle probes
# ---------------------------------------------------------------------------


def _exercise(db: Database, report: VerifyReport) -> None:
    """Instantiate the schema once and compare engine vs oracles."""
    instances = _synthesize(db, report)
    if report.failures:
        return

    for obj in instances.values():
        plan = resolution.plan_for(obj.object_type)
        for member in sorted(plan.entries):
            report.checks += 1
            engine_value = _outcome(lambda: obj.get_member(member))
            oracle_value = _outcome(
                lambda: resolution.naive_get_member(obj, member)
            )
            if not _same_outcome(engine_value, oracle_value):
                report.failures.append(
                    f"resolution: {obj.object_type.name}.{member}: engine "
                    f"{engine_value!r} != oracle {oracle_value!r}"
                )
                continue
            report.checks += 1
            chain = _outcome(
                lambda: resolution.naive_resolution_chain(obj, member)
            )
            if chain[0] == "value":
                holders = chain[1]
                if not holders or holders[0] is not obj:
                    report.failures.append(
                        f"resolution: {obj.object_type.name}.{member}: "
                        f"oracle chain does not start at the object"
                    )

    _probe_views(db, instances, report)

    report.checks += 1
    violations = check_integrity(db)
    if violations:
        report.failures.extend(
            f"integrity: {diag.code} {diag.message}"
            for diag in diagnostics_from_violations(violations)
        )


def _probe_views(db: Database, instances: Dict[str, Any], report: VerifyReport) -> None:
    """View-vs-live parity: every materialized cell must agree with the
    interpretive oracle, and a view-routed query must return exactly what
    the live resolution path returns.

    A live read that raises ``KeyError``/``UnknownAttributeError`` maps to
    the member's own spelling — the engine-wide label convention — so the
    view cell is compared against that; any *other* live failure must have
    tainted the row (a tainted view refuses scans, keeping error parity).
    """
    from ..query.executor import run_query

    db.views.min_view_source = 0  # probe even single-instance extents
    for obj in instances.values():
        if obj.deleted:
            continue
        view = db.views.view_for(obj.object_type)
        if view is None:
            continue
        vrow = view.row_of.get(obj.surrogate)
        if vrow is None:
            report.failures.append(
                f"views: {obj.object_type.name} instance {obj.surrogate} "
                f"missing from its type view"
            )
            continue
        for member in view.names:
            report.checks += 1
            expected = _outcome(
                lambda: resolution.naive_get_member(obj, member)
            )
            if expected[0] == "raise":
                if expected[1] in ("KeyError", "UnknownAttributeError"):
                    expected = ("value", member)  # label convention
                elif obj.surrogate not in view.tainted:
                    report.failures.append(
                        f"views: {obj.object_type.name}.{member}: live read "
                        f"raises {expected[1]} but the view row is not "
                        f"tainted"
                    )
                    continue
                else:
                    continue
            cell = _outcome(lambda: view.cell(obj, member))
            if not _same_outcome(cell, expected):
                report.failures.append(
                    f"views: {obj.object_type.name}.{member}: view cell "
                    f"{cell[1]!r} != oracle {expected[1]!r}"
                )

    for name, obj in instances.items():
        if obj.deleted:
            continue
        view = db.views._views.get(obj.object_type)
        if view is None or not view.names:
            continue
        member = view.names[0]
        if not (name.isidentifier() and member.isidentifier()):
            continue
        text = f"select * from {name} where {member} = {member}"
        report.checks += 1
        live = _outcome(lambda: frozenset(
            o.surrogate for o in run_query(db, text, views=False).objects
        ))
        routed = _outcome(lambda: frozenset(
            o.surrogate for o in run_query(db, text, views=True).objects
        ))
        if not _same_outcome(routed, live):
            report.failures.append(
                f"views: query {text!r}: view path {routed!r} != live "
                f"path {live!r}"
            )


def _synthesize(db: Database, report: VerifyReport) -> Dict[str, Any]:
    """One instance per object type, every declared bind, one relationship
    per relationship type.  Legal by construction when the schema built —
    so any exception here is a runtime failure the lint should have
    predicted."""
    instances: Dict[str, Any] = {}
    inheritance_types: List[InheritanceRelationshipType] = []
    plain_rel_types: List[RelationshipType] = []

    for type_ in db.catalog:
        if isinstance(type_, InheritanceRelationshipType):
            inheritance_types.append(type_)
        elif isinstance(type_, RelationshipType):
            plain_rel_types.append(type_)
        elif "." not in type_.name:
            # Anonymous element types materialise as subobjects; only
            # named types get a free-standing instance.
            try:
                instances[type_.name] = db.create_object(type_)
                report.checks += 1
            except Exception as exc:  # noqa: BLE001
                report.failures.append(
                    f"create {type_.name}: {type(exc).__name__}: {exc}"
                )

    for rel_type in inheritance_types:
        transmitter = instances.get(rel_type.transmitter_type.name)
        for inheritor_type in rel_type.known_inheritor_types:
            inheritor = instances.get(inheritor_type.name)
            if inheritor is None or transmitter is None:
                continue
            report.checks += 1
            try:
                db.bind(inheritor, transmitter, rel_type)
            except Exception as exc:  # noqa: BLE001
                report.failures.append(
                    f"bind {inheritor_type.name} -[{rel_type.name}]-> "
                    f"{rel_type.transmitter_type.name}: "
                    f"{type(exc).__name__}: {exc}"
                )

    for rel_type in plain_rel_types:
        roles: Dict[str, Any] = {}
        fillable = True
        for role, spec in rel_type.participants.items():
            target = spec.object_type
            filler = (
                instances.get(target.name) if target is not None
                else next(iter(instances.values()), None)
            )
            if filler is None:
                fillable = False
                break
            roles[role] = [filler] if spec.many else filler
        if not fillable:
            continue
        report.checks += 1
        try:
            db.create_relationship(rel_type, roles)
        except Exception as exc:  # noqa: BLE001
            report.failures.append(
                f"relate {rel_type.name}: {type(exc).__name__}: {exc}"
            )

    return instances


def _outcome(thunk) -> Tuple[str, Any]:
    """Normalise a probe to ('value', v) or ('raise', exception type name)."""
    try:
        return ("value", thunk())
    except Exception as exc:  # noqa: BLE001 — oracle comparison needs the type
        return ("raise", type(exc).__name__)


def _same_outcome(left: Tuple[str, Any], right: Tuple[str, Any]) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "raise":
        return left[1] == right[1]
    try:
        return bool(left[1] == right[1])
    except Exception:  # noqa: BLE001 — incomparable values: identity decides
        return left[1] is right[1]


# ---------------------------------------------------------------------------
# engine concurrency invariants: the PR-10 differential harness
# ---------------------------------------------------------------------------

#: A sacrificial module with a textbook ABBA inversion, a blocking call
#: under a mutex and a reentrant acquire — the lockorder layer must catch
#: all three.
_SEEDED_INVERSION = '''
import threading
import time

LOCK_A = threading.Lock()
LOCK_B = threading.Lock()

def forward():
    with LOCK_A:
        with LOCK_B:
            pass

def backward():
    with LOCK_B:
        with LOCK_A:
            time.sleep(0.1)

def doubled():
    with LOCK_A:
        with LOCK_A:
            pass
'''

#: A sacrificial module violating each REP60x invariant once.
_SEEDED_LINT_DEFECTS = '''
def sloppy_undo(obj, name, old):
    obj._write_cell(name, old)

def hand_rolled(kind):
    return Event(kind=kind)

def leaky(lock):
    lock.acquire()
    lock.release()

def racy_walk(self):
    return [waiter for waiter in self._waits_for]
'''


@dataclass
class EngineCheck:
    """One differential check: a layer against a seeded or clean input."""

    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"  [{status}] {self.name}: {self.detail}"


@dataclass
class EngineVerifyReport:
    """Outcome of :func:`verify_engine_invariants`."""

    checks: List[EngineCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        lines = [f"engine concurrency verification: {verdict} "
                 f"({len(self.checks)} checks)"]
        lines.extend(check.render() for check in self.checks)
        return "\n".join(lines)


def _race_rounds(locked: bool) -> int:
    """Two threads hammer one object's storage cell; candidate races seen.

    ``locked=False`` seeds the defect: raw unsynchronised writes through
    ``DBObject._write_cell``.  ``locked=True`` is the clean
    twin — every write runs inside a granted exclusive lock on the
    object, so lock hand-off gives the sanitizer both a nonempty lockset
    and a happens-before edge.
    """
    import threading

    from ..obs import race
    from ..txn.locks import LockMode, LockTable

    with race.sandbox() as sanitizer:
        db = Database("engine-verify")
        gate = db.catalog.define_object_type(
            "VerifyGate", attributes={}, allow_dynamic=True
        )
        obj = db.create_object("VerifyGate")
        table = LockTable()
        surrogate = obj.surrogate

        def worker(txn_id: int) -> None:
            for i in range(40):
                if locked:
                    table.acquire(
                        txn_id, surrogate, LockMode.X, wait=True, timeout=10.0
                    )
                try:
                    obj._write_cell("Cell", (txn_id, i))  # lint: allow(REP601)
                finally:
                    if locked:
                        table.release_all(txn_id)

        threads = [
            threading.Thread(target=worker, args=(txn_id,))
            for txn_id in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gate is not None  # keep the type alive for the writes
        return len(sanitizer.reports)


def verify_engine_invariants() -> EngineVerifyReport:
    """Hold every PR-10 layer to the differential standard.

    Each layer must (a) catch a seeded defect in a sacrificial input and
    (b) stay quiet on the clean engine — the same contract
    :func:`verify_against_runtime` enforces for the schema rules.
    """
    import os
    import tempfile

    from . import engine_lint, lockorder

    report = EngineVerifyReport()

    seeded_races = _race_rounds(locked=False)
    report.checks.append(EngineCheck(
        "sanitizer detects the seeded unsynchronised write",
        seeded_races > 0,
        f"{seeded_races} candidate race(s) on the raw-write twin",
    ))
    locked_races = _race_rounds(locked=True)
    report.checks.append(EngineCheck(
        "sanitizer stays quiet when the writes are lock-protected",
        locked_races == 0,
        f"{locked_races} candidate race(s) on the locked twin",
    ))

    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "seeded.py"), "w", encoding="utf-8") as f:
            f.write(_SEEDED_INVERSION)
        seeded = lockorder.analyze_lock_order(tmp)
    seeded_codes = {d.code for d in seeded.diagnostics()}
    report.checks.append(EngineCheck(
        "lockorder detects the seeded ABBA inversion",
        {"REP610", "REP611", "REP612"} <= seeded_codes,
        f"cycles={len(seeded.cycles)} codes={sorted(seeded_codes)}",
    ))
    clean = lockorder.analyze_lock_order()
    clean_errors = [
        d for d in clean.diagnostics() if d.code in ("REP610", "REP612")
    ]
    report.checks.append(EngineCheck(
        "lockorder finds no cycle or self-deadlock in the engine",
        not clean.cycles and not clean_errors,
        f"{len(clean.locks)} locks, {len(clean.edges)} edges, "
        f"{len(clean.cycles)} cycles over {clean.files_scanned} files",
    ))

    seeded_lint = engine_lint.lint_source(
        _SEEDED_LINT_DEFECTS, rel="seeded_defects.py"
    )
    lint_codes = {d.code for d in seeded_lint}
    report.checks.append(EngineCheck(
        "engine lint detects every seeded invariant violation",
        {"REP601", "REP602", "REP603", "REP604"} <= lint_codes,
        f"codes={sorted(lint_codes)}",
    ))
    clean_lint = engine_lint.lint_engine()
    report.checks.append(EngineCheck(
        "engine lint is clean on the real tree",
        not clean_lint.diagnostics,
        f"{len(clean_lint.diagnostics)} finding(s), "
        f"{clean_lint.suppressed} suppressed by pragma over "
        f"{clean_lint.files_scanned} files",
    ))
    return report
