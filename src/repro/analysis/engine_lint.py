"""REP6xx engine-invariant lint: the analyzer pointed at our own source.

PR 5's analyzer proves *schemas* sound before execution; this module does
the same for the engine's concurrency discipline.  Each rule encodes an
invariant the subsystems rely on but nothing previously enforced:

* **REP601** — a raw ``obj._write_cell(...)`` call in a function that
  neither bumps ``_mutation_epoch`` nor goes through
  ``_restore_attribute``.  The raw cell setter is deliberately
  side-effect-free; a restore of live state (transaction undo, version
  revert, merge apply) must take the ``_restore_attribute`` path, or
  memoised readers, value indexes and views serve stale values.
* **REP602** — an ``Event(...)`` constructed outside
  ``engine/events.py``.  Only the bus stamps sequence numbers and the
  cause stack; a hand-built event silently breaks every audit consumer.
* **REP603** — a ``lock.acquire()`` whose paired ``release()`` is not in
  a ``finally`` block: an exception in between leaks the lock and
  strands every parked waiter.
* **REP604** — iteration over the lock table's shared dictionaries
  (``_locks`` / ``_waits_for`` / ``_by_txn`` / ``_groups``) outside a
  ``with <mutex>`` region and without materialising a snapshot first —
  a concurrent mutation raises ``RuntimeError: dict changed size``.

Findings flow through the same :mod:`repro.analysis.diagnostics` registry
and :mod:`repro.analysis.emit` emitters as the schema rules, so
``repro lint --engine`` speaks text/JSON/SARIF with no extra plumbing.

Suppression: a justified exception carries ``# lint: allow(REP6xx)`` on
the offending line — e.g. persistence restore writes raw cells of fresh
objects no reader has ever memoised.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, SourceLocation, make
from .lockorder import default_engine_root

__all__ = [
    "lint_engine",
    "lint_source",
    "EngineLintResult",
]

#: The event-bus module: the one place allowed to construct ``Event``.
_EVENT_AUTHORITY = os.path.join("engine", "events.py")

#: Shared lock-table dictionaries whose iteration needs the mutex or a
#: snapshot (REP604).
_SHARED_DICTS = ("_locks", "_waits_for", "_by_txn", "_groups")

#: Mutex-ish attribute names that establish a held region for REP604.
_MUTEX_ATTRS = ("_mutex", "_lock", "_cond")

#: Materialisers that snapshot an iterable before iteration.
_SNAPSHOTTERS = {"list", "tuple", "set", "sorted", "dict", "frozenset", "len"}

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([A-Z0-9,\s]+)\)")


@dataclass
class EngineLintResult:
    """Diagnostics plus scan statistics for one lint run."""

    diagnostics: List[Diagnostic]
    files_scanned: int
    suppressed: int


def _allowed_codes(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """line number -> codes suppressed by a ``# lint: allow(...)`` pragma."""
    allowed: Dict[int, Set[str]] = {}
    for index, line in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")}
            allowed[index] = {code for code in codes if code}
    return allowed


def _attr_chain_root(node: ast.expr) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FileLinter(ast.NodeVisitor):
    """One source file's REP601/602/603/604 findings."""

    def __init__(self, path: str, rel: str, tree: ast.Module) -> None:
        self.path = path
        self.rel = rel
        self.tree = tree
        self.findings: List[Diagnostic] = []
        self._is_event_authority = rel.endswith(_EVENT_AUTHORITY)

    def run(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
                self._check_release_discipline(node)
                self._check_shared_iteration(node)
        if not self._is_event_authority:
            self._check_event_constructions()

    # -- REP601 ---------------------------------------------------------------

    @staticmethod
    def _walk_own(fn: ast.AST) -> List[ast.AST]:
        """``ast.walk`` minus nested function bodies.

        Every function is checked once, in its own scope — a write inside
        a closure is the closure's finding, not its enclosing function's,
        and an epoch bump in the enclosing function does not absolve a
        closure that writes without one.
        """
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            out.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))
        return out

    @staticmethod
    def _calls_method(node: ast.AST, name: str) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == name)

    @classmethod
    def _bumps_epoch(cls, fn: ast.AST) -> bool:
        """The scope bumps ``_mutation_epoch`` or restores through
        ``_restore_attribute`` (which bumps it and emits)."""
        for node in cls._walk_own(fn):
            if cls._calls_method(node, "_restore_attribute"):
                return True
            if isinstance(node, ast.AugAssign):
                target: Optional[ast.expr] = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            else:
                continue
            if (isinstance(target, ast.Attribute)
                    and target.attr == "_mutation_epoch"):
                return True
        return False

    def _check_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        writes = [
            node.lineno for node in self._walk_own(fn)
            if self._calls_method(node, "_write_cell")
        ]
        if writes and not self._bumps_epoch(fn):
            for line in writes:
                self.findings.append(make(
                    "REP601",
                    f"raw _write_cell() call in {fn.name}(), which neither "
                    f"bumps _mutation_epoch nor restores through "
                    f"_restore_attribute()",
                    subject=fn.name,
                    location=SourceLocation(self.rel, line),
                    hint="restore through obj._restore_attribute(), or go "
                         "through set_attribute()",
                ))

    # -- REP602 ---------------------------------------------------------------

    def _check_event_constructions(self) -> None:
        for node in ast.walk(self.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Event"):
                self.findings.append(make(
                    "REP602",
                    "Event constructed outside the event bus (no sequence "
                    "number, no cause-stack stamp)",
                    subject="Event",
                    location=SourceLocation(self.rel, node.lineno),
                    hint="emit through EventBus so the event is stamped "
                         "into the causal order",
                ))

    # -- REP603 / REP604 ------------------------------------------------------

    @staticmethod
    def _receiver_src(func: ast.Attribute) -> Optional[str]:
        try:
            return ast.unparse(func.value)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return None

    def _lock_calls(
        self, fn: ast.AST, attr: str
    ) -> List[Tuple[str, ast.Call]]:
        """(receiver source, call node) for every ``<recv>.<attr>()``."""
        out: List[Tuple[str, ast.Call]] = []
        for node in self._walk_own(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attr
                    and not node.keywords):
                receiver = self._receiver_src(node.func)
                if receiver is not None:
                    out.append((receiver, node))
        return out

    def _finally_lines(self, fn: ast.AST) -> Set[int]:
        lines: Set[int] = set()
        for node in self._walk_own(fn):
            if isinstance(node, ast.Try) and node.finalbody:
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        line = getattr(sub, "lineno", None)
                        if line is not None:
                            lines.add(line)
        return lines

    def _check_release_discipline(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        acquires = {recv for recv, _node in self._lock_calls(fn, "acquire")}
        if not acquires:
            return
        finally_lines = self._finally_lines(fn)
        for receiver, node in self._lock_calls(fn, "release"):
            if receiver in acquires and node.lineno not in finally_lines:
                self.findings.append(make(
                    "REP603",
                    f"{receiver}.release() outside finally while "
                    f"{receiver}.acquire() appears in {fn.name}()",
                    subject=receiver,
                    location=SourceLocation(self.rel, node.lineno),
                    hint="release in a finally block (or use `with`)",
                ))

    def _mutex_held_lines(self, fn: ast.AST) -> Set[int]:
        """Line numbers inside any ``with <something mutex-ish>`` body."""
        lines: Set[int] = set()
        for node in self._walk_own(fn):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(
                isinstance(item.context_expr, ast.Attribute)
                and item.context_expr.attr in _MUTEX_ATTRS
                for item in node.items
            ):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    line = getattr(sub, "lineno", None)
                    if line is not None:
                        lines.add(line)
        return lines

    def _iter_targets(self, fn: ast.AST) -> List[Tuple[ast.expr, int]]:
        """Every expression iterated by for / comprehension in ``fn``."""
        out: List[Tuple[ast.expr, int]] = []
        for node in self._walk_own(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                out.append((node.iter, node.lineno))
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    out.append((gen.iter, node.lineno))
        return out

    @staticmethod
    def _names_shared_dict(expr: ast.expr) -> Optional[str]:
        """``self._locks`` / ``self._locks.values()`` etc. -> attr name."""
        node: Optional[ast.expr] = expr
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("values", "items", "keys")):
            node = node.func.value
        if isinstance(node, ast.Attribute) and node.attr in _SHARED_DICTS:
            return node.attr
        return None

    def _snapshot_lines(self, fn: ast.AST) -> Set[int]:
        """Lines whose iteration feeds a materialiser (list(...), sorted)."""
        lines: Set[int] = set()
        for node in self._walk_own(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _SNAPSHOTTERS):
                for sub in ast.walk(node):
                    line = getattr(sub, "lineno", None)
                    if line is not None:
                        lines.add(line)
        return lines

    def _check_shared_iteration(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        targets = self._iter_targets(fn)
        if not targets:
            return
        held = self._mutex_held_lines(fn)
        snapshots = self._snapshot_lines(fn)
        for expr, line in targets:
            name = self._names_shared_dict(expr)
            if name is None:
                continue
            if line in held or line in snapshots:
                continue
            self.findings.append(make(
                "REP604",
                f"iteration over shared {name} outside the table mutex "
                f"and without a snapshot (in {fn.name}())",
                subject=name,
                location=SourceLocation(self.rel, line),
                hint="hold the mutex for the walk, or iterate over "
                     "list(...) / a copied snapshot",
            ))


def lint_source(
    source: str, path: str = "<engine>", rel: Optional[str] = None
) -> List[Diagnostic]:
    """Lint one source string (the differential harness's entry point)."""
    tree = ast.parse(source, filename=path)
    linter = _FileLinter(path, rel or path, tree)
    linter.run()
    allowed = _allowed_codes(source.splitlines())
    kept: List[Diagnostic] = []
    for finding in linter.findings:
        line = finding.location.line if finding.location else None
        if line is not None and finding.code in allowed.get(line, set()):
            continue
        kept.append(finding)
    return kept


def lint_engine(root: Optional[str] = None) -> EngineLintResult:
    """Lint every ``.py`` file under ``root`` (default: the repro package)."""
    base = root or default_engine_root()
    diagnostics: List[Diagnostic] = []
    files = 0
    suppressed = 0
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith((".", "__pycache__"))
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, base)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:  # pragma: no cover - races with the fs
                continue
            files += 1
            try:
                before = lint_source(source, path=path, rel=rel)
            except SyntaxError:  # pragma: no cover - repo parses
                continue
            raw = _count_raw(source, path, rel)
            suppressed += raw - len(before)
            diagnostics.extend(before)
    return EngineLintResult(diagnostics, files, suppressed)


def _count_raw(source: str, path: str, rel: str) -> int:
    """Finding count before pragma filtering (for the suppressed stat)."""
    tree = ast.parse(source, filename=path)
    linter = _FileLinter(path, rel, tree)
    linter.run()
    return len(linter.findings)
