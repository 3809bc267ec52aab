"""Compilation of constraint expressions to slot-program closures.

The tree-walking ``Node.evaluate`` interpreter pays, per object, a fresh
:class:`~repro.expr.context.EvalContext`, a binding-chain probe per name
and a ``get_member`` protocol call per member access.  For an unindexed
scan or a constraint sweep that cost dominates.

This module compiles an expression **once per (expression, type, schema
epoch)** into a plain Python function over live objects:

* member names that the type's :class:`~repro.core.resolution.ResolutionPlan`
  binds to a plain stored attribute become a direct **slot read** —
  ``column[obj._row]`` against the type's :class:`~repro.core.slots.TypeStore`
  column, with the spec default on an UNSET cell;
* ``surrogate`` becomes an attribute load;
* names that resolve through inheritance relationships, containers,
  participant roles, or dynamic binding fall back to a tiny closure around
  the interpretive member protocol (still compiled, just not slot-fast);
* aggregates and quantifiers evaluate their subtree with the ordinary
  tree walk (they carry binder scopes the slot program cannot see);
* operators are generated as source text and ``exec``-compiled, reusing
  the interpreter's own helpers (``truthy``/``_equal``/``_numeric``…) so
  MISSING propagation, string concatenation, division-by-zero errors and
  comparison ``TypeError`` wrapping are **bit-for-bit identical** to
  ``Node.evaluate``.  The interpreter stays available as the testing
  oracle.

Contract: compiled functions assume a *live* object of the compiled type
(callers filter deleted objects first) and **bindings-free** evaluation —
exactly the shape of query predicates and type-anchored integrity
constraints.  Binding-carrying evaluations keep using the interpreter.

Programs are kept on the node they were compiled from (one per type), so
a program lives exactly as long as its AST, and validated against the
schema epoch (``catalog.schema_epoch`` proxies the same counter): a DDL
change retires them and the next use recompiles against the refreshed
plan and store layout.

:func:`compile_info` reports why an expression is not fully slot-compiled;
the ``dynamic-name`` reason kind feeds the REP504 analyzer advisory.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import resolution as _resolution
from ..core.slots import UNSET, store_for
from ..errors import ExprEvaluationError, UnknownAttributeError
from .ast import (
    Aggregate,
    Binary,
    Literal,
    Name,
    Node,
    Path,
    Quantified,
    Unary,
    _equal,
    _numeric,
    truthy,
)
from .context import MISSING, EvalContext, as_collection, resolve_member

__all__ = [
    "CompiledExpr",
    "CompileInfo",
    "compile_expression",
    "compile_predicate",
    "compile_info",
    "compiled_for",
    "invalidate_cache",
]


# ---------------------------------------------------------------------------
# Runtime helpers shared by every generated program.  Each replicates one
# operator branch of ``Binary.evaluate`` / ``Unary.evaluate`` exactly,
# including error messages.
# ---------------------------------------------------------------------------


def _path(value: Any, segments: Tuple[str, ...]) -> Any:
    for segment in segments:
        value = resolve_member(value, segment)
        if value is MISSING:
            return MISSING
    return value


def _in(left: Any, right: Any) -> bool:
    return any(_equal(left, element) for element in as_collection(right))


def _make_cmp(op: str, fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], bool]:
    def cmp(left: Any, right: Any) -> bool:
        if left is MISSING or right is MISSING:
            return False
        try:
            return fn(left, right)
        except TypeError as exc:
            raise ExprEvaluationError(
                f"cannot compare {left!r} {op} {right!r}"
            ) from exc

    return cmp


_lt = _make_cmp("<", lambda a, b: a < b)
_le = _make_cmp("<=", lambda a, b: a <= b)
_gt = _make_cmp(">", lambda a, b: a > b)
_ge = _make_cmp(">=", lambda a, b: a >= b)


def _add(left: Any, right: Any) -> Any:
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    return _numeric(left, "+") + _numeric(right, "+")


def _sub(left: Any, right: Any) -> Any:
    return _numeric(left, "-") - _numeric(right, "-")


def _mul(left: Any, right: Any) -> Any:
    return _numeric(left, "*") * _numeric(right, "*")


def _div(left: Any, right: Any) -> Any:
    left = _numeric(left, "/")
    right = _numeric(right, "/")
    if right == 0:
        raise ExprEvaluationError("division by zero")
    return left / right


def _mod(left: Any, right: Any) -> Any:
    left = _numeric(left, "%")
    right = _numeric(right, "%")
    if right == 0:
        raise ExprEvaluationError("modulo by zero")
    return left % right


def _neg(value: Any) -> Any:
    return -_numeric(value, "-")


_BASE_ENV: Dict[str, Any] = {
    "UNSET": UNSET,
    "MISSING": MISSING,
    "truthy": truthy,
    "_equal": _equal,
    "_path": _path,
    "_in": _in,
    "_lt": _lt,
    "_le": _le,
    "_gt": _gt,
    "_ge": _ge,
    "_add": _add,
    "_sub": _sub,
    "_mul": _mul,
    "_div": _div,
    "_mod": _mod,
    "_neg": _neg,
}

_CMP_HELPER = {"<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge"}
_ARITH_HELPER = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod"}


class CompileInfo:
    """Why (and how far) an expression compiled to a slot program.

    ``fast`` is true when every name resolved to a direct slot or
    surrogate read and no subtree fell back to interpretation.
    ``reasons`` is a tuple of ``(kind, detail)`` pairs; kinds:

    ``dynamic-name``
        a free name with no static member binding — it resolves
        dynamically (or as its own literal spelling) per object.  This is
        the REP504 advisory trigger.
    ``inherited`` / ``container`` / ``participant`` / ``fallback``
        the name is a member, but binds through the interpretive member
        protocol (inheritance chain, subclass/subrel container,
        relationship role).
    ``aggregate`` / ``quantifier`` / ``path`` / ``opaque``
        the subtree evaluates with the tree-walking interpreter.
    """

    __slots__ = ("fast", "reasons")

    def __init__(self, reasons: Tuple[Tuple[str, str], ...]) -> None:
        self.reasons = reasons
        self.fast = not reasons

    def kinds(self) -> Tuple[str, ...]:
        """Distinct reason kinds, in first-appearance order."""
        seen: List[str] = []
        for kind, _ in self.reasons:
            if kind not in seen:
                seen.append(kind)
        return tuple(seen)

    def details(self, kind: str) -> Tuple[str, ...]:
        """The detail strings of every reason of ``kind``."""
        return tuple(detail for k, detail in self.reasons if k == kind)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<CompileInfo fast={self.fast} reasons={len(self.reasons)}>"


class CompiledExpr:
    """One compiled program: expression form, predicate form, batch scan."""

    __slots__ = ("expression", "predicate", "scan", "info", "source")

    def __init__(
        self,
        expression: Callable[[Any], Any],
        predicate: Callable[[Any], bool],
        scan: Callable[[Any], Optional[Tuple[int, List[Any]]]],
        info: CompileInfo,
        source: str,
    ) -> None:
        #: ``fn(obj) -> value`` — the ``node.evaluate(EvalContext(obj))``
        #: equivalent (may yield MISSING from path traversal).
        self.expression = expression
        #: ``fn(obj) -> bool`` — ``truthy(node.evaluate(...))``.
        self.predicate = predicate
        #: ``fn(objs) -> (scanned, matched) | None`` — the whole filter
        #: loop generated around the predicate expression: skips deleted
        #: objects, counts the rest, collects matches.  Returns ``None``
        #: when it cannot finish — an object of another type (the slot
        #: columns would be foreign) or a naked TypeError from a raw
        #: comparison; the caller then falls back to the per-object
        #: ``predicate``, which reproduces interpreter semantics exactly.
        self.scan = scan
        self.info = info
        #: Generated source, kept for diagnostics and the slowlog.
        self.source = source


class _Codegen:
    """Generates the source of one (expression, type) program."""

    def __init__(self, type_: Any, obs: Any = None) -> None:
        self.type = type_
        self.plan = _resolution.plan_for(type_, obs)
        self.store = store_for(type_, obs)
        self.env: Dict[str, Any] = dict(_BASE_ENV)
        self.reasons: List[Tuple[str, str]] = []
        self._n = 0
        #: When true, comparisons over never-MISSING operands emit the
        #: raw operator instead of the wrapping helper.  A raw compare can
        #: raise a naked TypeError, so this variant is only used inside
        #: the batch scan, whose generated loop catches TypeError and
        #: reports "rerun me per object" — the per-object program then
        #: reproduces the interpreter's exact ExprEvaluationError.
        self.fast_cmp = False

    # -- small utilities -----------------------------------------------------

    def _const(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.env[name] = value
        return name

    def _temp(self) -> str:
        name = f"t{self._n}"
        self._n += 1
        return name

    def _interp(self, node: Node, kind: str, detail: str) -> str:
        """Whole-subtree fallback: evaluate with the tree walk."""
        self.reasons.append((kind, detail))

        def run(obj: Any, _node: Node = node) -> Any:
            return _node.evaluate(EvalContext(obj))

        return f"{self._const('w', run)}(obj)"

    def _member_fallback(self, name: str) -> str:
        """Name accessor through the member protocol (= ctx.lookup)."""

        def acc(obj: Any, _name: str = name) -> Any:
            try:
                return obj.get_member(_name)
            except (KeyError, UnknownAttributeError):
                # Unresolvable names evaluate as their own spelling —
                # the enum-label convention (unresolved_as_literal).
                return _name

        return f"{self._const('n', acc)}(obj)"

    # -- node emitters -------------------------------------------------------
    # Each returns ``(source_expr, is_bool, can_be_missing)``.

    def emit(self, node: Node) -> Tuple[str, bool, bool]:
        if isinstance(node, Literal):
            value = node.value
            return self._const("k", value), isinstance(value, bool), False
        if isinstance(node, Name):
            return self._emit_name(node.identifier)
        if isinstance(node, Path):
            return self._emit_path(node)
        if isinstance(node, Unary):
            return self._emit_unary(node)
        if isinstance(node, Binary):
            return self._emit_binary(node)
        if isinstance(node, Quantified):
            src = self._interp(
                node, "quantifier", f"quantifier {node.unparse()} evaluates interpretively"
            )
            return src, True, False
        if isinstance(node, Aggregate):
            src = self._interp(
                node,
                "aggregate",
                f"aggregate {node.func}(…) carries binder scope; evaluates interpretively",
            )
            return src, node.func == "exists", False
        src = self._interp(
            node, "opaque", f"unknown node {type(node).__name__} evaluates interpretively"
        )
        return src, False, False

    def _emit_name(self, identifier: str) -> Tuple[str, bool, bool]:
        entry = self.plan.entries.get(identifier)
        participants = getattr(self.type, "participants", None)
        if participants and identifier in participants:
            # Relationship roles shadow every member; resolved per object.
            self.reasons.append(
                ("participant", f"name {identifier!r} is a relationship role")
            )
            return self._member_fallback(identifier), False, False
        if entry is None:
            if getattr(self.type, "allow_dynamic", False):
                detail = (
                    f"free name {identifier!r} binds dynamically on "
                    f"{self.type.name!r} (allow_dynamic)"
                )
            else:
                detail = (
                    f"free name {identifier!r} is not a member of "
                    f"{self.type.name!r}; it evaluates as a literal label"
                )
            self.reasons.append(("dynamic-name", detail))
            return self._member_fallback(identifier), False, False
        if entry.kind == "surrogate":
            return "obj.surrogate", False, False
        if (
            entry.kind == "attribute"
            and not entry.rels
            and entry.spec is not None
            and not entry.check_subclass
            and not entry.check_subrel
            and entry.slot is not None
        ):
            # The fast path: a plain stored attribute — one slot read.
            column = self._const("c", self.store.columns[entry.slot])
            default = self._const("d", entry.default)
            temp = self._temp()
            src = f"({default} if ({temp} := {column}[row]) is UNSET else {temp})"
            return src, False, False
        if entry.rels:
            self.reasons.append(
                ("inherited", f"member {identifier!r} resolves through "
                              f"inheritance relationships at runtime")
            )
        elif entry.check_subclass or entry.check_subrel or entry.kind != "attribute":
            self.reasons.append(
                ("container", f"member {identifier!r} is a {entry.kind} "
                              f"container resolved per object")
            )
        else:
            self.reasons.append(
                ("fallback", f"member {identifier!r} needs the interpretive "
                             f"member protocol")
            )
        return self._member_fallback(identifier), False, False

    def _emit_path(self, node: Path) -> Tuple[str, bool, bool]:
        base, _, _ = self.emit(node.base)
        segments = self._const("p", tuple(node.segments))
        self.reasons.append(
            ("path", f"path {node.unparse()} traverses the member protocol")
        )
        return f"_path({base}, {segments})", False, True

    def _emit_unary(self, node: Unary) -> Tuple[str, bool, bool]:
        if node.op == "-":
            src, _, _ = self.emit(node.operand)
            return f"_neg({src})", False, False
        if node.op == "not":
            src, is_bool, _ = self.emit(node.operand)
            inner = src if is_bool else f"truthy({src})"
            return f"(not {inner})", True, False
        return (
            self._interp(
                node, "opaque", f"unknown unary operator {node.op!r}"
            ),
            False,
            False,
        )

    def _emit_binary(self, node: Binary) -> Tuple[str, bool, bool]:
        op = node.op
        if op in ("and", "or"):
            left, lbool, _ = self.emit(node.left)
            right, rbool, _ = self.emit(node.right)
            lsrc = left if lbool else f"truthy({left})"
            rsrc = right if rbool else f"truthy({right})"
            return f"({lsrc} {op} {rsrc})", True, False
        left, _, lmiss = self.emit(node.left)
        right, _, rmiss = self.emit(node.right)
        if op == "=":
            if lmiss or rmiss:
                return f"_equal({left}, {right})", True, False
            return f"({left} == {right})", True, False
        if op == "!=":
            if lmiss or rmiss:
                return f"(not _equal({left}, {right}))", True, False
            return f"(not ({left} == {right}))", True, False
        if op == "in":
            return f"_in({left}, {right})", True, False
        if op == "not in":
            return f"(not _in({left}, {right}))", True, False
        helper = _CMP_HELPER.get(op)
        if helper is not None:
            if self.fast_cmp and not lmiss and not rmiss:
                return f"({left} {op} {right})", True, False
            return f"{helper}({left}, {right})", True, False
        helper = _ARITH_HELPER.get(op)
        if helper is not None:
            return f"{helper}({left}, {right})", False, False
        return (
            self._interp(node, "opaque", f"unknown operator {op!r}"),
            False,
            False,
        )


def _build(node: Node, type_: Any, obs: Any = None) -> CompiledExpr:
    gen = _Codegen(type_, obs)
    expr, is_bool, _ = gen.emit(node)
    pred = expr if is_bool else f"truthy({expr})"
    info = CompileInfo(tuple(gen.reasons))
    # Second emission for the batch scan: raw comparisons (fast_cmp).  The
    # scan catches the naked TypeError they may raise and answers None —
    # the caller then reruns per object through the wrapping helpers, so
    # error behavior stays bit-for-bit the interpreter's.
    gen.fast_cmp = True
    fast, fast_bool, _ = gen.emit(node)
    fast_pred = fast if fast_bool else f"truthy({fast})"
    source = (
        f"def _expr(obj):\n    row = obj._row\n    return {expr}\n"
        f"def _pred(obj):\n    row = obj._row\n    return {pred}\n"
        "def _scan(objs):\n"
        "    try:\n"
        "        total = len(objs)\n"
        "    except TypeError:\n"
        "        return None\n"
        "    matched = []\n"
        "    append = matched.append\n"
        "    dropped = 0\n"
        "    try:\n"
        "        for obj in objs:\n"
        "            if obj._deleted:\n"
        "                dropped += 1\n"
        "                continue\n"
        "            if obj.object_type is not _scan_type:\n"
        "                return None\n"
        "            row = obj._row\n"
        f"            if {fast_pred}:\n"
        "                append(obj)\n"
        "    except TypeError:\n"
        "        return None\n"
        "    return (total - dropped, matched)\n"
    )
    env = gen.env
    env["_scan_type"] = type_
    exec(compile(source, f"<compiled:{type_.name}>", "exec"), env)
    return CompiledExpr(env["_expr"], env["_pred"], env["_scan"], info, source)


# ---------------------------------------------------------------------------
# Program lifetime: the programs of a node live on the node.
# ---------------------------------------------------------------------------


#: The nodes holding programs, for the statistics; weak, so it never
#: extends a node's (and thus a program's) lifetime.
_holders: "weakref.WeakSet[Node]" = weakref.WeakSet()


def compiled_for(node: Node, type_: Any, obs: Any = None) -> CompiledExpr:
    """The compiled program of ``node`` anchored at ``type_``.

    Kept on ``node`` as ``(schema epoch, {type: program})``: dropped with
    the AST it was compiled from, and retired by a DDL change.
    """
    held = node._programs
    epoch = _resolution._SCHEMA_EPOCH
    if held is None or held[0] != epoch:
        held = node._programs = (epoch, {})
        _holders.add(node)
    compiled = held[1].get(type_)
    if compiled is None:
        compiled = held[1][type_] = _build(node, type_, obs)
    return compiled


def compile_expression(
    node: Node, type_: Any, obs: Any = None
) -> Callable[[Any], Any]:
    """``fn(obj) -> value`` equivalent to ``node.evaluate(EvalContext(obj))``."""
    return compiled_for(node, type_, obs).expression


def compile_predicate(
    node: Node, type_: Any, obs: Any = None
) -> Callable[[Any], bool]:
    """``fn(obj) -> bool`` equivalent to ``truthy(node.evaluate(...))``."""
    return compiled_for(node, type_, obs).predicate


def compile_info(node: Node, type_: Any, obs: Any = None) -> CompileInfo:
    """Compilability report of ``node`` at ``type_`` (see :class:`CompileInfo`)."""
    return compiled_for(node, type_, obs).info


def invalidate_cache() -> None:
    """Drop every compiled program (tests and diagnostics)."""
    for node in list(_holders):
        node._programs = None
    _holders.clear()


def cache_stats() -> Dict[str, int]:
    """``expr.compiled``: the programs kept (exact after ``gc.collect()``;
    a program that closes over its own node dies in the cycle collector)."""
    held = [node._programs for node in list(_holders)]
    return {"expr.compiled": sum(len(h[1]) for h in held if h is not None)}
