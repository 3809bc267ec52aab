"""Abstract syntax tree of the constraint-expression language.

Each node implements ``evaluate(ctx)`` against an
:class:`~repro.expr.context.EvalContext`.  The tree is produced by
:mod:`repro.expr.parser` and is immutable after the parser's single
``where``-attachment pass.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..errors import ExprEvaluationError
from .context import MISSING, EvalContext, as_collection

__all__ = [
    "Node",
    "Literal",
    "Name",
    "Path",
    "Unary",
    "Binary",
    "Aggregate",
    "Quantified",
    "truthy",
    "iter_aggregates",
]


def truthy(value: Any) -> bool:
    """Boolean coercion used by logical operators and constraint checking."""
    if value is MISSING:
        return False
    return bool(value)


def _numeric(value: Any, op: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExprEvaluationError(f"operator {op!r} needs numbers, got {value!r}")
    return value


def _equal(left: Any, right: Any) -> bool:
    if left is MISSING or right is MISSING:
        return False
    return left == right


class Node:
    """Base class of all expression nodes."""

    #: Compiled programs of this node (see :func:`repro.expr.compile.compiled_for`);
    #: kept on the node so they live exactly as long as the AST.
    _programs: Any = None

    def evaluate(self, ctx: EvalContext) -> Any:
        raise NotImplementedError

    def unparse(self) -> str:
        """Source-like rendering, used in constraint-violation messages."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.unparse()}>"


class Literal(Node):
    """A number, string or boolean literal."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.value

    def unparse(self) -> str:
        if isinstance(value := self.value, str):
            return f"'{value}'"
        return str(self.value).lower() if isinstance(self.value, bool) else str(self.value)


class Name(Node):
    """A bare identifier.

    Resolution: binder bindings, then members of the context root; when
    nothing matches and the context permits, the identifier's own spelling
    (the enum-label convention of the paper's listings).
    """

    __slots__ = ("identifier",)

    def __init__(self, identifier: str):
        self.identifier = identifier

    def evaluate(self, ctx: EvalContext) -> Any:
        value = ctx.lookup(self.identifier)
        if value is MISSING:
            if ctx.unresolved_as_literal:
                return self.identifier
            raise ExprEvaluationError(f"unresolvable name {self.identifier!r}")
        return value

    def unparse(self) -> str:
        return self.identifier


class Path(Node):
    """Dotted member access, e.g. ``SubGates.Pins`` or ``s.Diameter``.

    Access on a collection maps over elements and flattens one level, so
    ``SubGates.Pins`` collects the pins of every subgate.
    """

    __slots__ = ("base", "segments")

    def __init__(self, base: Node, segments: Sequence[str]):
        self.base = base
        self.segments = tuple(segments)

    def evaluate(self, ctx: EvalContext) -> Any:
        from .context import resolve_member

        value = self.base.evaluate(ctx)
        for segment in self.segments:
            value = resolve_member(value, segment)
            if value is MISSING:
                return MISSING
        return value

    def unparse(self) -> str:
        return ".".join([self.base.unparse(), *self.segments])

    def display_names(self) -> Tuple[str, ...]:
        """Names an element of this path may be referenced by in a ``where``.

        ``count(Pins) = 2 where Pins.InOut = IN`` refers to each element of
        the ``Pins`` collection by the path spelling itself; the last
        segment alone is also accepted.
        """
        full = self.unparse()
        return (full, self.segments[-1]) if self.segments else (full,)


class Unary(Node):
    """Unary minus or logical ``not``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Node):
        self.op = op
        self.operand = operand

    def evaluate(self, ctx: EvalContext) -> Any:
        value = self.operand.evaluate(ctx)
        if self.op == "-":
            return -_numeric(value, "-")
        if self.op == "not":
            return not truthy(value)
        raise ExprEvaluationError(f"unknown unary operator {self.op!r}")

    def unparse(self) -> str:
        spacer = " " if self.op == "not" else ""
        return f"{self.op}{spacer}{self.operand.unparse()}"


class Binary(Node):
    """Binary operator: arithmetic, comparison, membership, and/or."""

    __slots__ = ("op", "left", "right")

    _ARITH = {"+", "-", "*", "/", "%"}
    _COMPARE = {"=", "!=", "<", "<=", ">", ">="}

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, ctx: EvalContext) -> Any:
        op = self.op
        if op == "and":
            return truthy(self.left.evaluate(ctx)) and truthy(self.right.evaluate(ctx))
        if op == "or":
            return truthy(self.left.evaluate(ctx)) or truthy(self.right.evaluate(ctx))
        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        if op == "=":
            return _equal(left, right)
        if op == "!=":
            return not _equal(left, right)
        if op == "in":
            return any(_equal(left, element) for element in as_collection(right))
        if op == "not in":
            return not any(_equal(left, element) for element in as_collection(right))
        if op in self._COMPARE:
            if left is MISSING or right is MISSING:
                return False
            try:
                if op == "<":
                    return left < right
                if op == "<=":
                    return left <= right
                if op == ">":
                    return left > right
                return left >= right
            except TypeError as exc:
                raise ExprEvaluationError(
                    f"cannot compare {left!r} {op} {right!r}"
                ) from exc
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if op in self._ARITH:
            left = _numeric(left, op)
            right = _numeric(right, op)
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise ExprEvaluationError("division by zero")
                return left / right
            if right == 0:
                raise ExprEvaluationError("modulo by zero")
            return left % right
        raise ExprEvaluationError(f"unknown operator {op!r}")

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


class Aggregate(Node):
    """Aggregate over a collection path.

    Covers both spellings the paper uses: ``count (Pins)`` and
    ``#s in Bolt`` (the latter names a binder usable in a trailing
    ``where``).  ``where`` filters elements; within the filter an element
    is visible under the binder name and the path's display names.
    """

    __slots__ = ("func", "arg", "where", "binder")

    _FUNCS = frozenset(["count", "sum", "min", "max", "avg", "exists"])

    def __init__(
        self,
        func: str,
        arg: Node,
        where: Optional[Node] = None,
        binder: Optional[str] = None,
    ):
        if func not in self._FUNCS:
            raise ExprEvaluationError(f"unknown aggregate {func!r}")
        self.func = func
        self.arg = arg
        self.where = where
        self.binder = binder

    def _element_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        if self.binder:
            names.append(self.binder)
        if isinstance(self.arg, Path):
            names.extend(self.arg.display_names())
        elif isinstance(self.arg, Name):
            names.append(self.arg.identifier)
        return tuple(names)

    def elements(self, ctx: EvalContext) -> List[Any]:
        """The (filtered) collection the aggregate ranges over."""
        collection = as_collection(self.arg.evaluate(ctx))
        if self.where is None:
            return collection
        names = self._element_names()
        kept = []
        for element in collection:
            scope = ctx.child({name: element for name in names})
            if truthy(self.where.evaluate(scope)):
                kept.append(element)
        return kept

    def evaluate(self, ctx: EvalContext) -> Any:
        elements = self.elements(ctx)
        if self.func == "count":
            return len(elements)
        if self.func == "exists":
            return bool(elements)
        if self.func == "sum":
            return sum(_numeric(element, "sum") for element in elements)
        if not elements:
            raise ExprEvaluationError(
                f"{self.func}() over an empty collection in {self.unparse()}"
            )
        if self.func == "min":
            return min(elements)
        if self.func == "max":
            return max(elements)
        total = sum(_numeric(element, "avg") for element in elements)
        return total / len(elements)

    def unparse(self) -> str:
        body = self.arg.unparse()
        if self.binder:
            body = f"{self.binder} in {body}"
        if self.where is not None:
            body = f"{body} where {self.where.unparse()}"
        return f"{self.func}({body})"


class Quantified(Node):
    """Universal quantification: ``for (s in Bolt, n in Nut): c1; c2``.

    Every body constraint must hold for every combination of binder values
    (cartesian product); empty binder collections satisfy it vacuously.
    """

    __slots__ = ("binders", "body")

    def __init__(self, binders: Sequence[Tuple[str, Node]], body: Sequence[Node]):
        if not binders:
            raise ExprEvaluationError("quantifier needs at least one binder")
        if not body:
            raise ExprEvaluationError("quantifier needs at least one constraint")
        self.binders = tuple(binders)
        self.body = tuple(body)

    def evaluate(self, ctx: EvalContext) -> bool:
        return self._check(ctx, 0)

    def _check(self, ctx: EvalContext, index: int) -> bool:
        if index == len(self.binders):
            return all(truthy(constraint.evaluate(ctx)) for constraint in self.body)
        name, source = self.binders[index]
        for element in as_collection(source.evaluate(ctx)):
            scope = ctx.child({name: element})
            if not self._check(scope, index + 1):
                return False
        return True

    def unparse(self) -> str:
        binders = ", ".join(f"{name} in {src.unparse()}" for name, src in self.binders)
        body = "; ".join(constraint.unparse() for constraint in self.body)
        return f"for ({binders}): {body}"


def iter_aggregates(node: Node):
    """Yield every :class:`Aggregate` beneath ``node`` (including itself)."""
    stack: List[Node] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Aggregate):
            yield current
            stack.append(current.arg)
            if current.where is not None:
                stack.append(current.where)
        elif isinstance(current, Binary):
            stack.extend((current.left, current.right))
        elif isinstance(current, Unary):
            stack.append(current.operand)
        elif isinstance(current, Path):
            stack.append(current.base)
        elif isinstance(current, Quantified):
            stack.extend(source for _, source in current.binders)
            stack.extend(current.body)
