"""Query execution over a database.

Execution is planner-driven since the indexed-query-engine change: the
``from`` source and ``where`` AST go to :mod:`repro.query.planner`, which
picks an access path (full scan, equality index, range index) and hands
back candidate objects in scan order.  The full ``where`` is always
re-applied here, so the planner can only reduce the number of objects
touched, never change results.  The chosen :class:`~repro.query.planner.QueryPlan`
— with estimated vs actual row counts — rides on the result as
``QueryResult.plan`` (``run_query(..., explain=True)``; CLI
``repro query --explain``).

``order by … limit k`` uses a bounded heap (``heapq.nsmallest`` /
``nlargest``, documented as equivalent to sorting then slicing, including
stability) instead of sorting all matches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List, Optional, Tuple

from ..core import resolution as _resolution
from ..core.objects import DBObject
from ..engine.database import Database
from ..expr import MISSING, EvalContext, truthy
from ..expr.ast import Node
from ..expr.compile import compiled_for
from .parser import QuerySpec, parse_query, parse_where
from .planner import QueryPlan, class_source, plan_source, resolve_source

__all__ = [
    "QueryResult",
    "execute_query",
    "filter_source",
    "run_query",
    "select_where",
]


@dataclass
class QueryResult:
    """The outcome of one query.

    ``columns`` are the projection source texts (``["*"]`` for object
    queries); ``rows`` are value tuples aligned with the columns; for
    ``select *`` queries ``objects`` carries the matching objects and each
    row is the one-element tuple of the object.  ``plan`` records the
    access path the planner chose.
    """

    spec: QuerySpec
    columns: List[str]
    rows: List[Tuple[Any, ...]]
    objects: Optional[List[DBObject]] = None
    plan: Optional[QueryPlan] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalars(self) -> List[Any]:
        """First-column values — convenient for single-column queries."""
        return [row[0] for row in self.rows]

    def explain(self) -> str:
        """The plan's EXPLAIN rendering."""
        return self.plan.describe() if self.plan is not None else "plan: (none)"

    def __repr__(self) -> str:
        return f"<QueryResult {self.spec.text!r} rows={len(self.rows)}>"


def _sort_key(value: Any):
    # MISSING/None order last; mixed types order by type name to stay total.
    if value is MISSING or value is None:
        return (2, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (0, "", value)
    return (1, type(value).__name__, str(value))


def execute_query(
    db: Database,
    spec: QuerySpec,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    """Run a parsed query against a database."""
    obs = getattr(db, "obs", None)
    if obs is None:
        return _execute(db, spec, None, compiled, views)
    # Clock the query only when a slow log is attached; within-budget
    # queries pay two perf_counter reads and one compare, nothing else.
    slowlog = obs.slowlog
    started = perf_counter() if slowlog is not None else 0.0
    with obs.tracer.span(
        "query.execute", source=spec.source_name, text=spec.text
    ) as span:
        result = _execute(db, spec, obs, compiled, views)
        span.set(rows=len(result.rows))
        if result.plan is not None:
            span.set(access=result.plan.access_path)
    if slowlog is not None:
        duration = perf_counter() - started
        if slowlog.exceeded("query", duration):
            plan = result.plan
            slowlog.note(
                "query",
                duration,
                subject=spec.text,
                explain=plan.describe() if plan is not None else None,
                rows=len(result.rows),
                candidates=plan.candidates if plan is not None else None,
            )
    return result


def _distinct_rows(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """Order-preserving dedupe: set-based for hashable rows, linear only
    for (and against) the unhashable ones.

    A hashable row can equal an unhashable one (``frozenset() == set()``),
    so hashable rows are also checked against the kept unhashable pool,
    and unhashable rows against everything kept so far.
    """
    try:
        # Bulk fast path: when every row hashes, dict.fromkeys dedupes
        # order-preservingly in one C-level pass (one hash per row).
        return list(dict.fromkeys(rows))
    except TypeError:
        pass
    seen: set = set()
    unhashable: List[Tuple[Any, ...]] = []
    unique: List[Tuple[Any, ...]] = []
    for row in rows:
        try:
            duplicate = row in seen
            if not duplicate and unhashable:
                duplicate = any(row == other for other in unhashable)
            if not duplicate:
                seen.add(row)
                unique.append(row)
        except TypeError:  # unhashable projection value
            if row not in unique:
                unique.append(row)
                unhashable.append(row)
    return unique


def filter_source(
    db: Database,
    source,
    where: Optional[Node],
    text: str = "",
    obs=None,
    compiled: bool = True,
    views: bool = True,
) -> Tuple[QueryPlan, List[DBObject]]:
    """The where stage of every selection: plan, then filter the candidates.

    :func:`plan_source` picks the access path; a full scan whose ``where``
    reads inherited members goes to :meth:`ViewManager.try_scan`; otherwise
    the compiled batch scan runs, and a mixed extent falls back to one
    compiled predicate per concrete type.  ``compiled=False`` is the
    tree-walking oracle, ``views=False`` the live-resolution oracle.
    Returns the plan (its ``candidates`` set to the objects scanned) and
    the matches in scan order.
    """
    plan, candidates = plan_source(db, source, where, text=text)

    outcome = None
    if compiled and where is not None and candidates:
        if views and plan.access_path == "full-scan":
            # View routing: predicates over inherited members run against
            # the type's materialized view columns (plan shows "view").
            # Index paths keep precedence — sub-linear beats faster-scan.
            outcome = db.views.try_scan(where, candidates, plan, obs)
        if outcome is None:
            # Batched scan: the whole filter loop is generated next to the
            # predicate (CompiledExpr.scan), so the steady per-object cost
            # is one identity compare plus the inlined slot reads — no
            # closure call.  The scan bails out (None) on the first object
            # of another type; mixed extents rerun below.
            outcome = compiled_for(where, candidates[0].object_type, obs).scan(
                candidates
            )
    if outcome is not None:
        scanned, matches = outcome
    else:
        # Per-object dispatch, one predicate per run of a concrete type:
        # heterogeneous extents, no where clause, or the tree-walk oracle.
        scanned = 0
        matches = []
        pred_type = pred = None
        for obj in candidates:
            if obj.deleted:
                continue
            scanned += 1
            if obj.object_type is not pred_type:
                pred_type = obj.object_type
                pred = _predicate(where, pred_type, obs, compiled)
            if pred is None or pred(obj):
                matches.append(obj)
    plan.candidates = scanned
    return plan, matches


def _predicate(where: Optional[Node], type_, obs, compiled: bool):
    """The per-object filter of ``where`` at ``type_`` (None: keep all)."""
    if not compiled:
        # Oracle mode: resolve the type's plan once up front (not per
        # object), so the where/order/projection walks hit valid plans.
        _resolution.plan_for(type_, obs)
    if where is None:
        return None
    if compiled:
        return compiled_for(where, type_, obs).predicate
    return lambda obj: truthy(where.evaluate(EvalContext(obj)))


def _expression(node: Node, type_, obs, compiled: bool):
    """``fn(obj) -> value`` of ``node`` at ``type_``: compiled, or the walk."""
    if compiled:
        return compiled_for(node, type_, obs).expression
    return lambda obj: node.evaluate(EvalContext(obj))


def select_where(db: Database, extent, text: str) -> List[DBObject]:
    """``Database.select(class_name, text)``: the where stage over a class."""
    return filter_source(
        db, class_source(db, extent), parse_where(text), text, db.obs
    )[1]


def _execute(
    db: Database,
    spec: QuerySpec,
    obs,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    plan, matches = filter_source(
        db, resolve_source(db, spec.source_name), spec.where, spec.text,
        obs, compiled, views,
    )
    if obs is not None:
        obs.metrics.counter("query.executed").inc()
        obs.metrics.counter("query.rows_scanned").inc(plan.candidates)
        obs.metrics.counter("query.rows_matched").inc(len(matches))
        if plan.access_path == "full-scan":
            obs.metrics.counter("query.plan.full_scan").inc()
        elif plan.access_path == "view":
            obs.metrics.counter("query.plan.view_scan").inc()
        else:
            obs.metrics.counter("query.plan.index_scan").inc()

    if spec.order_by is not None:
        order_node = spec.order_by
        order_fns: dict = {}

        def order_key(obj: DBObject):
            fn = order_fns.get(obj.object_type)
            if fn is None:
                fn = order_fns[obj.object_type] = _expression(
                    order_node, obj.object_type, obs, compiled
                )
            return _sort_key(fn(obj))

        if spec.limit is not None and spec.limit < len(matches):
            # Bounded-heap top-k: nsmallest/nlargest are documented as
            # equivalent to sorted(...)[:k] (asc) / sorted(..., reverse=True)[:k]
            # (desc), stability included.
            pick = heapq.nlargest if spec.descending else heapq.nsmallest
            matches = pick(spec.limit, matches, key=order_key)
            plan.order = f"top-{spec.limit} heap"
        else:
            matches.sort(key=order_key, reverse=spec.descending)
            plan.order = "sort"
        if spec.descending:
            plan.order += " desc"

    if spec.limit is not None:
        matches = matches[: spec.limit]

    if spec.projection is None:
        plan.rows = len(matches)
        if spec.distinct:
            seen = set()
            unique_rows = []
            unique_objects = []
            for obj in matches:
                if obj.surrogate not in seen:
                    seen.add(obj.surrogate)
                    unique_rows.append((obj,))
                    unique_objects.append(obj)
            plan.rows = len(unique_rows)
            return QueryResult(spec, ["*"], unique_rows, unique_objects, plan)
        rows = [(obj,) for obj in matches]
        return QueryResult(spec, ["*"], rows, matches, plan)

    rows = []
    proj_fns: dict = {}
    for obj in matches:
        fns = proj_fns.get(obj.object_type)
        if fns is None:
            fns = proj_fns[obj.object_type] = tuple(
                _expression(node, obj.object_type, obs, compiled)
                for _, node in spec.projection
            )
        rows.append(
            tuple(None if (value := fn(obj)) is MISSING else value for fn in fns)
        )
    if spec.distinct:
        rows = _distinct_rows(rows)
    plan.rows = len(rows)
    return QueryResult(spec, spec.column_names, rows, plan=plan)


def run_query(
    db: Database,
    text: str,
    explain: bool = False,
    compiled: bool = True,
    views: bool = True,
) -> QueryResult:
    """Parse and execute query text in one step.

    The plan is always attached as ``result.plan``; ``explain=True`` is
    the spelled-out request for it (the CLI's ``--explain`` uses this) —
    execution still happens, so the plan carries actual row counts next
    to the estimates.  ``compiled=False`` forces the tree-walking oracle;
    ``views=False`` keeps inherited-member predicates on the live
    resolution path (the materialized-view oracle).
    """
    return execute_query(db, parse_query(text), compiled, views)
