"""Per-layer span accounting for the traced run.

The benchmark does not change the engine: it wraps the public entry
points of each layer (and the event handlers the layers subscribe to the
bus) from here, replacing class and module attributes with timing
wrappers.  ``install()`` must run before any database is built, because
the bus stores the handler a manager subscribes at subscribe time.

Accounting: every wrapper pushes a child-time accumulator, times the call
with ``perf_counter_ns`` and adds ``elapsed - children`` to its span's
self time; its elapsed time is then charged to the enclosing frame.  The
benchmark opens one root frame per operation (:meth:`Tracer.op_begin`),
so for the measured operations the span self times plus ``bench`` self
time add up exactly to the traced operation latency.  Spans of one name may nest
(an ``emit`` from inside an ``emit`` handler); each level counts as a
call and self time never double counts.

``core.get_member`` is counted only: it runs millions of times per run at
well under a microsecond each, so timing it would add more than it
measures.  Its time stays in the span that called it.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: (span name, targets, timed).  A target is ``(module, attribute)`` for a
#: module-level function or ``(module, class, method)`` for a method.
#: Module functions are patched in every module that imported them by
#: name, so each caller sees the wrapper.
SPANS: List[Tuple[str, List[Tuple[str, ...]], bool]] = [
    ("core.get_member", [("repro.core.objects", "DBObject", "get_member")], False),
    ("core.set_attribute", [("repro.core.objects", "DBObject", "set_attribute")], True),
    ("core.bind", [
        ("repro.core.objects", "bind"),
        ("repro.engine.database", "bind"),
        ("repro.composition.interfaces", "bind"),
        ("repro.core.objects", "InheritanceLink", "unbind"),
    ], True),
    ("engine.events.emit", [("repro.engine.events", "EventBus", "emit")], True),
    ("consistency.adaptation", [
        ("repro.consistency.adaptation", "AdaptationTracker", "_on_attribute_updated"),
        ("repro.consistency.adaptation", "AdaptationTracker", "_on_subobject_changed"),
        ("repro.consistency.adaptation", "AdaptationTracker", "acknowledge"),
    ], True),
    ("query.views.refresh", [
        ("repro.query.views", "ViewManager", "_on_attribute_event"),
        ("repro.query.views", "ViewManager", "_on_binding_event"),
        ("repro.query.views", "ViewManager", "_on_container_event"),
    ], True),
    ("query.indexes.maintain", [
        ("repro.query.indexes", "IndexManager", "_on_attribute_event"),
        ("repro.query.indexes", "IndexManager", "_on_binding_event"),
    ], True),
    ("query.parse", [
        ("repro.query.executor", "parse_query"),
        # Database.select parses its where text on every call.
        ("repro.expr", "parse_expression"),
    ], True),
    ("expr.compile", [
        ("repro.expr.compile", "compiled_for"),
        ("repro.query.executor", "compiled_for"),
        ("repro.query.views", "TypeView", "program_for"),
    ], True),
    ("query.plan", [
        ("repro.query.executor", "plan_source"),
        ("repro.query.planner", "plan_source"),
    ], True),
    ("query.indexes.lookup", [
        ("repro.query.indexes", "ValueIndex", "lookup_eq"),
        ("repro.query.indexes", "ValueIndex", "lookup_range"),
    ], True),
    ("query.views.scan", [("repro.query.views", "ViewManager", "try_scan")], True),
    ("query.execute", [
        ("repro.query.executor", "execute_query"),
        ("repro.engine.database", "Database", "select"),
    ], True),
    ("txn.locks.acquire", [("repro.txn.locks", "LockTable", "acquire")], True),
    ("txn.lock_expansion", [("repro.txn.transactions", "Transaction", "lock_expansion")], True),
    ("txn.commit", [("repro.txn.transactions", "Transaction", "commit")], True),
    ("txn.abort", [("repro.txn.transactions", "Transaction", "abort")], True),
    ("composition.expand", [("repro.composition.composite", "expand")], True),
    ("composition.bill_of_materials", [
        ("repro.composition.configuration", "bill_of_materials")], True),
    ("versions.checkout", [("repro.versions.workspace", "Workspace", "checkout")], True),
    ("versions.checkin", [("repro.versions.workspace", "Workspace", "checkin")], True),
    ("versions.merge", [("repro.versions.merge", "merge_versions")], True),
    ("engine.persistence.dump_image", [("repro.engine.persistence", "dump_image")], True),
    ("engine.persistence.write", [("repro.engine.persistence", "save")], True),
    ("engine.persistence.load", [("repro.engine.persistence", "load")], True),
    ("obs.audit", [
        ("repro.obs.provenance", "AuditLog", "on_event"),
        ("repro.obs.provenance", "AuditLog", "record"),
        ("repro.obs.provenance", "AuditLog", "event_child"),
    ], True),
    ("obs.recorder.tick", [("repro.obs.recorder", "FlightRecorder", "tick")], True),
]

SPAN_NAMES = [name for name, _, _ in SPANS]
TIMED_SPANS = [name for name, _, timed in SPANS if timed]
#: Spans that run only in set-up: reported as set-up time, not per op.
SETUP_SPANS = ("engine.persistence.load",)


class Tracer:
    """Span counters and self times; see the module docstring."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.self_ns: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        #: Child-time accumulators; the bottom frame catches everything
        #: outside a measured operation (set-up, oracle checks).
        self.stack: List[int] = [0]
        self.active = True
        self.bench_self_ns = 0
        self.op_ns = 0
        self.ops = 0

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                children = stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - children
                stack[-1] += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Patch every target in :data:`SPANS` (once per process)."""
        wrapped: Dict[int, Callable[..., Any]] = {}
        for name, targets, timed in SPANS:
            make = self.timed if timed else self.counted
            for target in targets:
                module = importlib.import_module(target[0])
                owner: Any = module if len(target) == 2 else getattr(module, target[1])
                attr = target[-1]
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                # One wrapper per function, shared by every module that
                # imported it, so a call is counted once.
                wrapper = wrapped.get(id(original))
                if wrapper is None:
                    wrapper = wrapped[id(original)] = make(name, original)
                setattr(owner, attr, wrapper)

    # -- per-operation frames ---------------------------------------------------

    def op_begin(self) -> int:
        self.stack.append(0)
        return perf_counter_ns()

    def op_end(self, started: int) -> None:
        elapsed = perf_counter_ns() - started
        children = self.stack.pop()
        self.bench_self_ns += elapsed - children
        self.op_ns += elapsed
        self.ops += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "bench_self_ns": self.bench_self_ns, "op_ns": self.op_ns,
                "ops": self.ops}


def per_op(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Per-operation span metrics between two snapshots."""
    ops = after["ops"] - before["ops"]
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        if name in SETUP_SPANS:
            continue
        calls = after["calls"][name] - before["calls"][name]
        out[f"{name}.calls_per_op"] = calls / ops
        if name in TIMED_SPANS:
            spent = after["self_ns"][name] - before["self_ns"][name]
            out[f"{name}.self_us_per_op"] = spent / ops / 1e3
    out["bench.self_us_per_op"] = (
        after["bench_self_ns"] - before["bench_self_ns"]) / ops / 1e3
    out["trace.mean_op_us"] = (after["op_ns"] - before["op_ns"]) / ops / 1e3
    return out

