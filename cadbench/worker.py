"""One benchmark process: set up a workload, run its op stream, report.

``run.py`` starts this file in a fresh interpreter for every set-up and
every measured run, because the parse LRU, the compiled-program cache,
the intern pools and the resolution counters are process-global.  The
last line of standard output is one JSON object.

Modes:

* ``image`` — build the design-session database from its spec and save
  the image that the ``design_session`` set-up loads (input generation,
  not measured);
* ``setup`` — time one set-up and exit;
* ``measure`` — set up, then run exactly ``--ops`` items of the op
  stream, checking results against the engine's oracles along the way.
  ``--trace 1`` installs the per-layer wrappers of ``spans.py`` first.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import gen
import spans
from speed import ARENA_NODES, Speed, arena as make_arena

FUNCTION = [[True, False], [False, True]]


def _repro():
    """Engine modules, imported late so tracing can wrap them first."""
    from importlib import import_module

    # By module, not by name: ``repro.composition`` re-exports functions
    # that shadow its submodules, and tracing patches module attributes.
    composite = import_module("repro.composition.composite")
    configuration = import_module("repro.composition.configuration")
    interfaces = import_module("repro.composition.interfaces")
    from repro.consistency.adaptation import AdaptationTracker
    from repro.core.resolution import naive_get_member, resolution_stats
    from repro.ddl.paper import load_gate_schema
    from repro.engine import integrity, persistence
    from repro.engine.database import Database
    from repro.errors import LockConflictError
    from repro.expr import EvalContext, parse_expression, truthy
    from repro.expr.compile import cache_stats
    from repro.query import executor, parser
    from repro.txn.transactions import TransactionManager
    from repro.versions import merge
    from repro.versions.graph import VersionGraph
    from repro.versions.workspace import Workspace

    del import_module
    return argparse.Namespace(**locals())


def _members_equal(left: Any, right: Any) -> bool:
    if isinstance(left, list) and isinstance(right, list):
        return [getattr(o, "surrogate", o) for o in left] == [
            getattr(o, "surrogate", o) for o in right]
    return left == right


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common shape: ``setup``; ``run(op)`` returns the op class (None when
    the step is skipped); ``check(op)`` is the untimed oracle, returning
    False on a wrong result; ``finish`` runs end-of-run oracles."""

    def __init__(self, args: argparse.Namespace, spec: Dict[str, Any], speed: "Speed"):
        self.args = args
        self.spec = spec
        self.speed = speed
        self.r = _repro()
        self.failures: List[str] = []
        self.failed = 0
        self.writes = 0
        self.query_rows = 0
        self.query_examined = 0

    def fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        return False

    def prepare(self, op) -> None:
        """Untimed work before an op (shadow values for aborts)."""

    def finish(self) -> None:
        pass

    def _note_plan(self, result) -> None:
        plan = result.plan
        if plan is not None and plan.candidates is not None:
            self.query_examined += plan.candidates
            self.query_rows += len(result.rows)


class GateLibrary(Workload):
    """Shared by library_edit and catalog_query: interfaces with pins,
    implementations in class ``Impls`` bound through AllOf_GateInterface."""

    def build_library(self) -> None:
        r = self.r
        db = self.db = r.Database(self.args.workload)
        r.load_gate_schema(db.catalog)
        db.create_class("Interfaces", "GateInterface")
        db.create_class("Impls", "GateImplementation")
        self.ifs = []
        for record in self.spec["interfaces"]:
            iface = db.create_object("GateInterface", class_name="Interfaces",
                                     Length=record["Length"], Width=record["Width"])
            pins = iface.subclass("Pins")
            for k in range(record["pins"]):
                pins.create(InOut="IN" if k else "OUT", PinLocation={"X": k, "Y": 0})
            self.ifs.append(iface)
        ifs = self.ifs
        self.impls = []
        for i, tb in zip(self.spec["impl_iface"], self.spec["time_behavior"]):
            self.impls.append(db.create_object(
                "GateImplementation", class_name="Impls",
                transmitter=ifs[i], TimeBehavior=tb, Function=FUNCTION))
            self.speed.maybe()

    def stats(self) -> Dict[str, Any]:
        return {"views": self.db.views.stats_snapshot(),
                "indexes": self.db.indexes.stats_snapshot()}

    def inspect(self, impl) -> Tuple:
        # Four members, three of them inherited from the interface.
        return (impl.get_member("Length"), impl.get_member("Width"),
                impl.get_member("Pins"), impl.get_member("TimeBehavior"))

    def check_members(self, impl) -> bool:
        naive = self.r.naive_get_member
        for name in ("Length", "Width", "Pins", "TimeBehavior"):
            if not _members_equal(impl.get_member(name), naive(impl, name)):
                return self.fail(f"get_member({impl.surrogate}, {name}) != naive")
        return True

    def check_query(self, text: str, result) -> bool:
        """Rows and order against the engine's oracle path: full scan (no
        value index), no view, tree-walk evaluation.  The result's own
        parsed spec is reused, so the check leaves the parse LRU alone."""
        indexes = self.db.indexes
        indexes.auto = False
        try:
            oracle = self.r.executor.execute_query(
                self.db, result.spec, compiled=False, views=False)
        finally:
            indexes.auto = True
        got = [o.surrogate for o in result.objects]
        want = [o.surrogate for o in oracle.objects]
        if got != want:
            return self.fail(f"{text!r}: {len(got)} rows, oracle {len(want)}")
        return True


class LibraryEdit(GateLibrary):
    """Edits on a gate library with a value index on the inherited
    ``Length``, a view on ``Impls`` and an adaptation tracker live."""

    QUERY_CHECK_EVERY = 8
    INSPECT_CHECK_EVERY = 10
    WRITE_CHECK_EVERY = 25

    def setup(self) -> None:
        self.build_library()
        self.tracker = self.r.AdaptationTracker(self.db)
        # Every fixed query once: builds the Length index and the Impls
        # view, fills the parse cache and compiles the programs.
        for text in gen.LIBRARY_QUERIES:
            self.r.executor.run_query(self.db, text)
        self.counts = {"query": 0, "inspect": 0, "if_write": 0, "rebind": 0}

    def run(self, op) -> Optional[str]:
        kind = op[0]
        if kind == "if_write":
            self.ifs[op[1]].set_attribute(op[2], op[3])
        elif kind == "impl_write":
            self.impls[op[1]].set_attribute("TimeBehavior", op[2])
        elif kind == "ack":
            self.tracker.acknowledge(self.impls[op[1]])
        elif kind == "rebind":
            self.r.interfaces.rebind(self.impls[op[1]], self.ifs[op[2]])
        elif kind == "inspect":
            self.inspect(self.impls[op[1]])
            return "read"
        else:
            self.last = self.r.executor.run_query(self.db, op[1])
            self._note_plan(self.last)
            return "query"
        self.writes += 1
        return "write"

    def due(self, kind: str, every: int) -> bool:
        if kind not in self.counts:
            return False
        self.counts[kind] += 1
        return self.counts[kind] % every == 1 or every == 1

    def check(self, op) -> bool:
        kind = op[0]
        if kind == "query" and self.due(kind, self.QUERY_CHECK_EVERY):
            return self.check_query(op[1], self.last)
        if kind == "inspect" and self.due(kind, self.INSPECT_CHECK_EVERY):
            return self.check_members(self.impls[op[1]])
        if kind == "if_write" and self.due(kind, self.WRITE_CHECK_EVERY):
            iface = self.ifs[op[1]]
            for link in iface.inheritor_links[:3]:
                got = link.inheritor.get_member(op[2])
                if got != op[3] or self.r.naive_get_member(link.inheritor, op[2]) != op[3]:
                    return self.fail(f"inheritor of interface {op[1]} reads {got}")
        if kind == "rebind" and self.due(kind, 1):
            impl = self.impls[op[1]]
            if impl.inheritance_links[0].transmitter is not self.ifs[op[2]]:
                return self.fail(f"rebind of implementation {op[1]} not applied")
            return self.check_members(impl)
        return True


class CatalogQuery(GateLibrary):
    """Queries on a larger uniform library; ≈2000 distinct texts, more
    than the parse LRU holds."""

    QUERY_CHECK_EVERY = 100

    def setup(self) -> None:
        self.build_library()
        run_query = self.r.executor.run_query
        # One query per template: builds the TimeBehavior and Length
        # indexes and the Impls view, and compiles the first programs.
        for template, _, _ in gen.CATALOG_TEMPLATES.values():
            run_query(self.db, template.format(a=500, b=508))
        self.db.select("Impls", "TimeBehavior = 1")
        self.db.select("Impls", "Length = 100")
        self.last_rows: List[Any] = list(self.impls[:1])
        self.n_queries = 0

    def run(self, op) -> Optional[str]:
        kind = op[0]
        if kind == "query":
            self.last = self.r.executor.run_query(self.db, op[1])
            self._note_plan(self.last)
            if self.last.objects:
                self.last_rows = self.last.objects
            return "query"
        if kind == "select":
            rows = self.last_select = self.db.select("Impls", op[1])
            if rows:
                self.last_rows = rows
            return "query"
        if kind == "inspect_row":
            self.inspect(self.last_rows[op[1] % len(self.last_rows)])
            return "read"
        self.impls[op[1]].set_attribute("TimeBehavior", op[2])
        self.writes += 1
        return "write"

    def check(self, op) -> bool:
        kind = op[0]
        if kind not in ("query", "select"):
            if kind == "inspect_row" and op[1] % 50 == 0:
                return self.check_members(self.last_rows[op[1] % len(self.last_rows)])
            return True
        self.n_queries += 1
        if self.n_queries % self.QUERY_CHECK_EVERY != 1:
            return True
        if kind == "query":
            return self.check_query(op[1], self.last)
        # The interpretive walk over the whole class: no planner, no index.
        where = self.r.parse_expression(op[1])
        oracle = [o for o in self.db.class_("Impls")
                  if self.r.truthy(where.evaluate(self.r.EvalContext(o)))]
        if sorted(o.surrogate for o in self.last_select) != sorted(
                o.surrogate for o in oracle):
            return self.fail(f"select {op[1]!r} differs from the oracle")
        return True


def build_design_image(spec: Dict[str, Any], image_path: str) -> Dict[str, Any]:
    """The design-session database, saved to ``image_path``; returns the manifest
    (surrogate numbers of the tree nodes and version-graph roots)."""
    r = _repro()
    db = r.Database("design_session")
    r.load_gate_schema(db.catalog)
    nodes = [tuple(p) for p in spec["nodes"]]
    trees = []
    for tree in spec["trees"]:
        impls: Dict[Tuple[int, ...], Any] = {}
        ifaces: Dict[Tuple[int, ...], Any] = {}
        for path, record in zip(nodes, tree["nodes"]):
            iface = db.create_object("GateInterface", Length=record["Length"],
                                     Width=record["Width"])
            pins = iface.subclass("Pins")
            for k in range(record["pins"]):
                pins.create(InOut="IN" if k else "OUT", PinLocation={"X": k, "Y": 0})
            ifaces[path] = iface
            impls[path] = db.create_object(
                "GateImplementation", transmitter=iface,
                TimeBehavior=record["TimeBehavior"], Function=FUNCTION)
        slots: Dict[Tuple[int, ...], List[int]] = {}
        for path in reversed(nodes):
            children = [p for p in nodes if len(p) == len(path) + 1 and p[:-1] == path]
            slots[path] = [
                r.composite.add_component(
                    impls[path], "SubGates", ifaces[child],
                    GateLocation={"X": child[-1], "Y": len(path)}).surrogate.value
                for child in children
            ]
        trees.append({"root": impls[()].surrogate.value, "slots": slots[()]})
    graphs = [
        db.create_object("GateImplementation", Length=g["Length"], Width=g["Width"],
                         TimeBehavior=g["TimeBehavior"], Function=FUNCTION).surrogate.value
        for g in spec["graphs"]
    ]
    r.persistence.save(db, image_path)
    return {"trees": trees, "graphs": graphs, "objects": db.count()}


class DesignSession(Workload):
    """Four designers, round-robin on one thread, on composite trees and
    version graphs of a database loaded from an image."""

    CHECKPOINT_MEMBERS = ("Length", "Width", "TimeBehavior")

    def setup(self) -> None:
        r = self.r
        db = self.db = r.Database("design_session")
        r.load_gate_schema(db.catalog)
        db.enable_observability()
        r.persistence.load(self.args.image, db)
        manifest = self.args.manifest
        by_value = {obj.surrogate.value: obj for obj in db.objects()}
        self.roots = [by_value[t["root"]] for t in manifest["trees"]]
        self.slots = [[by_value[s] for s in t["slots"]] for t in manifest["trees"]]
        self.graphs = []
        self.versions: List[List[Any]] = []
        for number, value in enumerate(manifest["graphs"]):
            graph = r.VersionGraph(name=f"design-{number}")
            graph.add_version(by_value[value])
            self.graphs.append(graph)
            self.versions.append([by_value[value]])
        self.tm = r.TransactionManager(db)
        designers = self.spec["size"]["designers"]
        self.workspaces = [r.Workspace(db, f"designer{d}") for d in range(designers)]
        self.txns: List[Any] = [None] * designers
        self.txn_time = [0.0] * designers
        self.txn_start = [0.0] * designers
        #: (the designer's own step time, start) of every transaction.
        self.txn_latencies: List[Tuple[float, float]] = []
        #: Per designer: (id(obj), attribute) -> (obj, attribute, value before
        #: the transaction's first write) — what an abort must restore.
        self.shadow: List[Dict[Tuple[int, str], Tuple[Any, str, Any]]] = [
            {} for _ in range(designers)]
        self.refused = self.attempted_txns = self.aborts = self.undo_entries = 0
        self.checkpoints = 0
        self.image_bytes: List[float] = []
        #: (number, path, {root surrogate: live values}) per checkpoint.
        self.checkpoint_notes: List[Tuple[int, str, Dict[int, List[Any]]]] = []
        self.recorder = db.obs.recorder
        self.tick_every = self.spec["size"]["tick_every"]
        # First compiles: one expansion touches every type's plan.
        r.composite.expand(self.roots[0])
        r.configuration.bill_of_materials(self.roots[0])
        self.recorder.tick()
        self.steps = 0

    def address(self, tree: int, path: Tuple[int, ...]):
        return self.roots[tree] if not path else self.slots[tree][path[0]]

    def prepare(self, op) -> None:
        if op[0] == "txn_work" and self.txns[op[1]] is not None:
            shadow = self.shadow[op[1]]
            for call in op[3]:
                if call[0] == "set":
                    obj = self.address(op[2], tuple(call[1]))
                    key = (id(obj), call[2])
                    if key not in shadow:
                        shadow[key] = (obj, call[2], obj.get_member(call[2]))

    def run(self, op) -> Optional[str]:
        kind = op[0]
        self.steps += 1
        if self.steps % self.tick_every == 0:
            self.recorder.tick()
        if kind == "txn_begin":
            designer = op[1]
            self.attempted_txns += 1
            txn = self.tm.begin(user=f"designer{designer}")
            try:
                txn.lock_expansion(self.roots[op[2]], op[3])
            except self.r.LockConflictError:
                txn.abort()
                self.refused += 1
                return "txn"
            self.txns[designer] = txn
            return "txn"
        if kind in ("txn_work", "txn_end"):
            txn = self.txns[op[1]]
            if txn is None:
                return None
            if kind == "txn_end":
                if op[3]:
                    txn.abort()
                else:
                    txn.commit()
                return "txn"
            for call in op[3]:
                obj = self.address(op[2], tuple(call[1]))
                if call[0] == "get":
                    txn.get(obj, call[2])
                else:
                    txn.set(obj, call[2], call[3])
            return "txn"
        if kind == "version":
            designer, graph, base, value = op[1:]
            workspace = self.workspaces[designer]
            copy = workspace.checkout(self.graphs[graph], self.versions[graph][base])
            copy.set_attribute("TimeBehavior", value)
            workspace.checkin(copy)
            self.versions[graph].append(copy)
            self.writes += 1
            return "write"
        if kind == "merge":
            _, _, graph, base, left, right = op
            versions = self.versions[graph]
            result = self.r.merge.merge_versions(
                self.graphs[graph], versions[base], versions[left], versions[right])
            versions.append(result.merged)
            self.writes += 1
            return "write"
        if kind == "expand":
            root = self.roots[op[2]]
            self.r.composite.expand(root)
            self.r.configuration.bill_of_materials(root)
            return "read"
        self.checkpoints += 1
        self.checkpoint_path = os.path.join(
            self.args.rundir, f"checkpoint-{os.getpid()}-{self.checkpoints}.json")
        self.r.persistence.save(self.db, self.checkpoint_path)
        return "checkpoint"

    def end_txn(self, designer: int) -> None:
        self.txns[designer] = None
        self.shadow[designer] = {}

    def check(self, op) -> bool:
        kind = op[0]
        if kind == "txn_end" and op[3]:
            self.note_abort(self.txns[op[1]])
            for obj, name, value in self.shadow[op[1]].values():
                if obj.get_member(name) != value:
                    return self.fail(f"abort left {obj.surrogate}.{name} changed")
        if kind == "checkpoint":
            self.note_checkpoint()
        return True

    def note_abort(self, txn) -> None:
        """Untimed: the undo length the engine audited for ``txn``'s abort."""
        for item in reversed(self.db.obs.audit.ring):
            if item.kind == "txn.abort" and item.detail.get("txn") == txn.id:
                self.aborts += 1
                self.undo_entries += item.detail["undo"]
                return
        self.fail(f"no txn.abort audit record for transaction {txn.id}")

    def note_checkpoint(self) -> None:
        """Untimed: the image's size and the sampled roots' live values,
        for :meth:`verify_checkpoints`.  The reload waits until the timing
        ends, because a fresh database bumps the process-global schema
        epoch and would make the live database recompile its plans."""
        path = self.checkpoint_path
        self.image_bytes.append(os.path.getsize(path) / self.db.count())
        sampled = {root.surrogate.value: [root.get_member(name)
                                          for name in self.CHECKPOINT_MEMBERS]
                   for root in self.roots[:: max(1, len(self.roots) // 5)]}
        self.checkpoint_notes.append((self.checkpoints, path, sampled))

    def verify_checkpoints(self) -> None:
        """Every checkpoint image reloads into a fresh database whose dump
        equals the image, and the sampled roots read the values they had
        live when the checkpoint was taken."""
        r = self.r
        for number, path, sampled in self.checkpoint_notes:
            with open(path) as f:
                image = json.load(f)
            fresh = r.Database("design_session")
            r.load_gate_schema(fresh.catalog)
            r.persistence.load_image(image, fresh)
            if r.persistence.dump_image(fresh) != image:
                self.fail(f"checkpoint {number} does not round-trip")
            reloaded = {obj.surrogate.value: obj for obj in fresh.objects()}
            for value, live in sampled.items():
                twin = reloaded.get(value)
                for name, want in zip(self.CHECKPOINT_MEMBERS, live):
                    if twin is None or twin.get_member(name) != want:
                        self.fail(f"checkpoint {number}: @{value}.{name} differs")
            os.unlink(path)
        self.checkpoint_notes = []

    def finish(self) -> None:
        for designer, txn in enumerate(self.txns):
            if txn is not None:
                txn.abort()
                self.end_txn(designer)
        violations = self.r.integrity.check_integrity(self.db)
        if violations:
            self.fail(f"check_integrity: {len(violations)} violations")
        self.verify_checkpoints()

    def stats(self) -> Dict[str, Any]:
        return {"audit": {"appended": self.db.obs.audit.appended},
                "locks": {"conflicts": self.db.obs.metrics.value("locks.conflicts", 0)}}


WORKLOADS = {"library_edit": LibraryEdit, "catalog_query": CatalogQuery,
             "design_session": DesignSession}


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


class GcCounter:
    """A ``gc.callbacks`` hook counting the collections that start while
    ``timing`` is set, i.e. inside timed ops, not in oracle checks."""

    def __init__(self) -> None:
        self.timing = False
        self.collections = 0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if self.timing and phase == "start":
            self.collections += 1


#: A run that takes longer than this (measured seconds) stops early.
WALL_CAP_S = 120.0


def measure(workload: Workload, ops, budget: int,
            tracer: Optional[spans.Tracer], speed: Speed) -> Dict[str, Any]:
    """Closed loop, one client: each op starts when the previous ends.

    Runs exactly ``budget`` items of the op stream (skipped designer steps
    included), so the work of a run is the same on every machine and
    counts repeat exactly for a seed.  Oracle checks and calibration are
    excluded from the measured time.
    """
    #: Per class: (elapsed, start) of each op, scaled after the loop.
    latencies: Dict[str, List[Tuple[float, float]]] = {
        "op": [], "write": [], "read": [], "query": [], "txn": [], "checkpoint": []}
    design = isinstance(workload, DesignSession)
    attempted = 0
    oracle_time = 0.0
    gc_counter = GcCounter()
    gc.callbacks.append(gc_counter)
    spent_before = speed.spent
    started = perf_counter()
    for _ in range(budget):
        op = next(ops)
        workload.prepare(op)
        if tracer is not None:
            frame = tracer.op_begin()
        gc_counter.timing = True
        t0 = perf_counter()
        try:
            cls = workload.run(op)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            cls = "error"
            workload.fail(f"{op[0]}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            if design and op[0].startswith("txn") and workload.txns[op[1]] is not None:
                workload.txns[op[1]].abort()
                workload.end_txn(op[1])
        elapsed = perf_counter() - t0
        gc_counter.timing = False
        if tracer is not None:
            tracer.op_end(frame)
        if cls is None:
            continue
        attempted += 1
        if cls != "error":
            if design and cls == "txn":
                designer = op[1]
                if op[0] == "txn_begin":
                    workload.txn_start[designer] = t0
                workload.txn_time[designer] += elapsed
                finished = (op[0] == "txn_end" or workload.txns[designer] is None)
                if finished:
                    workload.txn_latencies.append(
                        (workload.txn_time[designer], workload.txn_start[designer]))
                    workload.txn_time[designer] = 0.0
            latencies[cls].append((elapsed, t0))
            latencies["op"].append((elapsed, t0))
            c0 = perf_counter()
            if tracer is not None:
                tracer.active = False
            workload.check(op)
            if tracer is not None:
                tracer.active = True
            if design and op[0] == "txn_end":
                workload.end_txn(op[1])
            oracle_time += perf_counter() - c0
        speed.maybe()
        if perf_counter() - started - oracle_time > WALL_CAP_S:
            workload.fail(f"stopped after {attempted} ops: over {WALL_CAP_S} s")
            break
    measured = perf_counter() - started - oracle_time - (speed.spent - spent_before)
    gc.callbacks.remove(gc_counter)
    return {"latencies": latencies, "attempted": attempted,
            "measured_s": measured, "oracle_s": oracle_time,
            "gc_collections": gc_counter.collections}


def summarise(workload: Workload, loop: Dict[str, Any],
              factor_at: Callable[[float], float]) -> Dict[str, Any]:
    """Class latencies, ratios and sample counts of one measured loop;
    each time scaled to the reference machine by the speed factor of the
    window it was measured in (see Speed)."""
    lat = {cls: [elapsed * factor_at(start) for elapsed, start in values]
           for cls, values in loop["latencies"].items()}
    raw = sum(elapsed for elapsed, _ in loop["latencies"]["op"])
    scaled = loop["measured_s"] * (sum(lat["op"]) / raw if raw else 1.0)
    out: Dict[str, Any] = {
        "ops_per_s": loop["attempted"] / scaled,
        "samples": {cls: len(values) for cls, values in lat.items()},
    }

    def put(name: str, values: List[float], q: float, scale: float) -> None:
        if values:
            out[name] = _percentile(values, q) * scale

    put("op_p50_us", lat["op"], 50, 1e6)
    put("op_p95_us", lat["op"], 95, 1e6)
    put("op_p99_us", lat["op"], 99, 1e6)
    put("write_p50_us", lat["write"], 50, 1e6)
    put("write_p95_us", lat["write"], 95, 1e6)
    put("write_p99_us", lat["write"], 99, 1e6)
    put("read_p50_us", lat["read"], 50, 1e6)
    put("read_p95_us", lat["read"], 95, 1e6)
    put("read_p99_us", lat["read"], 99, 1e6)
    put("query_p50_ms", lat["query"], 50, 1e3)
    put("query_p95_ms", lat["query"], 95, 1e3)
    if lat["checkpoint"]:
        out["checkpoint_s"] = statistics.median(lat["checkpoint"])
    if isinstance(workload, DesignSession):
        txns = [total * factor_at(start) for total, start in workload.txn_latencies]
        put("txn_p50_ms", txns, 50, 1e3)
        put("txn_p95_ms", txns, 95, 1e3)
        out["samples"]["txn"] = len(workload.txn_latencies)
        out["refused_ratio"] = workload.refused / max(1, workload.attempted_txns)
        if workload.image_bytes:
            out["image_bytes_per_object"] = statistics.median(workload.image_bytes)
    out["error_ratio"] = workload.failed / max(1, loop["attempted"])
    return out


def layer_metrics(workload: Workload, tracer: spans.Tracer,
                  before: Dict[str, Any], after: Dict[str, Any],
                  stats_before: Dict[str, Any], stats_after: Dict[str, Any],
                  loop: Dict[str, Any], setup_load_ns: int) -> Dict[str, float]:
    ops = loop["attempted"]
    out = spans.per_op(before, after)
    writes = max(1, workload.writes)

    def stat_delta(group: str, key: str) -> float:
        if group not in stats_after:
            return 0.0
        return stats_after[group].get(key, 0) - stats_before[group].get(key, 0)

    out["query.views.cells_refreshed_per_write"] = (
        stat_delta("views", "query.view.refreshes") / writes)
    out["query.indexes.entries_refreshed_per_write"] = (
        stat_delta("indexes", "index.maintenance") / writes)
    parse = stats_after["parse"]
    hits = parse["hits"] - stats_before["parse"]["hits"]
    misses = parse["misses"] - stats_before["parse"]["misses"]
    out["query.parse.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["expr.compiled_programs"] = float(stats_after["compiled"])
    out["query.rows_examined_per_row_returned"] = (
        workload.query_examined / workload.query_rows if workload.query_rows else 0.0)
    out["core.resolution.plans_compiled"] = float(
        stats_after["plans"] - stats_before["plans"])
    design = isinstance(workload, DesignSession)
    out["txn.locks.conflicts_per_txn"] = (
        stat_delta("locks", "conflicts") / max(1, workload.attempted_txns)
        if design else 0.0)
    out["txn.abort.undo_entries_per_abort"] = (
        workload.undo_entries / workload.aborts if design and workload.aborts else 0.0)
    out["obs.audit.records_per_op"] = stat_delta("audit", "appended") / ops
    out["runtime.gc.collections_per_kop"] = loop["gc_collections"] / ops * 1000
    out["engine.persistence.load.setup_ms"] = setup_load_ns / 1e6
    return out


def engine_stats(workload: Workload) -> Dict[str, Any]:
    r = workload.r
    info = r.parser._parse_cached.cache_info()
    stats = {"parse": {"hits": info.hits, "misses": info.misses},
             "compiled": r.cache_stats()["expr.compiled"],
             "plans": r.resolution_stats()["resolution.plans_compiled"]}
    stats.update(workload.stats())
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["image", "setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(gen.SCALES))
    parser.add_argument("--ops", type=int, default=None,
                        help="op-stream items to run (measure mode)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--rundir", required=True)
    args = parser.parse_args(argv)

    spec = gen.SPECS[args.workload](args.seed, args.scale)
    image = os.path.join(args.rundir, "design.json")
    manifest_path = os.path.join(args.rundir, "design-manifest.json")
    if args.mode == "image":
        manifest = build_design_image(spec, image)
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        print(json.dumps({"objects": manifest["objects"]}))
        return 0
    if args.mode == "measure" and args.ops is None:
        parser.error("measure needs --ops")
    if args.workload == "design_session":
        args.image = image
        with open(manifest_path) as f:
            args.manifest = json.load(f)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    arena = make_arena()
    # Only the nodes stay; the engine reuses the memory of the temporaries.
    arena_mb = ARENA_NODES * sys.getsizeof(arena) / 2**20
    speed = Speed(arena)
    speed.sample(5)
    workload = WORKLOADS[args.workload](args, spec, speed)
    spent = speed.spent
    started = perf_counter()
    workload.setup()
    speed.sample(5)
    setup_s = (perf_counter() - started - (speed.spent - spent)) * speed.factor()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = gen.op_stream(args.workload, args.seed, spec)
    gc.collect()
    before = tracer.snapshot() if tracer is not None else None
    stats_before = engine_stats(workload)
    loop_speed = Speed(arena)
    loop_speed.sample(5)
    loop = measure(workload, ops, args.ops, tracer, loop_speed)
    loop_speed.sample(5)
    if tracer is not None:
        tracer.active = False
    stats_after = engine_stats(workload)
    # The peak before the end-of-run oracles, which load databases of
    # their own; the calibration arena is the benchmark's, not the engine's.
    rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - arena_mb
    workload.finish()
    factor = loop_speed.factor()
    result: Dict[str, Any] = summarise(workload, loop, loop_speed.local())
    result.update(setup_s=setup_s, attempted=loop["attempted"],
                  failed=workload.failed, failures=workload.failures,
                  measured_s=loop["measured_s"], oracle_s=loop["oracle_s"],
                  speed_factor=factor, speed_probes=loop_speed.means(),
                  rss_peak_mb=rss_peak_mb)
    if tracer is not None:
        load_ns = tracer.self_ns["engine.persistence.load"]
        result["layers"] = layer_metrics(
            workload, tracer, before, tracer.snapshot(), stats_before, stats_after,
            loop, load_ns)
        result["layers"]["bench.speed_factor"] = factor
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
