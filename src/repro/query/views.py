"""Materialized inherited-relation views: flattened per-type extents.

Litwin's *stored and inherited relations* (PAPERS.md) are relations whose
tuples mix stored attributes with attributes inherited from other
relations — almost exactly this paper's permeability mechanism, stated
relationally.  This module materializes that construct over the engine's
type extents:

* :class:`TypeView` — one **flattened table per concrete type**: one row
  per live object of the type, one contiguous column per *inherited*
  member (``MemberEntry.rels`` non-empty).  Stored members need no view
  column — they already live in the type's
  :class:`~repro.core.slots.TypeStore` slots, and the generated view scan
  reads both side by side.  View columns are **aligned with the store**:
  a cell lives at the object's own storage row (``obj._row``), so the
  scan addresses it with the row index it already loaded for stored
  slots — no per-object hash lookup on the hot path.  A cell holds
  exactly what a bare-name read would see: ``get_member`` through the
  transmitter chain, with the unresolved-as-literal label convention.

* :class:`ViewManager` — attached as ``Database.views``; builds views
  lazily when the planner routes to them and maintains them
  **incrementally** off the same event stream and epochs the
  :class:`~repro.query.indexes.IndexManager` validates against, on the
  bus's maintainer tier (joined at the first view build; it runs after
  index maintenance and before any user subscriber):

  - ``attribute_updated`` / ``attribute_restored`` (the raw-restore path:
    txn abort, version revert, merge apply) re-extract the named column
    for the subject *and its transitive inheritors*;
  - ``inheritor_bound`` / ``inheritor_unbound`` re-extract the whole row
    of everything in the subject's downstream subtree;
  - ``subobject_added``/``…_removed`` and ``relationship_created``/
    ``…_removed`` re-extract inherited *container* cells the same way;
  - adopt/forget hooks add and drop rows synchronously;
  - a **schema-epoch bump** invalidates the view as a whole; the next
    routing rebuilds it lazily (the ``query.view.staleness`` counter and
    each view's ``staleness`` attribute count these rebuilds).

* **Planner routing** — :meth:`ViewManager.try_scan` is called by the
  executor for full-scan plans whose ``where`` touches at least one
  view-covered inherited member.  The predicate compiles (once per view
  generation) through :class:`_ViewCodegen`, a
  :class:`~repro.expr.compile._Codegen` subclass that emits inherited
  reads as ``column[vrow]`` against the view columns instead of the
  per-object member-protocol closure.  EXPLAIN shows ``view`` as the
  access path; ``run_query(..., views=False)`` keeps the live path as
  the differential oracle.

Error parity: a cell that fails to extract for any reason other than the
label convention **taints** its row, and a tainted view refuses to serve
scans — the live path then reproduces the exact error.  Likewise the
generated scan bails out (``None``) on heterogeneous candidates or a raw
comparison ``TypeError``, exactly like the slot-scan of
:mod:`repro.expr.compile`, and the executor re-runs on the live path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core import resolution as _resolution
from ..errors import UnknownAttributeError
from ..expr.ast import Binary, Name, Node, Path, Unary
from ..expr.compile import _Codegen
from .indexes import IndexManager

__all__ = ["TypeView", "ViewManager", "view_eligible_names"]

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.
TSAN: Any = None

#: Member-entry kinds a view column can materialize.  ``attribute`` with
#: rels is the declared inherited attribute (interface data flattened
#: into the implementation row); ``inherited`` is the synthetic entry for
#: permeable names the inheritor type does not itself declare.  Container
#: kinds (``subclass``/``subrel``) reached through inheritance resolve to
#: live member lists per object and stay on the live path — the REP505
#: advisory names them.
_ELIGIBLE_KINDS = ("attribute", "inherited")

_with_inheritors = IndexManager._with_inheritors


def view_eligible_names(plan: Any) -> List[str]:
    """The members of ``plan`` a per-type view can materialize."""
    return [
        name
        for name, entry in plan.entries.items()
        if entry.rels and entry.kind in _ELIGIBLE_KINDS
    ]


def _extract_cell(obj: Any, name: str) -> Any:
    """What a bare-name read of ``name`` on ``obj`` evaluates to.

    Mirrors the compiled member fallback (and ``Name.evaluate`` with the
    default ``unresolved_as_literal``): unresolvable names evaluate as
    their own spelling — the paper's unquoted enum-label convention.
    Any *other* exception propagates; the caller taints the row.
    """
    try:
        return obj.get_member(name)
    except (KeyError, UnknownAttributeError):
        return name


class _ViewProgram:
    """One compiled view scan: the generated loop + the columns it used."""

    __slots__ = ("scan", "used", "source")

    def __init__(
        self,
        scan: Callable[[Any], Optional[Tuple[int, List[Any]]]],
        used: Tuple[str, ...],
        source: str,
    ) -> None:
        self.scan = scan
        #: View columns the program actually reads; empty means the
        #: predicate compiled without touching the view (routing refuses).
        self.used = used
        self.source = source


class _ViewCodegen(_Codegen):
    """Codegen that serves covered inherited members from view columns."""

    def __init__(self, view: "TypeView", obs: Any = None) -> None:
        super().__init__(view.type, obs)
        self.view = view
        self.used: List[str] = []

    def _emit_name(self, identifier: str) -> Tuple[str, bool, bool]:
        col = self.view.col_of.get(identifier)
        if col is not None:
            participants = getattr(self.type, "participants", None)
            if not (participants and identifier in participants):
                if identifier not in self.used:
                    self.used.append(identifier)
                column = self._const("v", self.view.columns[col])
                return f"{column}[row]", False, False
        return super()._emit_name(identifier)


def _build_view_scan(node: Node, view: "TypeView", obs: Any = None) -> _ViewProgram:
    """Generate the batch filter loop of ``node`` over ``view``'s rows.

    Same shape as the slot scan of :func:`repro.expr.compile._build`:
    raw comparisons (``fast_cmp``), deleted objects dropped and counted,
    bail to ``None`` on a foreign type, a naked ``TypeError``, or an
    ``IndexError`` from a row the view never grew to — the caller then
    re-runs on the live path, which reproduces interpreter semantics
    (and errors) exactly.  View cells are addressed by ``obj._row``,
    the same index the stored-slot reads use: a live object's storage
    row is stable for its lifetime, so no surrogate lookup is needed.
    """
    gen = _ViewCodegen(view, obs)
    gen.fast_cmp = True
    fast, fast_bool, _ = gen.emit(node)
    fast_pred = fast if fast_bool else f"truthy({fast})"
    source = (
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
        "    except (TypeError, IndexError):\n"
        "        return None\n"
        "    return (total - dropped, matched)\n"
    )
    env = gen.env
    env["_scan_type"] = view.type
    exec(compile(source, f"<view:{view.type.name}>", "exec"), env)
    return _ViewProgram(env["_scan"], tuple(gen.used), source)


class TypeView:
    """The flattened table of one concrete type's inherited members."""

    __slots__ = (
        "type",
        "schema_epoch",
        "names",
        "col_of",
        "columns",
        "row_of",
        "tainted",
        "staleness",
        "_programs",
    )

    def __init__(self, type_: Any, names: List[str], staleness: int = 0) -> None:
        self.type = type_
        #: Schema epoch of the layout; the manager drops-and-rebuilds the
        #: whole view when it goes stale (same lifecycle as value indexes).
        self.schema_epoch = _resolution.schema_epoch()
        self.names = list(names)
        self.col_of: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        #: Store-aligned columns: cell ``columns[c][obj._row]``.  The list
        #: objects are identity-stable for the view's lifetime — compiled
        #: scans close over them — and grow on demand to cover the highest
        #: storage row seen.  Row recycling is the store's business: when
        #: the :class:`~repro.core.slots.TypeStore` hands a freed row to a
        #: new object, :meth:`add` simply overwrites the cells in place.
        self.columns: List[List[Any]] = [[] for _ in self.names]
        #: surrogate -> storage row at adoption time.  Not on the scan
        #: path (the scan reads ``obj._row`` directly); kept because at
        #: forget time the object's ``_row`` is already spilled to -1 and
        #: removal needs to know which cells to clear.
        self.row_of: Dict[Any, int] = {}
        #: Surrogates whose last extraction raised something other than
        #: the label convention; a tainted view refuses to serve scans so
        #: the live path can reproduce the error.
        self.tainted: Set[Any] = set()
        #: Epoch rebuilds this view's type has seen (carried across
        #: rebuilds by the manager; surfaced per query.view.staleness).
        self.staleness = staleness
        #: id(where-node) -> (node, program); dies with the view, so a
        #: rebuild can never serve a scan bound to dead columns.
        self._programs: Dict[int, Tuple[Node, _ViewProgram]] = {}

    def __len__(self) -> int:
        return len(self.row_of)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<TypeView {self.type.name} epoch={self.schema_epoch} "
            f"cols={len(self.names)} rows={len(self.row_of)}>"
        )

    # -- row maintenance -----------------------------------------------------

    def _fill_row(self, obj: Any, row: int) -> None:
        san = TSAN
        if san is not None:
            san.write(("view", id(self)), label=f"view:{self.type.name}")
        surrogate = obj.surrogate
        try:
            for name, column in zip(self.names, self.columns):
                column[row] = _extract_cell(obj, name)
        except Exception:  # noqa: BLE001 — parity: live path must raise this
            self.tainted.add(surrogate)
        else:
            self.tainted.discard(surrogate)

    def add(self, obj: Any) -> None:
        row = obj._row
        if row < 0:  # spilled: the object is on its way out
            return
        if self.columns and row >= len(self.columns[0]):
            grow = row + 1 - len(self.columns[0])
            for column in self.columns:
                column.extend([None] * grow)
        self.row_of[obj.surrogate] = row
        self._fill_row(obj, row)

    def remove(self, obj: Any) -> None:
        san = TSAN
        if san is not None:
            san.write(("view", id(self)), label=f"view:{self.type.name}")
        row = self.row_of.pop(obj.surrogate, None)
        self.tainted.discard(obj.surrogate)
        if row is None:
            return
        for column in self.columns:
            column[row] = None

    def refresh_member(self, obj: Any, name: str) -> bool:
        """Re-extract one cell; True when this view tracked the object."""
        col = self.col_of.get(name)
        row = self.row_of.get(obj.surrogate)
        if col is None or row is None:
            return False
        san = TSAN
        if san is not None:
            san.write(("view", id(self)), label=f"view:{self.type.name}")
        try:
            self.columns[col][row] = _extract_cell(obj, name)
        except Exception:  # noqa: BLE001 — see _fill_row
            self.tainted.add(obj.surrogate)
        return True

    def refresh_object(self, obj: Any) -> bool:
        """Re-extract a whole row (topology changed under the object)."""
        row = self.row_of.get(obj.surrogate)
        if row is None:
            return False
        self._fill_row(obj, row)
        return True

    # -- compiled scans --------------------------------------------------------

    def program_for(self, node: Node, obs: Any = None) -> _ViewProgram:
        hit = self._programs.get(id(node))
        if hit is not None and hit[0] is node:
            return hit[1]
        program = _build_view_scan(node, self, obs)
        self._programs[id(node)] = (node, program)
        return program


class ViewManager:
    """Per-database registry, maintenance hub and router of type views.

    Attached as ``Database.views``.  Views are built on first routing once
    a source holds at least ``min_view_source`` objects (0 forces views in
    tests); ``auto = False`` disables routing entirely — the differential
    oracle mode, same contract as ``IndexManager.auto``.
    """

    def __init__(self, database: Any) -> None:
        self.database = database
        self.auto = True
        self.min_view_source = 16
        self.stats: Dict[str, int] = {
            "query.view.hits": 0,
            "query.view.misses": 0,
            "query.view.refreshes": 0,
            "query.view.staleness": 0,
        }
        self._views: Dict[Any, TypeView] = {}

    # -- statistics ------------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount
        obs = self.database.obs
        if obs is not None:
            obs.metrics.counter(key).inc(amount)

    def _audit(self, kind: str, subject: Any, **detail: Any) -> None:
        obs = self.database.obs
        if obs is not None:
            audit = obs.audit
            if audit is not None:
                audit.record(kind, subject, **detail)

    def stats_snapshot(self) -> Dict[str, int]:
        snapshot = dict(self.stats)
        snapshot["query.view.views"] = len(self._views)
        snapshot["query.view.rows"] = sum(
            len(view) for view in self._views.values()
        )
        snapshot["query.view.tainted"] = sum(
            len(view.tainted) for view in self._views.values()
        )
        return snapshot

    # -- lifecycle -------------------------------------------------------------

    def view_for(self, type_: Any) -> Optional[TypeView]:
        """The valid view of ``type_``, building (or rebuilding) lazily.

        Returns None when the type has no view-eligible members.  A
        schema-epoch bump invalidates the old view as a whole; the rebuild
        here is the lazy half of the drop-on-schema-change lifecycle and
        bumps ``query.view.staleness``.
        """
        view = self._views.get(type_)
        epoch = _resolution.schema_epoch()
        if view is not None and view.schema_epoch == epoch:
            return view
        staleness = 0
        if view is not None:
            staleness = view.staleness + 1
            self._bump("query.view.staleness")
            self._audit("view.rebuild", None, type=type_.name,
                        staleness=staleness)
            del self._views[type_]
        obs = self.database.obs
        names = view_eligible_names(_resolution.plan_for(type_, obs))
        if not names:
            return None
        view = TypeView(type_, names, staleness)
        for obj in self.database.indexes.objects_of_type(
            type_, include_subtypes=False
        ):
            if not obj._deleted:
                view.add(obj)
        self._views[type_] = view
        # Looked up at attach time (see IndexManager.ensure_value_index).
        self.database.events.attach_maintainer("views", {
            "attribute_updated": self._on_attribute_event,
            "attribute_restored": self._on_attribute_event,
            "inheritor_bound": self._on_binding_event,
            "inheritor_unbound": self._on_binding_event,
            "subobject_added": self._on_container_event,
            "subobject_removed": self._on_container_event,
            "relationship_created": self._on_container_event,
            "relationship_removed": self._on_container_event,
        })
        return view

    def drop_views(self) -> None:
        """Drop every view (they rebuild lazily on next routing)."""
        self._views.clear()

    # -- planner routing -------------------------------------------------------

    def _touches_view_member(self, where: Node, entries: Dict[str, Any]) -> bool:
        """True when ``where`` references ≥1 view-eligible inherited name.

        Walks only the node shapes the codegen serves fast (quantifier and
        aggregate subtrees evaluate interpretively either way).
        """
        stack: List[Node] = [where]
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                entry = entries.get(node.identifier)
                if (entry is not None and entry.rels
                        and entry.kind in _ELIGIBLE_KINDS):
                    return True
            elif isinstance(node, Unary):
                stack.append(node.operand)
            elif isinstance(node, Binary):
                stack.append(node.left)
                stack.append(node.right)
            elif isinstance(node, Path):
                stack.append(node.base)
        return False

    def try_scan(
        self, where: Node, candidates: List[Any], plan: Any, obs: Any = None
    ) -> Optional[Tuple[int, List[Any]]]:
        """Route a full-scan ``where`` over ``candidates`` to a view.

        Returns ``(scanned, matched)`` on success — then ``plan`` shows
        ``view`` as the access path — or None, in which case the caller
        proceeds on the live path untouched.  Quiet (no miss, no note)
        when the predicate doesn't touch an inherited member at all;
        a counted miss when a view *should* have served but couldn't.
        """
        if not self.auto or not candidates:
            return None
        if plan.source_size < self.min_view_source:
            return None
        type_ = candidates[0].object_type
        entries = _resolution.plan_for(type_, obs).entries
        if not self._touches_view_member(where, entries):
            return None
        view = self.view_for(type_)
        if view is None:
            self._bump("query.view.misses")
            return None
        if view.tainted:
            self._bump("query.view.misses")
            plan.notes.append(
                f"view {type_.name}: {len(view.tainted)} tainted row(s); "
                f"live path kept"
            )
            return None
        program = view.program_for(where, obs)
        if not program.used:
            self._bump("query.view.misses")
            return None
        outcome = program.scan(candidates)
        if outcome is None:
            self._bump("query.view.misses")
            plan.notes.append(
                f"view {type_.name}: scan bailed (mixed types or raw-compare "
                f"error); re-ran on the live path"
            )
            return None
        self._bump("query.view.hits")
        plan.access_path = "view"
        plan.notes.append(
            f"view: {type_.name} columns [{', '.join(program.used)}]"
        )
        return outcome

    # -- object-registry hooks (synchronous, from Database) ---------------------

    def object_adopted(self, obj: Any) -> None:
        if not self._views:
            return
        view = self._views.get(obj.object_type)
        if view is not None and view.schema_epoch == _resolution.schema_epoch():
            view.add(obj)
            self._bump("query.view.refreshes")

    def object_forgotten(self, obj: Any) -> None:
        if not self._views:
            return
        view = self._views.get(obj.object_type)
        if view is not None:
            view.remove(obj)

    # -- event-driven maintenance (the maintainer tier) ------------------------

    def _refresh_member_event(self, event: Any, name: str) -> None:
        epoch = _resolution.schema_epoch()
        for target in _with_inheritors(event.subject):
            view = self._views.get(target.object_type)
            if view is None or view.schema_epoch != epoch:
                continue
            if target._deleted:
                view.remove(target)
                continue
            if view.refresh_member(target, name):
                self._bump("query.view.refreshes")
                self._audit(
                    "view.maintenance", target, attribute=name,
                    view=view.type.name, reason=event.kind,
                )

    def _on_attribute_event(self, event: Any) -> None:
        if not self._views:
            return
        name = event.data.get("attribute")
        if name is not None:
            self._refresh_member_event(event, name)

    def _on_container_event(self, event: Any) -> None:
        if not self._views:
            return
        # Local containers emit with the member name under "subclass"
        # (subobjects) or "subrel" (local relationships); top-level
        # relationship events carry neither and touch no view cell.
        name = event.data.get("subclass") or event.data.get("subrel")
        if name is not None:
            self._refresh_member_event(event, name)

    def _on_binding_event(self, event: Any) -> None:
        if not self._views:
            return
        # A topology change can re-route every inherited member below the
        # subject: re-extract whole rows for the downstream subtree.
        epoch = _resolution.schema_epoch()
        for target in _with_inheritors(event.subject):
            view = self._views.get(target.object_type)
            if view is None or view.schema_epoch != epoch:
                continue
            if target._deleted:
                view.remove(target)
                continue
            if view.refresh_object(target):
                self._bump("query.view.refreshes")
                self._audit(
                    "view.maintenance", target, view=view.type.name,
                    reason=event.kind,
                )
