"""Materialized inherited-relation views: flattened per-type extents.

Litwin's *stored and inherited relations* (PAPERS.md) are relations whose
tuples mix stored attributes with attributes inherited from other
relations — almost exactly this paper's permeability mechanism, stated
relationally.  This module materializes that construct over the engine's
type extents:

* :class:`TypeView` — one **flattened table per concrete type**: one row
  per live object of the type, one *pointer column* per inherited member
  (``MemberEntry.rels`` non-empty).  Stored members need no view column —
  they already live in the type's :class:`~repro.core.slots.TypeStore`
  slots, and the generated view scan reads both side by side.  View rows
  are **aligned with the store** (a row lives at the object's own
  storage row, ``obj._row``).  A cell is not a copy of the inherited
  value but Litwin's *link to the source relation*: the holder store's
  column list (a reference) and the holder's row — the columnar form of
  ``get_member``'s holder memo.  The scan gathers ``src[row][hrow[row]]``,
  so it reads exactly what a bare-name read sees, live.

* :class:`ViewManager` — attached as ``Database.views``; builds views
  lazily when the planner routes to them and moves pointers off the same
  event stream and epochs the :class:`~repro.query.indexes.IndexManager`
  validates against, on the bus's maintainer tier (joined at the first
  view build; it runs after index maintenance and before any user
  subscriber).  **Transmitter writes touch no view**: the pointed-at
  cell changes in place.  Pointers move only when resolution does:

  - ``inheritor_bound`` / ``inheritor_unbound`` repoint the whole row of
    everything in the subject's downstream subtree;
  - adopt/forget hooks add and drop rows synchronously, and a forgotten
    holder taints the rows still pointing at it;
  - a restore that empties a pointed-at holder cell (``UNSET``) moves
    its rows to live cells, which read the holder entry's default;
  - a **schema-epoch bump** invalidates the view as a whole; the next
    routing rebuilds it lazily (the ``query.view.staleness`` counter and
    each view's ``staleness`` attribute count these rebuilds).

* **Planner routing** — :meth:`ViewManager.try_scan` is called by the
  executor for full-scan plans whose ``where`` touches at least one
  view-covered inherited member.  The predicate compiles (once per view
  generation, kept while its AST lives) through :class:`_ViewCodegen`, a
  :class:`~repro.expr.compile._Codegen` subclass that emits inherited
  reads as pointer gathers against the view columns instead of the
  per-object member-protocol closure.  EXPLAIN shows ``view`` as the
  access path; ``run_query(..., views=False)`` keeps the live path as
  the differential oracle.

Rows a pointer cannot express — a chain through a relationship
participant (no memoised holder), an overflow-stored name, an empty
holder cell — hold a *live cell* that resolves through ``get_member`` on
each gather; a name that resolves to its own label literal holds that
literal.

Error parity: a cell that fails to resolve for any reason other than the
label convention **taints** its row, and a tainted view refuses to serve
scans — the live path then reproduces the exact error.  Likewise the
generated scan bails out (``None``) on heterogeneous candidates or a raw
comparison ``TypeError``, exactly like the slot-scan of
:mod:`repro.expr.compile`, and the executor re-runs on the live path.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core import resolution as _resolution
from ..core.slots import UNSET
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

#: "Not computed since pointers last moved" (see TypeView.shared_source).
_UNKNOWN: Any = object()


def view_eligible_names(plan: Any) -> List[str]:
    """The members of ``plan`` a per-type view can materialize."""
    return [
        name
        for name, entry in plan.entries.items()
        if entry.rels and entry.kind in _ELIGIBLE_KINDS
    ]


class _LiveCell:
    """A cell a pointer cannot express: each gather resolves it live.

    Indexable like a one-element column (the view's row index into it is
    0).  A resolution error other than the label convention surfaces as
    ``IndexError``, which makes the generated scan bail to the live path —
    and the live path raises the real error.
    """

    __slots__ = ("obj", "name")

    def __init__(self, obj: Any, name: str) -> None:
        self.obj = obj
        self.name = name

    def __getitem__(self, _row: int) -> Any:
        try:
            return self.obj.get_member(self.name)
        except (KeyError, UnknownAttributeError):
            return self.name
        except Exception as exc:  # noqa: BLE001 — bail, live path re-raises
            raise IndexError(self.name) from exc


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
        view = self.view
        col = view.col_of.get(identifier)
        if col is not None:
            participants = getattr(self.type, "participants", None)
            if not (participants and identifier in participants):
                if identifier not in self.used:
                    self.used.append(identifier)
                hrow = self._const("h", view.hrow[col])
                shared = view.shared_source(col)
                if shared is not None:
                    # Every row points into one holder column: skip the
                    # per-row source load.
                    return f"{self._const('c', shared)}[{hrow}[row]]", False, False
                src = self._const("s", view.src[col])
                return f"{src}[row][{hrow}[row]]", False, False
        return super()._emit_name(identifier)


def _build_view_scan(node: Node, view: "TypeView", obs: Any = None) -> _ViewProgram:
    """Generate the batch filter loop of ``node`` over ``view``'s rows.

    Same shape as the slot scan of :func:`repro.expr.compile._build`:
    raw comparisons (``fast_cmp``), deleted objects dropped and counted,
    bail to ``None`` on a foreign type, a naked ``TypeError``, or an
    ``IndexError`` from a row the view never grew to — the caller then
    re-runs on the live path, which reproduces interpreter semantics
    (and errors) exactly.  View rows are addressed by ``obj._row``, the
    same index the stored-slot reads use: a live object's storage row is
    stable for its lifetime, so no surrogate lookup is needed.  Each
    inherited read gathers through the row's pointer,
    ``src[row][hrow[row]]``.
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
        "src",
        "hrow",
        "row_of",
        "tainted",
        "staleness",
        "generation",
        "_programs",
        "_labels",
        "_shared",
        "_held",
    )

    def __init__(self, type_: Any, names: List[str], staleness: int = 0) -> None:
        self.type = type_
        #: Schema epoch of the layout; the manager drops-and-rebuilds the
        #: whole view when it goes stale (same lifecycle as value indexes).
        self.schema_epoch = _resolution.schema_epoch()
        self.names = list(names)
        self.col_of: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        #: Pointer columns, store-aligned: the cell of ``obj`` in column
        #: ``c`` is ``src[c][obj._row][hrow[c][obj._row]]`` — the holder
        #: store's column list (a reference, not a copy) and the holder's
        #: row.  The lists are identity-stable for the view's lifetime
        #: (compiled scans close over them) and grow on demand to cover
        #: the highest storage row seen; a recycled row is simply
        #: repointed by :meth:`add`.
        self.src: List[List[Any]] = [[] for _ in self.names]
        self.hrow: List[List[int]] = [[] for _ in self.names]
        #: surrogate -> storage row at adoption time.  Not on the scan
        #: path (the scan reads ``obj._row`` directly); kept because at
        #: forget time the object's ``_row`` is already spilled to -1.
        self.row_of: Dict[Any, int] = {}
        #: Surrogates whose last resolution raised something other than
        #: the label convention (or whose holder was forgotten); a tainted
        #: view refuses to serve scans so the live path can reproduce the
        #: error.
        self.tainted: Set[Any] = set()
        #: Epoch rebuilds this view's type has seen (carried across
        #: rebuilds by the manager; surfaced per query.view.staleness).
        self.staleness = staleness
        #: Bumped when a pointer write breaks a shared column that
        #: programs gather from directly (see shared_source).
        self.generation = 0
        #: where-node -> (generation, program): weak-keyed, so a program
        #: lives while its AST does (it never closes over its root node)
        #: and dies with the view, never outliving the columns it reads.
        self._programs: Any = weakref.WeakKeyDictionary()
        #: Per column, the one-element list a label-literal row points at.
        self._labels: List[List[Any]] = [[name] for name in self.names]
        #: Per column, the source list every row points into (None: rows
        #: differ), as last computed for the compiled programs; _UNKNOWN
        #: once a pointer write may have changed the answer.
        self._shared: List[Any] = [_UNKNOWN] * len(self.names)
        #: (id(holder column), holder row) -> {row surrogate: row object}:
        #: the rows with a direct pointer into each holder cell.
        self._held: Dict[Tuple[int, int], Dict[Any, Any]] = {}

    def __len__(self) -> int:
        return len(self.row_of)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<TypeView {self.type.name} epoch={self.schema_epoch} "
            f"cols={len(self.names)} rows={len(self.row_of)}>"
        )

    # -- pointers ------------------------------------------------------------

    def _pointer(self, obj: Any, col: int, name: str) -> Tuple[Any, int, bool]:
        """``(source, row, direct)`` for one cell; ``direct`` says the cell
        points into a holder store (not at a literal or a live cell).

        Resolves ``name`` once (raising for the taint rule) and reads the
        holder off the memo ``get_member`` just refreshed.
        """
        try:
            obj.get_member(name)
            label = False
        except (KeyError, UnknownAttributeError):
            label = True
        memo = obj._member_memo.get(name)
        if (memo is not None and memo[0] == _resolution.schema_epoch()
                and memo[1] == obj._binding_epoch):
            holder = memo[2]
            if label:
                # Constant within the epoch unless a dynamic attribute
                # can appear on the holder later.
                if not getattr(holder.object_type, "allow_dynamic", False):
                    return self._labels[col], 0, False
            else:
                column = memo[5]
                if column is not None:
                    row = holder._row
                    if column[row] is not UNSET:
                        return column, row, True
        return _LiveCell(obj, name), 0, False

    def _unhold(self, surrogate: Any, row: int) -> None:
        """Forget the direct pointers ``row`` holds for ``surrogate``."""
        for col, src in enumerate(self.src):
            source = src[row]
            if type(source) is list and source is not self._labels[col]:
                key = (id(source), self.hrow[col][row])
                rows = self._held.get(key)
                if rows is not None:
                    rows.pop(surrogate, None)
                    if not rows:
                        del self._held[key]

    def _held_key(self, holder: Any, name: str) -> Tuple[int, int]:
        store = holder._store
        slot = store.slot_of.get(name)
        column = store.columns[slot] if slot is not None else None
        return id(column), holder._row

    def _fill_row(self, obj: Any, row: int) -> None:
        san = TSAN
        if san is not None:
            san.write(("view", id(self)), label=f"view:{self.type.name}")
        surrogate = obj.surrogate
        self._unhold(surrogate, row)
        try:
            for col, name in enumerate(self.names):
                source, hrow, direct = self._pointer(obj, col, name)
                shared = self._shared[col]
                if source is not shared and shared is not _UNKNOWN:
                    if shared is not None:  # programs gather from it
                        self.generation += 1
                    self._shared[col] = _UNKNOWN
                self.src[col][row] = source
                self.hrow[col][row] = hrow
                if direct:
                    self._held.setdefault((id(source), hrow), {})[surrogate] = obj
        except Exception:  # noqa: BLE001 — parity: live path must raise this
            self.tainted.add(surrogate)
        else:
            self.tainted.discard(surrogate)

    def add(self, obj: Any) -> None:
        row = obj._row
        if row < 0:  # spilled: the object is on its way out
            return
        if self.src and row >= len(self.src[0]):
            grow = row + 1 - len(self.src[0])
            for column in self.src:
                column.extend([None] * grow)
            for column in self.hrow:
                column.extend([0] * grow)
        self.row_of[obj.surrogate] = row
        self._fill_row(obj, row)

    def remove(self, obj: Any) -> None:
        """Drop ``obj``'s row.  Its pointers stay in place, unread, until
        the store recycles the row and :meth:`add` repoints it."""
        san = TSAN
        if san is not None:
            san.write(("view", id(self)), label=f"view:{self.type.name}")
        row = self.row_of.pop(obj.surrogate, None)
        self.tainted.discard(obj.surrogate)
        if row is not None:
            self._unhold(obj.surrogate, row)

    def forget_holder(self, holder: Any) -> None:
        """``holder`` is leaving the database: rows still pointing into
        its store row (about to be recycled) are tainted until repointed."""
        for name in self.names:
            rows = self._held.get(self._held_key(holder, name))
            if rows:
                san = TSAN
                if san is not None:
                    san.write(("view", id(self)), label=f"view:{self.type.name}")
                self.tainted.update(s for s in rows if s != holder.surrogate)

    def rows_held_by(self, holder: Any, name: str) -> List[Any]:
        """The row objects pointing straight at ``holder``'s ``name`` cell."""
        return list(self._held.get(self._held_key(holder, name), {}).values())

    def refresh_object(self, obj: Any) -> bool:
        """Repoint a whole row (resolution moved under the object)."""
        row = self.row_of.get(obj.surrogate)
        if row is None:
            return False
        self._fill_row(obj, row)
        return True

    def cell(self, obj: Any, name: str) -> Any:
        """The value ``obj``'s row gathers for ``name`` (diagnostics)."""
        col = self.col_of[name]
        row = self.row_of[obj.surrogate]
        return self.src[col][row][self.hrow[col][row]]

    def shared_source(self, col: int) -> Any:
        """The source list every live row of ``col`` points into, or None.

        Programs compiled from the answer gather from it directly; the
        first pointer write that breaks it retires them by bumping
        ``generation`` (see :meth:`_fill_row`).  Recomputed only after
        pointers moved.
        """
        shared = self._shared[col]
        if shared is _UNKNOWN:
            src = self.src[col]
            shared = None
            for row in self.row_of.values():
                source = src[row]
                if shared is None:
                    shared = source
                elif source is not shared:
                    shared = None
                    break
            self._shared[col] = shared
        return shared

    # -- compiled scans --------------------------------------------------------

    def program_for(self, node: Node, obs: Any = None) -> _ViewProgram:
        hit = self._programs.get(node)
        if hit is not None and hit[0] == self.generation:
            return hit[1]
        program = _build_view_scan(node, self, obs)
        self._programs[node] = (self.generation, program)
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
        for view in self._views.values():
            view.forget_holder(obj)

    # -- event-driven maintenance (the maintainer tier) ------------------------

    def _on_attribute_event(self, event: Any) -> None:
        # A write changes a holder cell in place and every row pointing at
        # it reads the new value: transmitter writes move no pointer.  Only
        # a restore can empty a cell, and an empty (UNSET) cell must read
        # through the holder's default, which a live cell does.
        if event.kind != "attribute_restored" or not self._views:
            return
        subject = event.subject
        name = event.data.get("attribute")
        if name is None or subject._local_value(name, UNSET) is not UNSET:
            return
        epoch = _resolution.schema_epoch()
        for view in list(self._views.values()):
            if view.schema_epoch != epoch or name not in view.col_of:
                continue
            for target in view.rows_held_by(subject, name):
                if view.refresh_object(target):
                    self._refreshed(view, target, event.kind)

    def _on_container_event(self, event: Any) -> None:
        # Container-valued members resolve through live cells (a pointer
        # needs a stored holder slot), so container changes move nothing.
        return

    def _on_binding_event(self, event: Any) -> None:
        if not self._views:
            return
        # A topology change can re-route every inherited member below the
        # subject: repoint whole rows for the downstream subtree.
        epoch = _resolution.schema_epoch()
        for target in _with_inheritors(event.subject):
            view = self._views.get(target.object_type)
            if view is None or view.schema_epoch != epoch:
                continue
            if target._deleted:
                view.remove(target)
                continue
            if view.refresh_object(target):
                self._refreshed(view, target, event.kind)

    def _refreshed(self, view: TypeView, target: Any, reason: str) -> None:
        self._bump("query.view.refreshes")
        self._audit("view.maintenance", target, view=view.type.name,
                    reason=reason)
