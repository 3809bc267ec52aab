"""Slotted per-type attribute storage.

Before this module, every :class:`~repro.core.objects.DBObject` stored its
local attribute values in a per-instance dict.  That is flexible but slow
to scan: an unindexed query or constraint sweep over 50k objects pays a
hash probe per attribute per object, and the values of one attribute are
scattered across 50k dicts.

Here the storage is *columnar per type* — Litwin's stored/inherited
relation layout applied at the instance level:

* :class:`TypeStore` — one store per type, holding a **column table**: one
  Python list (column) per declared attribute, plus a **slot-index map**
  from attribute name to column index.  The layout is compiled from the
  type's :class:`~repro.core.resolution.ResolutionPlan` (the plan already
  knows every member; ``MemberEntry.slot`` is the column index), so the
  plan remains the single layout authority.
* Objects hold a **row index** into the columns (``DBObject._row``).  A
  cell holds :data:`UNSET` when the object has no local value — exactly
  the old dict-miss.
* **Epoch lifecycle**: the store records the schema epoch of its layout.
  On a schema-epoch bump the layout is recompiled lazily on next access
  (:meth:`TypeStore.refresh`); live objects migrate in place because
  columns move *by name* — values survive, and names that left the
  declared layout keep their columns (matching dict semantics, where a
  stored value outlives schema evolution).
* **Dynamic attributes** (types with ``allow_dynamic``) and values of
  deleted objects live in a per-object ``_overflow`` dict — the escape
  hatch for everything without a declared slot.
* **Raw access** to one object's cells is two methods on
  :class:`~repro.core.objects.DBObject`: ``_local_value(name, default)``
  and ``_write_cell(name, value)`` (``UNSET`` clears; returns the prior
  cell).  Both touch storage only — **no validation, no events, no epoch
  bumps**; restores go through ``DBObject._restore_attribute``, which
  adds the epoch bump and the ``attribute_restored`` event.

Row recycling: deleting an object spills its non-UNSET cells into the
object's overflow dict and releases the row to a free list — a deleted
object keeps reporting its last local values (as dicts did), while the
column table stays dense for the batch executor.
"""

from __future__ import annotations

from typing import Any, Dict, List

from . import resolution as _resolution
from .interning import intern_name

__all__ = ["UNSET", "TypeStore", "store_for"]

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.  Call sites pay one global load + branch
#: when dark — the slowlog guard idiom.  ``DBObject._write_cell`` reads it
#: here too, for its per-cell write hook.
TSAN: Any = None


class _UnsetType:
    """Sentinel for "no local value in this cell" (never leaks to users)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<UNSET>"


#: The one cell sentinel.  Identity-compared everywhere (``is UNSET``).
UNSET: Any = _UnsetType()


class TypeStore:
    """The column table of one type: slot arrays + slot-index map."""

    __slots__ = ("type", "epoch", "names", "slot_of", "columns", "free", "capacity")

    def __init__(self, type_: Any, plan: Any) -> None:
        self.type = type_
        #: Schema epoch of the current layout; checked (one integer
        #: compare) on every access, refreshed lazily when stale.
        self.epoch: int = plan.schema_epoch
        names: List[str] = [intern_name(n) for n in plan.attribute_names]
        #: Column index -> attribute name (slot order of the plan).
        self.names = names
        #: Attribute name -> column index.  Interned keys: probes with
        #: parsed-query identifiers short-circuit on identity.
        self.slot_of: Dict[str, int] = {n: i for i, n in enumerate(names)}
        #: One column (Python list) per slot; cells default to UNSET.
        self.columns: List[List[Any]] = [[] for _ in names]
        self.free: List[int] = []
        self.capacity = 0

    # -- row lifecycle -------------------------------------------------------

    def alloc(self) -> int:
        """A fresh (or recycled) row with every cell UNSET."""
        san = TSAN
        if san is not None:
            san.write(("store", id(self)), label=f"store:{self.type.name}")
        free = self.free
        if free:
            return free.pop()
        row = self.capacity
        self.capacity = row + 1
        for column in self.columns:
            column.append(UNSET)
        return row

    def spill_row(self, row: int) -> Dict[str, Any]:
        """Release ``row``, returning its live cells ``{name: value}``.

        Called on object deletion: the values move to the object's
        overflow dict so deleted objects keep reporting their last local
        state, while the row is recycled for new objects.
        """
        san = TSAN
        if san is not None:
            san.write(("store", id(self)), label=f"store:{self.type.name}")
        spilled: Dict[str, Any] = {}
        for name, column in zip(self.names, self.columns):
            value = column[row]
            if value is not UNSET:
                spilled[name] = value
                column[row] = UNSET
        self.free.append(row)
        return spilled

    # -- layout lifecycle ----------------------------------------------------

    def refresh(self, plan: Any) -> None:
        """Adopt ``plan``'s layout; live rows migrate in place, by name.

        Columns are *moved*, never copied: a name present in both layouts
        keeps its column list object (so per-object values survive with
        zero copying), new names get fresh UNSET columns, and names no
        longer declared keep trailing slots — a stored value outlives
        schema evolution exactly as it did in the dict regime.
        """
        if self.epoch == plan.schema_epoch:
            return
        san = TSAN
        if san is not None:
            san.write(("store", id(self)), label=f"store:{self.type.name}")
        old_slot_of = self.slot_of
        old_columns = self.columns
        names = [intern_name(n) for n in plan.attribute_names]
        known = set(names)
        for name in self.names:
            if name not in known:
                names.append(name)
                known.add(name)
        columns: List[List[Any]] = []
        for name in names:
            old_slot = old_slot_of.get(name)
            if old_slot is None:
                columns.append([UNSET] * self.capacity)
            else:
                columns.append(old_columns[old_slot])
        self.names = names
        self.slot_of = {n: i for i, n in enumerate(names)}
        self.columns = columns
        self.epoch = plan.schema_epoch

    # -- introspection -------------------------------------------------------

    def live_rows(self) -> int:
        """Rows currently assigned to objects (capacity minus free list)."""
        return self.capacity - len(self.free)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<TypeStore {self.type.name} epoch={self.epoch} "
            f"slots={len(self.names)} rows={self.live_rows()}>"
        )


def store_for(type_: Any, obs: Any = None) -> TypeStore:
    """The current store of ``type_``, building/refreshing lazily.

    Steady state costs one attribute load and one integer compare (same
    contract as :func:`repro.core.resolution.plan_for`).
    """
    store = type_._store
    if store is None:
        store = TypeStore(type_, _resolution.plan_for(type_, obs))
        type_._store = store
    elif store.epoch != _resolution._SCHEMA_EPOCH:
        store.refresh(_resolution.plan_for(type_, obs))
    return store
