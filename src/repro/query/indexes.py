"""Incrementally-maintained extent and attribute-value indexes.

Every query used to be a full scan: the executor walked the whole class
extent (or, worse, ``Database.objects_of_type`` walked *every live object
in the database*) and evaluated the ``where`` expression per object.  The
paper's workloads — interface lookups, component selection over gate and
steel libraries (§4.2, §6) — are selective-read heavy, so this module
gives the read path sub-linear access paths:

* **Per-type extent index** — the :class:`IndexManager` mirrors the
  database's object registry into per-concrete-type buckets (adoption
  order preserved), so ``objects_of_type`` is O(result), not O(database).
  Subtype closures (``conforms_to`` is reachability over ``inheritor-in``
  declarations) are cached and validated against the schema epoch plus a
  type-population version.

* **Secondary value indexes** (:class:`ValueIndex`) — built lazily by the
  planner over one *source* (a class extent or a type) and one attribute:
  a hash index (value → objects) for equality and a sorted key array for
  range predicates.  Values are extracted through ``get_member``, i.e.
  with full value-inheritance semantics, so **inherited** members are
  indexable; the paper's ``select … from Implementations where Length …``
  resolves through transmitter chains and still hits the index.

Maintenance is incremental and event-driven:

* extent membership — synchronous hooks from :class:`~repro.engine.storage.Extent`;
* object lifecycle — synchronous hooks from ``Database._adopt`` /
  ``Database._forget_object``;
* value changes — ``attribute_updated`` and ``attribute_restored`` (the
  latter emitted by ``DBObject._restore_attribute``: transaction abort,
  version revert-and-reject and merge apply).  Entries are grouped by
  **holder** — the object ``get_member``'s memo resolves the attribute
  to — so a write re-extracts and moves only the group its subject
  holds: O(1) per index, whatever the number of inheritors reading
  through it (the paper's Fig. 2 argument, applied to derived state);
* topology changes — ``inheritor_bound`` / ``inheritor_unbound`` regroup
  the subject's whole downstream subtree in every value index.

The event-driven half runs on the bus's **maintainer tier** (see
:mod:`repro.engine.events`), which the manager joins when it builds its
first value index: it runs before any user subscriber, so a raising
trigger cannot leave an index behind the store.

On top of the event-driven updates, every entry records its owner's
*binding epoch* and every group its holder's *mutation epoch* (the
resolution epochs of :mod:`repro.core.resolution`), and candidates are revalidated with integer compares
at lookup time (``index.stale_repairs`` counts the self-heals).  Indexes
record the *schema epoch* they were built under and are dropped and
rebuilt lazily after any type definition or ``declare_inheritor_in``
(the drop-on-schema-change lifecycle).

The planner (:mod:`repro.query.planner`) only ever treats index lookups
as *candidate* sets: the executor re-applies the full ``where`` to every
candidate, so an index can only cause false positives (filtered out
again), never wrong rows — the correctness obligation on this module is
**no false negatives**, which the hypothesis suite in
``tests/test_indexes.py`` checks against the full-scan oracle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core import resolution as _resolution
from ..errors import UnknownAttributeError

__all__ = ["IndexManager", "ValueIndex"]

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.
TSAN: Any = None

#: Value-kind tags used to guard range sargability (mixed-kind comparisons
#: raise in the expression language, so a range scan is only offered when
#: the whole index is comparable with the literal).
KIND_NUM = 0
KIND_STR = 1
KIND_OTHER = 2


def kind_of(value: Any) -> int:
    """Classify a value for range-comparability purposes."""
    if isinstance(value, bool):
        return KIND_NUM
    if isinstance(value, (int, float)):
        return KIND_OTHER if value != value else KIND_NUM  # NaN is OTHER
    if isinstance(value, str):
        return KIND_STR
    return KIND_OTHER


def extract_value(obj: Any, attr: str) -> Any:
    """The value the expression evaluator would see for a bare ``attr``.

    Mirrors :meth:`repro.expr.context.EvalContext.lookup` +
    :meth:`repro.expr.ast.Name.evaluate` with the default
    ``unresolved_as_literal=True``: unresolved names evaluate to their own
    spelling (the paper's unquoted enum-label convention).
    """
    try:
        return obj.get_member(attr)
    except (KeyError, UnknownAttributeError):
        return attr


class _Group:
    """The indexed value of one *holder*: the object ``get_member``'s memo
    resolves the attribute to.  Every tracked object that reads the
    attribute through the same holder shares the group, so a write to the
    holder moves one group, whatever its fan-out (§4.2, Fig. 2)."""

    __slots__ = ("holder", "tie", "value", "hashable", "mutation", "members")

    def __init__(self, holder: Any, tie: int) -> None:
        self.holder = holder
        #: Unique int naming the group in its bucket and breaking rank
        #: ties in the sorted array.
        self.tie = tie
        self.value: Any = None
        self.hashable = True
        #: The holder's mutation epoch when ``value`` was extracted.
        self.mutation = -1
        #: The tracked objects reading through the holder (each entry
        #: knows its position, for O(1) removal).
        self.members: List[Any] = []


class _Entry:
    """One tracked object: its binding epoch (the topology its group was
    chosen under), its group and its position in the group."""

    __slots__ = ("obj", "binding_epoch", "group", "pos")

    def __init__(self, obj: Any, binding_epoch: int, group: _Group) -> None:
        self.obj = obj
        self.binding_epoch = binding_epoch
        self.group = group
        self.pos = len(group.members)
        group.members.append(obj)


class ValueIndex:
    """A secondary index over one attribute of one source.

    ``source_kind`` is ``"class"`` (a named extent) or ``"type"`` (all
    live conforming objects).  Values are kept per holder group (see
    :class:`_Group`): hash buckets of groups serve equality, a sorted
    ``(rank, tie)`` array serves ranges, and lookups expand the
    groups into objects.  Unhashable values (lists from subclass
    containers, etc.) live in an always-included pool, so they can never
    be missed — the residual filter decides.

    An object whose resolution ``get_member`` does not memoise (a chain
    through a relationship participant) has no known holder: it is
    *pinned* to a group of its own, re-extracted by the downstream walk
    that runs only while pinned entries exist.
    """

    __slots__ = ("manager", "source_kind", "source_name", "source_type",
                 "attr", "schema_epoch", "_entries", "_groups", "_pinned",
                 "_buckets", "_unhashable", "_sorted", "_kind_counts",
                 "_ties")

    def __init__(self, manager: "IndexManager", source_kind: str,
                 source_name: str, source_type: Any, attr: str) -> None:
        self.manager = manager
        self.source_kind = source_kind
        self.source_name = source_name
        self.source_type = source_type
        self.attr = attr
        self.schema_epoch = _resolution.schema_epoch()
        self._entries: Dict[Any, _Entry] = {}
        #: holder surrogate -> its group (pinned groups are not here).
        self._groups: Dict[Any, _Group] = {}
        #: surrogate -> entry of every pinned object.
        self._pinned: Dict[Any, _Entry] = {}
        #: value -> {tie: group}.
        self._buckets: Dict[Any, Dict[int, _Group]] = {}
        self._unhashable: Dict[int, _Group] = {}
        #: Sorted (rank, tie) pairs for comparable values.  rank is
        #: (KIND, value); the int tie keeps every element totally ordered
        #: so bisect insert/remove are exact, and finds the group in the
        #: value's bucket.
        self._sorted: List[Tuple[Tuple[int, Any], int]] = []
        self._kind_counts = [0, 0, 0]
        self._ties = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"<ValueIndex {self.source_kind}:{self.source_name}"
                f".{self.attr} n={len(self._entries)}>")

    def _write_hook(self) -> None:
        san = TSAN
        if san is not None:
            san.write(("index", id(self)),
                      label=f"index:{self.source_name}.{self.attr}")

    # -- groups ------------------------------------------------------------------

    def _place(self, group: _Group, value: Any) -> None:
        """File ``group`` under ``value`` (bucket or pool, sorted array)."""
        kind = kind_of(value)
        group.value = value
        group.hashable = True
        try:
            bucket = self._buckets.get(value)
            if bucket is None:
                bucket = self._buckets[value] = {}
            bucket[group.tie] = group
        except TypeError:
            group.hashable = False
            self._unhashable[group.tie] = group
            kind = KIND_OTHER
        if kind != KIND_OTHER:
            insort(self._sorted, ((kind, value), group.tie))
        self._kind_counts[kind] += 1
        group.mutation = group.holder._mutation_epoch

    def _unplace(self, group: _Group) -> None:
        value = group.value
        if group.hashable:
            bucket = self._buckets.get(value)
            if bucket is not None:
                bucket.pop(group.tie, None)
                if not bucket:
                    del self._buckets[value]
            kind = kind_of(value)
        else:
            self._unhashable.pop(group.tie, None)
            kind = KIND_OTHER
        if kind != KIND_OTHER:
            ranks = self._sorted
            position = bisect_left(ranks, ((kind, value), group.tie))
            if position < len(ranks) and ranks[position][1] == group.tie:
                del ranks[position]
        self._kind_counts[kind] -= 1

    def _refresh_group(self, group: _Group) -> None:
        """Re-extract one group's value through its holder and move it."""
        self._write_hook()
        value = extract_value(group.holder, self.attr)
        self._unplace(group)
        self._place(group, value)

    def refresh_holder(self, holder: Any) -> bool:
        """Re-extract the group ``holder`` supplies, if any: the O(1)
        upkeep of a write to ``holder``."""
        group = self._groups.get(holder.surrogate)
        if group is None or holder._deleted:
            return False
        self._refresh_group(group)
        return True

    # -- membership maintenance ------------------------------------------------

    def build(self, members: Iterable[Any]) -> None:
        for obj in members:
            if not obj._deleted:
                self.insert(obj)

    def insert(self, obj: Any) -> None:
        """Track ``obj`` (again), filing it under its current holder."""
        self._write_hook()
        surrogate = obj.surrogate
        if surrogate in self._entries:
            self._remove_entry(surrogate)
        value = extract_value(obj, self.attr)
        memo = obj._member_memo.get(self.attr)
        if (memo is not None and memo[0] == _resolution.schema_epoch()
                and memo[1] == obj._binding_epoch):
            holder = memo[2]
        elif obj._links_as_inheritor:
            # No memoised holder although the object inherits: its value
            # may come from anywhere upstream, so it is pinned to itself.
            holder = None
        else:
            holder = obj
        if holder is None:
            group = _Group(obj, next(self._ties))
            self._place(group, value)
        else:
            group = self._groups.get(holder.surrogate)
            if group is None:
                group = self._groups[holder.surrogate] = _Group(
                    holder, next(self._ties))
                self._place(group, value)
            elif group.mutation != holder._mutation_epoch:
                self._unplace(group)
                self._place(group, value)
        entry = _Entry(obj, obj._binding_epoch, group)
        if holder is None:
            self._pinned[surrogate] = entry
        self._entries[surrogate] = entry

    def remove(self, obj: Any) -> None:
        self._remove_entry(obj.surrogate)

    def _remove_entry(self, surrogate: Any) -> None:
        self._write_hook()
        entry = self._entries.pop(surrogate, None)
        if entry is None:
            return
        self._pinned.pop(surrogate, None)
        group = entry.group
        members = group.members
        last = members.pop()
        if entry.pos < len(members):
            members[entry.pos] = last
            self._entries[last.surrogate].pos = entry.pos
        if not members:
            self._unplace(group)
            key = group.holder.surrogate
            if self._groups.get(key) is group:
                del self._groups[key]

    def refresh_if_tracked(self, obj: Any) -> bool:
        """Regroup one object (its topology moved) if this index tracks it."""
        if obj.surrogate not in self._entries:
            return False
        if obj._deleted:
            self._remove_entry(obj.surrogate)
        else:
            self.insert(obj)
        return True

    # -- lookups ---------------------------------------------------------------

    def estimate_eq(self, key: Any) -> int:
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            bucket = None
        count = sum(len(g.members) for g in bucket.values()) if bucket else 0
        return count + sum(len(g.members) for g in self._unhashable.values())

    def lookup_eq(self, key: Any) -> List[Any]:
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            bucket = None
        candidates = [obj for group in bucket.values()
                      for obj in group.members] if bucket else []
        for group in self._unhashable.values():
            candidates.extend(group.members)
        return candidates

    def range_supported(self, key: Any) -> bool:
        """A range scan is only exact when every indexed value compares
        with the literal — otherwise the full scan's comparison error must
        be allowed to happen, so the planner falls back."""
        kind = kind_of(key)
        counts = self._kind_counts
        if counts[KIND_OTHER]:
            return False
        if kind == KIND_NUM:
            return counts[KIND_STR] == 0
        if kind == KIND_STR:
            return counts[KIND_NUM] == 0
        return False

    def _range_bounds(self, op: str, key: Any) -> Tuple[int, int]:
        rank = (kind_of(key), key)
        ranks = self._sorted
        first = lambda element: element[0]  # noqa: E731 - bisect key
        if op == ">":
            return bisect_right(ranks, rank, key=first), len(ranks)
        if op == ">=":
            return bisect_left(ranks, rank, key=first), len(ranks)
        if op == "<":
            return 0, bisect_left(ranks, rank, key=first)
        return 0, bisect_right(ranks, rank, key=first)  # "<="

    def estimate_range(self, op: str, key: Any) -> int:
        """Groups in the range times the mean group size: exact when every
        object is its own holder (stored attributes), O(log n) always."""
        low, high = self._range_bounds(op, key)
        groups = sum(self._kind_counts)
        return (high - low) * len(self._entries) // groups if groups else 0

    def lookup_range(self, op: str, key: Any) -> List[Any]:
        low, high = self._range_bounds(op, key)
        buckets = self._buckets
        return [obj for rank, tie in self._sorted[low:high]
                for obj in buckets[rank[1]][tie].members]

    def validate(self, candidates: List[Any]) -> None:
        """Self-heal: regroup any candidate whose binding epoch moved, and
        re-extract any group whose holder's mutation epoch moved (integer
        compares on the happy path; a stale group is repaired once)."""
        entries = self._entries
        repaired = 0
        for obj in candidates:
            entry = entries.get(obj.surrogate)
            if entry is None:
                continue
            group = entry.group
            if entry.binding_epoch != obj._binding_epoch:
                self.refresh_if_tracked(obj)
            elif (group.mutation != group.holder._mutation_epoch
                    and not group.holder._deleted):
                self._refresh_group(group)
            else:
                continue
            repaired += 1
            self.manager._audit(
                "index.self_heal",
                obj,
                attribute=self.attr,
                index=f"{self.source_kind}:{self.source_name}.{self.attr}",
            )
        if repaired:
            self.manager._bump("index.stale_repairs", repaired)


class IndexManager:
    """Per-database index registry, maintenance hub and statistics.

    Attached as ``Database.indexes``.  The per-type extent index is always
    on (it mirrors ``_adopt``/``_forget_object`` at O(1) each); value
    indexes are built on first use by the planner once a source is at
    least ``min_index_source`` objects (set it to 0 to force indexing in
    tests), and ``auto = False`` disables planner index selection entirely
    (benchmark baseline + oracle mode).
    """

    def __init__(self, database: Any) -> None:
        self.database = database
        self.auto = True
        self.min_index_source = 16
        self.stats: Dict[str, int] = {
            "index.hits": 0,
            "index.misses": 0,
            "index.maintenance": 0,
            "index.built": 0,
            "index.dropped": 0,
            "index.stale_repairs": 0,
            "index.type_lookups": 0,
        }
        self._adoption_seq = itertools.count(1)
        self._adopt_order: Dict[Any, int] = {}
        self._by_type: Dict[Any, Dict[Any, Any]] = {}
        self._types_version = 0
        self._closures: Dict[int, Tuple[Tuple[int, int], Tuple[Any, ...]]] = {}
        self._value_indexes: Dict[Tuple[str, str, str], ValueIndex] = {}
        self._by_attr: Dict[str, List[ValueIndex]] = {}
        self._class_indexes: Dict[str, List[ValueIndex]] = {}
        self._type_indexes: List[ValueIndex] = []

    # -- statistics ------------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount
        obs = self.database.obs
        if obs is not None:
            obs.metrics.counter(key).inc(amount)

    def _audit(self, kind: str, subject: Any, **detail: Any) -> None:
        """Causal audit record for a maintenance action (no-op unless an
        audit log is attached — one attribute load and a branch)."""
        obs = self.database.obs
        if obs is not None:
            audit = obs.audit
            if audit is not None:
                audit.record(kind, subject, **detail)

    def stats_snapshot(self) -> Dict[str, int]:
        snapshot = dict(self.stats)
        snapshot["index.value_indexes"] = len(self._value_indexes)
        snapshot["index.indexed_entries"] = sum(
            len(index) for index in self._value_indexes.values()
        )
        return snapshot

    # -- object-registry hooks (synchronous, always on) ------------------------

    def object_adopted(self, obj: Any) -> None:
        san = TSAN
        if san is not None:
            san.write(("extents", id(self)), label="extents")
        self._adopt_order[obj.surrogate] = next(self._adoption_seq)
        bucket = self._by_type.get(obj.object_type)
        if bucket is None:
            bucket = self._by_type[obj.object_type] = {}
            self._types_version += 1
        bucket[obj.surrogate] = obj
        if self._type_indexes:
            for index in self._type_indexes:
                if obj.object_type.conforms_to(index.source_type):
                    index.insert(obj)
                    self._bump("index.maintenance")

    def object_forgotten(self, obj: Any) -> None:
        san = TSAN
        if san is not None:
            san.write(("extents", id(self)), label="extents")
        self._adopt_order.pop(obj.surrogate, None)
        bucket = self._by_type.get(obj.object_type)
        if bucket is not None:
            bucket.pop(obj.surrogate, None)
        if self._value_indexes:
            for index in self._value_indexes.values():
                if obj.surrogate in index._entries:
                    index.remove(obj)
                    self._bump("index.maintenance")

    # -- extent hooks (synchronous, from Extent.add/discard) --------------------

    def extent_member_added(self, extent: Any, obj: Any) -> None:
        for index in self._class_indexes.get(extent.name, ()):
            index.insert(obj)
            self._bump("index.maintenance")

    def extent_member_removed(self, extent: Any, obj: Any) -> None:
        for index in self._class_indexes.get(extent.name, ()):
            index.remove(obj)
            self._bump("index.maintenance")

    # -- the per-type extent index ----------------------------------------------

    def order_token(self, obj: Any) -> int:
        """Global adoption ordinal — the scan order of ``objects()``."""
        return self._adopt_order.get(obj.surrogate, 0)

    def _closure(self, resolved: Any) -> Tuple[Any, ...]:
        """Concrete types with buckets that conform to ``resolved``."""
        version = (_resolution.schema_epoch(), self._types_version)
        cached = self._closures.get(id(resolved))
        if cached is not None and cached[0] == version:
            return cached[1]
        types = tuple(
            concrete for concrete in self._by_type
            if concrete.conforms_to(resolved)
        )
        self._closures[id(resolved)] = (version, types)
        return types

    def objects_of_type(self, resolved: Any,
                        include_subtypes: bool = True) -> List[Any]:
        """All live objects of a type, in the registry's adoption order —
        O(result), serving what used to be a full-database scan."""
        self._bump("index.type_lookups")
        if not include_subtypes:
            bucket = self._by_type.get(resolved)
            return list(bucket.values()) if bucket else []
        buckets = [
            self._by_type[concrete]
            for concrete in self._closure(resolved)
            if self._by_type[concrete]
        ]
        if not buckets:
            return []
        if len(buckets) == 1:
            return list(buckets[0].values())
        merged = [obj for bucket in buckets for obj in bucket.values()]
        order = self._adopt_order
        merged.sort(key=lambda obj: order[obj.surrogate])
        return merged

    def type_population(self, resolved: Any,
                        include_subtypes: bool = True) -> int:
        """Size of :meth:`objects_of_type` without materialising it."""
        if not include_subtypes:
            bucket = self._by_type.get(resolved)
            return len(bucket) if bucket else 0
        return sum(
            len(self._by_type[concrete]) for concrete in self._closure(resolved)
        )

    def concrete_types_of(self, resolved: Any) -> List[Any]:
        """Concrete types with live instances conforming to ``resolved``."""
        return [
            concrete for concrete in self._closure(resolved)
            if self._by_type[concrete]
        ]

    def type_groups(self) -> List[Tuple[Any, List[Any]]]:
        """Every live object, grouped by concrete type (adoption order
        within each group) — the batch form of the extent index, served
        in O(objects) with no per-object dispatch.  The constraint sweep
        runs its compiled scans over these groups."""
        return [
            (type_, list(bucket.values()))
            for type_, bucket in self._by_type.items()
            if bucket
        ]

    # -- value indexes ----------------------------------------------------------

    def value_index(self, source_kind: str, source_name: str,
                    attr: str) -> Optional[ValueIndex]:
        """The valid value index for (source, attr), or None."""
        index = self._value_indexes.get((source_kind, source_name, attr))
        if index is not None and index.schema_epoch != _resolution.schema_epoch():
            # Drop-on-schema-change: permeability, inheritor-in and type
            # definitions can all change what get_member resolves.
            self._drop(index)
            return None
        return index

    def ensure_value_index(self, source_kind: str, source_name: str,
                           source_type: Any, attr: str) -> ValueIndex:
        index = self.value_index(source_kind, source_name, attr)
        if index is not None:
            return index
        index = ValueIndex(self, source_kind, source_name, source_type, attr)
        if source_kind == "class":
            extent = self.database._classes.get(source_name)
            members = extent.members() if extent is not None else []
            self._class_indexes.setdefault(source_name, []).append(index)
        else:
            members = self.objects_of_type(source_type)
            self._type_indexes.append(index)
        index.build(members)
        self._value_indexes[(source_kind, source_name, attr)] = index
        self._by_attr.setdefault(attr, []).append(index)
        self._bump("index.built")
        # Handlers are looked up here, at attach time, on purpose: span
        # wrappers installed on the class before the database exists see
        # every maintenance call.
        self.database.events.attach_maintainer("indexes", {
            "attribute_updated": self._on_attribute_event,
            "attribute_restored": self._on_attribute_event,
            "inheritor_bound": self._on_binding_event,
            "inheritor_unbound": self._on_binding_event,
        })
        return index

    def usable_value_index(self, source_kind: str, source_name: str,
                           source_type: Any, attr: str,
                           source_size: int) -> Optional[ValueIndex]:
        """The value index the planner may use, building lazily.

        Below ``min_index_source`` objects a scan is cheap enough that no
        new index is built — but one that already exists is still used.
        """
        if source_size < self.min_index_source:
            return self.value_index(source_kind, source_name, attr)
        return self.ensure_value_index(source_kind, source_name, source_type, attr)

    def _drop(self, index: ValueIndex) -> None:
        self._value_indexes.pop(
            (index.source_kind, index.source_name, index.attr), None
        )
        attr_list = self._by_attr.get(index.attr)
        if attr_list and index in attr_list:
            attr_list.remove(index)
        if index.source_kind == "class":
            class_list = self._class_indexes.get(index.source_name)
            if class_list and index in class_list:
                class_list.remove(index)
        elif index in self._type_indexes:
            self._type_indexes.remove(index)
        self._bump("index.dropped")

    def drop_value_indexes(self) -> None:
        """Drop every value index (they rebuild lazily on next use)."""
        for index in list(self._value_indexes.values()):
            self._drop(index)

    # -- event-driven value maintenance (the maintainer tier) ------------------

    @staticmethod
    def _with_inheritors(obj: Any) -> List[Any]:
        """``obj`` plus its transitive inheritors (they read through it)."""
        if not obj._links_as_transmitter:
            return [obj]
        targets: List[Any] = []
        seen: Set[int] = set()
        stack = [obj]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            targets.append(node)
            for link in node._links_as_transmitter:
                stack.append(link.inheritor)
        return targets

    def _on_attribute_event(self, event: Any) -> None:
        indexes = self._by_attr.get(event.data.get("attribute"))
        if not indexes:
            return
        subject = event.subject
        for index in indexes:
            # The subject is the holder of at most one group per index:
            # one move, whatever the number of inheritors reading it.
            if index.refresh_holder(subject):
                self._maintained(index, subject, event.kind)
            pinned = index._pinned
            if pinned:
                for target in self._with_inheritors(subject):
                    entry = pinned.get(target.surrogate)
                    if entry is not None and not target._deleted:
                        index._refresh_group(entry.group)
                        self._maintained(index, target, event.kind)

    def _on_binding_event(self, event: Any) -> None:
        if not self._value_indexes:
            return
        # A topology change can re-route any inherited member below the
        # subject: regroup the subtree in every index.  Binds are rare.
        for target in self._with_inheritors(event.subject):
            for index in self._value_indexes.values():
                if index.refresh_if_tracked(target):
                    self._maintained(index, target, event.kind)

    def _maintained(self, index: ValueIndex, subject: Any, reason: str) -> None:
        self._bump("index.maintenance")
        self._audit(
            "index.maintenance",
            subject,
            attribute=index.attr,
            index=f"{index.source_kind}:{index.source_name}.{index.attr}",
            reason=reason,
        )
