"""Objects, complex objects, relationship objects and value inheritance.

This module implements the instance level of the model:

* :class:`DBObject` — an object with surrogate identity, typed attributes,
  local subclasses of subobjects and local relationship subclasses (§3
  "Complex objects"), plus the inheritor/transmitter roles of §4;
* :class:`LocalSubclass` / :class:`LocalRelClass` — the per-complex-object
  containers for subobjects and local relationships;
* :class:`RelationshipObject` — relationship instances with named
  participants;
* :class:`InheritanceLink` — the relationship object representing one
  bound inheritance relationship, through which **values** flow from the
  transmitter to the inheritor (§4.1);
* :func:`bind` — establishing a link, with all the checks the paper's
  semantics imply (typing, single transmitter per relationship type, no
  local shadowing of inherited data, no object-level cycles).

Value-inheritance semantics implemented here:

* inherited members resolve **live** against the transmitter, so a
  transmitter update is "transmitted into the implementations" immediately;
* inherited data "must not be updated within a single implementation" —
  writes to permeable members of a bound inheritor raise
  :class:`~repro.errors.InheritanceError`;
* an unbound inheritor "only inherits the attribute structure of the
  transmitter type" — it may hold local values for those members, which is
  exactly classical generalization (§4.1's special case).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import (
    ConstraintViolation,
    InheritanceError,
    ObjectDeletedError,
    SchemaError,
    UnknownAttributeError,
)
from ..expr import EvalContext, truthy
from . import resolution as _resolution
from .constraints import check_all
from .inheritance import INHERITOR_ROLE, TRANSMITTER_ROLE, InheritanceRelationshipType
from .objtype import ObjectType, SubclassSpec, SubrelSpec, TypeBase
from .reltype import RelationshipType
from . import slots as _slots
from .slots import UNSET, store_for
from .surrogate import Surrogate, SurrogateGenerator

__all__ = [
    "DBObject",
    "RelationshipObject",
    "InheritanceLink",
    "LocalSubclass",
    "LocalRelClass",
    "bind",
    "new_object",
    "new_relationship",
]

#: Surrogate source for objects created outside any database (unit tests,
#: scratch modelling).  Databases use their own generator.
_FALLBACK_SURROGATES = SurrogateGenerator("local")


def _fresh_surrogate(database) -> Surrogate:
    generator = getattr(database, "surrogates", None)
    if generator is not None:
        return generator.fresh()
    return _FALLBACK_SURROGATES.fresh()


class DBObject:
    """An object of the model: identity, attributes, subobjects, inheritance.

    Instances are normally created through a
    :class:`~repro.engine.database.Database` (global classes) or through a
    :class:`LocalSubclass` (subobjects of a complex object); direct
    construction via :func:`new_object` is supported for standalone use.
    """

    def __init__(
        self,
        object_type: TypeBase,
        surrogate: Surrogate,
        database=None,
        parent: Optional["DBObject"] = None,
    ):
        if not isinstance(object_type, TypeBase):
            raise SchemaError(f"{object_type!r} is not a type")
        self.object_type = object_type
        self.surrogate = surrogate
        self.database = database
        self.parent = parent
        #: Local attribute values live in the type's slotted column store
        #: (see repro.core.slots): the object holds a row index, one cell
        #: per declared attribute.  Dynamic attributes and post-deletion
        #: spills go to the lazily allocated overflow dict.  Raw access
        #: goes through _local_value / _write_cell (below).
        store = object_type._store
        if store is None or store.epoch != _resolution._SCHEMA_EPOCH:
            store = store_for(object_type, getattr(database, "obs", None))
        self._store = store
        self._row = store.alloc()
        self._overflow: Optional[Dict[str, Any]] = None
        self._subclasses: Dict[str, LocalSubclass] = {}
        self._subrels: Dict[str, LocalRelClass] = {}
        #: rel-type name -> InheritanceLink where self is the inheritor.
        self._links_as_inheritor: Dict[str, "InheritanceLink"] = {}
        #: Links where self is the transmitter.
        self._links_as_transmitter: List["InheritanceLink"] = []
        #: Relationship objects this object participates in (any role).
        self._participating: Set["RelationshipObject"] = set()
        #: The container this object lives in, when it is a subobject.
        self._container: Optional[LocalSubclass] = None
        self._deleted = False
        #: Epoch counters (see repro.core.resolution): consumers snapshot
        #: these to validate cached resolutions in O(1) instead of
        #: subscribing to events.  The binding epoch moves when this
        #: object's *resolution topology* changes — its own bind/unbind or
        #: any upstream binding change (bumps propagate down the inheritor
        #: subtree, so one integer compare covers the whole chain).  The
        #: mutation epoch moves on attribute writes and container content
        #: changes of this object only.
        self._binding_epoch = 0
        self._mutation_epoch = 0
        #: member name -> (schema_epoch, binding_epoch, holder, entry, hops,
        #: column): the memoised end of the delegation chain for that
        #: member, valid while both epochs match (values are always read
        #: live).  ``column`` is the holder's slot array for the member (or
        #: None when it has no declared slot) — the steady-state read is
        #: one list index off it.
        self._member_memo: Dict[str, Any] = {}
        if database is not None and hasattr(database, "_adopt"):
            database._adopt(self)
        for name, spec in object_type.effective_subclasses().items():
            self._subclasses[name] = LocalSubclass(self, spec)
        for name, spec in object_type.effective_subrels().items():
            self._subrels[name] = LocalRelClass(self, spec)

    # -- basic state ----------------------------------------------------------

    @property
    def deleted(self) -> bool:
        """True once the object (or its enclosing complex object) was deleted."""
        return self._deleted

    def _ensure_alive(self) -> None:
        if self._deleted:
            raise ObjectDeletedError(f"{self!r} was deleted")

    # -- local storage ----------------------------------------------------------
    #
    # The raw store API: reads and writes of one local cell (slot or
    # overflow) with no validation, no events and no epoch bump.  Writers
    # that are not creating a fresh object restore through
    # _restore_attribute, which adds the epoch bump and the event (the
    # engine lint's REP601 holds every other _write_cell call to that).

    def _local_value(self, name: str, default: Any = None) -> Any:
        """The locally stored value of ``name`` (no inheritance), or
        ``default``."""
        row = self._row
        if row >= 0:
            store = self._store
            if store.epoch != _resolution._SCHEMA_EPOCH:
                store.refresh(_resolution.plan_for(self.object_type))
            slot = store.slot_of.get(name)
            if slot is not None:
                value = store.columns[slot][row]
                return default if value is UNSET else value
        overflow = self._overflow
        if overflow is None:
            return default
        return overflow.get(name, default)

    def _has_local_value(self, name: str) -> bool:
        """True when ``name`` has a locally stored value."""
        return self._local_value(name, UNSET) is not UNSET

    def _write_cell(self, name: str, value: Any) -> Any:
        """Raw write of ``name``'s local cell; ``UNSET`` clears it.

        Returns the prior cell (``UNSET`` when there was no local value).
        Names without a declared slot live in the overflow dict.
        """
        san = _slots.TSAN
        if san is not None:
            san.write(("cell", self.surrogate, name), label=f"cell:{name}")
        row = self._row
        if row >= 0:
            store = self._store
            if store.epoch != _resolution._SCHEMA_EPOCH:
                store.refresh(_resolution.plan_for(self.object_type))
            slot = store.slot_of.get(name)
            if slot is not None:
                column = store.columns[slot]
                prior = column[row]
                column[row] = value
                return prior
        overflow = self._overflow
        if value is UNSET:
            return UNSET if overflow is None else overflow.pop(name, UNSET)
        if overflow is None:
            overflow = self._overflow = {}
        prior = overflow.get(name, UNSET)
        overflow[name] = value
        return prior

    def _restore_attribute(self, name: str, value: Any) -> None:
        """Put a prior local value back (``UNSET``: no local value).

        The one raw-restore path — transaction undo, version
        revert-and-reject and merge apply.  It bypasses validation and the
        inheritance read-only rule (the value was legal when stored), but
        still moves the mutation epoch and emits ``attribute_restored``,
        so memoised readers, value indexes and views follow it.
        """
        self._write_cell(name, value)
        self._mutation_epoch += 1
        self._emit("attribute_restored", attribute=name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DBObject):
            return self.surrogate == other.surrogate
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.surrogate)

    def __repr__(self) -> str:
        flags = " deleted" if self._deleted else ""
        return f"<{self.object_type.name} {self.surrogate}{flags}>"

    def _emit(self, kind: str, **data: Any) -> None:
        bus = getattr(self.database, "events", None)
        if bus is not None:
            bus.emit(kind, subject=self, **data)

    # -- inheritance plumbing ---------------------------------------------------

    @property
    def inheritance_links(self) -> Tuple["InheritanceLink", ...]:
        """Links in which this object is the inheritor, in binding order."""
        return tuple(self._links_as_inheritor.values())

    @property
    def inheritor_links(self) -> Tuple["InheritanceLink", ...]:
        """Links in which this object is the transmitter."""
        return tuple(self._links_as_transmitter)

    def transmitter_of(self, rel_type: InheritanceRelationshipType) -> Optional["DBObject"]:
        """The transmitter this object is bound to via ``rel_type``, if any."""
        link = self._links_as_inheritor.get(rel_type.name)
        return link.transmitter if link is not None else None

    def link_for(self, rel_type: InheritanceRelationshipType) -> Optional["InheritanceLink"]:
        """The inheritance link for ``rel_type``, if bound."""
        return self._links_as_inheritor.get(rel_type.name)

    def _plan(self) -> "_resolution.ResolutionPlan":
        """The valid resolution plan of this object's type (compile lazily)."""
        object_type = self.object_type
        plan = object_type._plan
        if plan is not None and plan.schema_epoch == _resolution._SCHEMA_EPOCH:
            return plan
        return _resolution.compile_plan(
            object_type, getattr(self.database, "obs", None)
        )

    def _binding_link_for_member(self, name: str) -> Optional["InheritanceLink"]:
        """The first bound link through which ``name`` is inherited.

        Resolution follows the declaration order of ``inheritor-in`` on the
        object's type (baked into the plan entry), which disambiguates
        diamond situations.
        """
        entry = self._plan().entries.get(name)
        if entry is None or not entry.rels:
            return None
        links = self._links_as_inheritor
        for rel_name in entry.rels:
            link = links.get(rel_name)
            if link is not None:
                return link
        return None

    def is_member_inherited(self, name: str) -> bool:
        """True when ``name`` currently resolves through a bound transmitter."""
        return self._binding_link_for_member(name) is not None

    def _bump_binding_epoch(self) -> None:
        """Move the resolution-topology epoch of this object *and* every
        transitive inheritor below it.

        Binding changes are rare and reads are hot, so the cost of a
        topology change is paid here, walking the downstream subtree once —
        in exchange, any consumer holding a memoised resolution validates
        it with a single integer compare against the inheritor's own epoch
        (no per-hop chain walk, no event subscription).
        """
        stack: List["DBObject"] = [self]
        seen: set = set()
        while stack:
            node = stack.pop()
            node_id = id(node)
            if node_id in seen:
                continue
            seen.add(node_id)
            node._binding_epoch += 1
            for link in node._links_as_transmitter:
                stack.append(link.inheritor)

    # -- member resolution ------------------------------------------------------

    def get_member(self, name: str) -> Any:
        """Resolve member ``name`` — the object protocol the whole library uses.

        Order: the automatic ``surrogate``; inherited (bound) members, which
        shadow everything local by construction; local attribute values;
        local subclass / subrel containers (as lists); declared attributes
        without a value (their default, else ``None``).  Unknown names raise
        :class:`~repro.errors.UnknownAttributeError`.

        Dispatch goes through the type's compiled
        :class:`~repro.core.resolution.ResolutionPlan`: plan validity is one
        integer compare against the schema epoch, and bound delegation
        chains are walked iteratively instead of rescanning ``inheritor-in``
        per level.  The end of the chain — the *holder* that actually
        supplies the value — is memoised per member and revalidated with two
        integer compares (schema epoch + this object's binding epoch, which
        moves on any upstream topology change), so a steady-state inherited
        read costs O(1) regardless of chain depth.  Values are always read
        live off the holder; only the topology is memoised.
        """
        if self._deleted:
            raise ObjectDeletedError(f"{self!r} was deleted")
        schema_epoch = _resolution._SCHEMA_EPOCH
        memo = self._member_memo.get(name)
        if (
            memo is not None
            and memo[0] == schema_epoch
            and memo[1] == self._binding_epoch
        ):
            holder = memo[2]
            hops = memo[4]
            if hops:
                if holder._deleted:
                    raise ObjectDeletedError(f"{holder!r} was deleted")
                obs = getattr(self.database, "obs", None)
                if obs is not None:
                    # One count per delegation hop: a read through a
                    # k-level interface hierarchy contributes k.
                    obs.metrics.counter("reads.inherited").inc(hops)
                    obs.metrics.counter("resolution.fast_hits").inc()
            column = memo[5]
            if column is not None:
                # The steady-state read: one list index into the holder's
                # slot array (columns are stable within a schema epoch).
                value = column[holder._row]
                if value is not UNSET:
                    return value
            else:
                overflow = holder._overflow
                if overflow is not None and name in overflow:
                    return overflow[name]
            return self._member_from_holder(holder, memo[3], name)
        object_type = self.object_type
        plan = object_type._plan
        if plan is None or plan.schema_epoch != schema_epoch:
            plan = _resolution.compile_plan(
                object_type, getattr(self.database, "obs", None)
            )
        entry = plan.entries.get(name)
        current = self
        hops = 0
        if entry is not None:
            if entry.kind == "surrogate":
                return self.surrogate
            rels = entry.rels
            if rels:
                links = current._links_as_inheritor
                link = None
                for rel_name in rels:
                    link = links.get(rel_name)
                    if link is not None:
                        break
                if link is not None:
                    # Walk the bound chain iteratively; each hop costs a
                    # plan lookup (validated by epoch) and a dict probe
                    # instead of a full interpretive re-scan.
                    while link is not None:
                        current = link.transmitter
                        hops += 1
                        if type(current).get_member is not DBObject.get_member:
                            # Subclasses with their own protocol (relationship
                            # participants) take over from here; their answer
                            # is not epoch-tracked, so don't memoise it.
                            obs = getattr(self.database, "obs", None)
                            if obs is not None:
                                obs.metrics.counter("reads.inherited").inc(hops)
                                obs.metrics.counter("resolution.fast_hits").inc()
                            return current.get_member(name)
                        if current._deleted:
                            raise ObjectDeletedError(f"{current!r} was deleted")
                        current_type = current.object_type
                        cplan = current_type._plan
                        if cplan is None or cplan.schema_epoch != schema_epoch:
                            cplan = _resolution.compile_plan(
                                current_type, getattr(current.database, "obs", None)
                            )
                        entry = cplan.entries.get(name)
                        link = None
                        if entry is not None and entry.rels:
                            links = current._links_as_inheritor
                            for rel_name in entry.rels:
                                link = links.get(rel_name)
                                if link is not None:
                                    break
                    obs = getattr(self.database, "obs", None)
                    if obs is not None:
                        obs.metrics.counter("reads.inherited").inc(hops)
                        obs.metrics.counter("resolution.fast_hits").inc()
            # The resolution (not the value) is memoised: a chain of plain
            # objects ending at `current` stays valid until the schema or
            # this object's binding topology moves.  The holder's slot
            # array is memoised with it, so steady-state reads index it
            # directly.
            store = current._store
            if store.epoch != schema_epoch:
                store.refresh(
                    _resolution.plan_for(
                        current.object_type, getattr(current.database, "obs", None)
                    )
                )
            slot = entry.slot if entry is not None else None
            column = store.columns[slot] if slot is not None else None
            self._member_memo[name] = (
                schema_epoch, self._binding_epoch, current, entry, hops, column,
            )
            if column is not None:
                value = column[current._row]
                if value is not UNSET:
                    return value
            else:
                overflow = current._overflow
                if overflow is not None and name in overflow:
                    return overflow[name]
            return self._member_from_holder(current, entry, name)
        overflow = current._overflow
        if overflow is not None and name in overflow:
            return overflow[name]
        return self._member_from_holder(current, entry, name)

    @staticmethod
    def _member_from_holder(
        holder: "DBObject",
        entry: Optional["_resolution.MemberEntry"],
        name: str,
    ) -> Any:
        """Local resolution on the chain's holder, after its local-cell miss:
        containers as lists, declared defaults, then the seed's errors."""
        if entry is not None:
            container = holder._subclasses.get(name)
            if container is not None:
                return container.members()
            rel_container = holder._subrels.get(name)
            if rel_container is not None:
                return rel_container.members()
            if entry.spec is not None:
                return entry.default
        holder_type = holder.object_type
        if getattr(holder_type, "allow_dynamic", False):
            raise UnknownAttributeError(
                f"{holder!r} has no value for dynamic attribute {name!r}"
            )
        raise UnknownAttributeError(
            f"type {holder_type.name!r} has no member {name!r}"
        )

    def __getitem__(self, name: str) -> Any:
        return self.get_member(name)

    def get(self, name: str, default: Any = None) -> Any:
        """Like :meth:`get_member` but returning ``default`` for unknown names."""
        try:
            return self.get_member(name)
        except UnknownAttributeError:
            return default

    # -- attribute updates --------------------------------------------------------

    def set_attribute(self, name: str, value: Any) -> Any:
        """Set a local attribute value, enforcing inheritance read-only rules.

        Raises
        ------
        InheritanceError
            When ``name`` is inherited through a *bound* link — "the
            inherited data must not be updated in the inheritor" (§2).
        UnknownAttributeError
            When the type declares no such attribute (unless the type
            allows dynamic attributes).
        DomainError
            When the value does not fit the attribute's domain.
        """
        self._ensure_alive()
        entry = self._plan().entries.get(name)
        if entry is not None and entry.rels:
            links = self._links_as_inheritor
            for rel_name in entry.rels:
                link = links.get(rel_name)
                if link is not None:
                    raise InheritanceError(
                        f"{name!r} of {self!r} is inherited from "
                        f"{link.transmitter!r} via {link.rel_type.name!r} and "
                        f"must not be updated in the inheritor; update the "
                        f"transmitter instead"
                    )
        spec = entry.spec if entry is not None else None
        if spec is None:
            if self.object_type.member_kind(name) is not None:
                raise SchemaError(
                    f"member {name!r} of {self.object_type.name!r} is a "
                    f"subclass, not an attribute"
                )
            if not getattr(self.object_type, "allow_dynamic", False):
                raise UnknownAttributeError(
                    f"type {self.object_type.name!r} has no attribute {name!r}"
                )
            normalised = value
        else:
            normalised = spec.validate(value)
        store = self._store
        if store.epoch != _resolution._SCHEMA_EPOCH:
            store.refresh(
                _resolution.plan_for(
                    self.object_type, getattr(self.database, "obs", None)
                )
            )
        slot = entry.slot if entry is not None else store.slot_of.get(name)
        if slot is not None:
            column = store.columns[slot]
            prior = column[self._row]
            old = None if prior is UNSET else prior
            column[self._row] = normalised
        else:
            overflow = self._overflow
            if overflow is None:
                overflow = self._overflow = {}
            old = overflow.get(name)
            overflow[name] = normalised
        self._mutation_epoch += 1
        self._emit("attribute_updated", attribute=name, old=old, new=normalised)
        return normalised

    def set(self, name: str, value: Any) -> Any:
        """Alias of :meth:`set_attribute`."""
        return self.set_attribute(name, value)

    def update(self, **values: Any) -> None:
        """Set several attributes."""
        for name, value in values.items():
            self.set_attribute(name, value)

    def local_attributes(self) -> Dict[str, Any]:
        """Copy of the locally stored attribute values (no inherited data):
        slot order, then overflow."""
        out: Dict[str, Any] = {}
        row = self._row
        if row >= 0:
            store = self._store
            if store.epoch != _resolution._SCHEMA_EPOCH:
                store.refresh(_resolution.plan_for(self.object_type))
            for name, column in zip(store.names, store.columns):
                value = column[row]
                if value is not UNSET:
                    out[name] = value
        overflow = self._overflow
        if overflow is not None:
            out.update(overflow)
        return out

    # -- containers --------------------------------------------------------------

    def subclass(self, name: str) -> "LocalSubclass":
        """The local subclass container ``name`` (own or inherited-structure)."""
        self._ensure_alive()
        try:
            return self._subclasses[name]
        except KeyError:
            raise UnknownAttributeError(
                f"type {self.object_type.name!r} has no subclass {name!r}"
            ) from None

    def subrel(self, name: str) -> "LocalRelClass":
        """The local relationship subclass container ``name``."""
        self._ensure_alive()
        try:
            return self._subrels[name]
        except KeyError:
            raise UnknownAttributeError(
                f"type {self.object_type.name!r} has no subrel {name!r}"
            ) from None

    def subclass_names(self) -> Tuple[str, ...]:
        return tuple(self._subclasses)

    def subrel_names(self) -> Tuple[str, ...]:
        return tuple(self._subrels)

    # -- constraint checking -------------------------------------------------------

    def check_constraints(self, deep: bool = False) -> None:
        """Check the object's own type constraints and subrel restrictions.

        Constraints of transmitter types are *not* re-checked here: they
        hold on the transmitter's data, which is exactly what this object
        sees through the link.

        With ``deep=True`` the check recurses into subobjects and local
        relationships.
        """
        self._ensure_alive()
        check_all(self.object_type.constraints, self)
        for container in self._subrels.values():
            for rel in container:
                container.check_restriction(rel)
        if deep:
            for container in self._subclasses.values():
                for member in container:
                    member.check_constraints(deep=True)
            for rel_container in self._subrels.values():
                for rel in rel_container:
                    rel.check_constraints(deep=True)

    # -- deletion ---------------------------------------------------------------

    def delete(self, unbind_inheritors: bool = False) -> None:
        """Delete the object and everything that depends on it.

        Subobjects and local relationships are deleted with their complex
        object (§3).  Relationships this object participates in are deleted
        for referential integrity.  If other objects inherit from this one,
        deletion is refused unless ``unbind_inheritors=True``, in which case
        each inheritor keeps its structure but loses the inherited values
        (it becomes an unbound inheritor).
        """
        if self._deleted:
            return
        if self._links_as_transmitter and not unbind_inheritors:
            inheritors = [link.inheritor for link in self._links_as_transmitter]
            raise InheritanceError(
                f"{self!r} transmits data to {len(inheritors)} inheritor(s) "
                f"(e.g. {inheritors[0]!r}); pass unbind_inheritors=True to "
                f"sever the links"
            )
        for link in list(self._links_as_transmitter):
            link.unbind()
        for link in list(self._links_as_inheritor.values()):
            link.unbind()
        for rel in list(self._participating):
            rel.delete(unbind_inheritors=unbind_inheritors)
        for container in self._subrels.values():
            for rel in list(container):
                rel.delete(unbind_inheritors=unbind_inheritors)
        for container in self._subclasses.values():
            for member in list(container):
                member.delete(unbind_inheritors=unbind_inheritors)
        if self._container is not None:
            self._container._discard(self)
            self._container = None
        self._deleted = True
        # Defensive: any cached resolution whose chain includes this object
        # must fail epoch validation, whatever path led here.  (All links
        # were just unbound, so the propagating bump normally covers only
        # this object.)
        self._bump_binding_epoch()
        self._mutation_epoch += 1
        self._emit("object_deleted")
        database = self.database
        if database is not None and hasattr(database, "_forget_object"):
            database._forget_object(self)
        # Release the slot row: live cells spill into the overflow dict so
        # the deleted object keeps reporting its last local values (dict
        # semantics), while the row is recycled for new objects.
        row = self._row
        if row >= 0:
            spilled = self._store.spill_row(row)
            self._row = -1
            if spilled:
                overflow = self._overflow
                if overflow:
                    spilled.update(overflow)
                self._overflow = spilled

    # -- introspection ------------------------------------------------------------

    def visible_member_names(self) -> Tuple[str, ...]:
        """Every member name resolvable on this object (type level)."""
        return self._plan().member_names


class LocalSubclass:
    """A local object subclass of one complex object (§3).

    Subobjects created or added here are owned by the complex object and
    deleted with it.  While the owner inherits this member through a bound
    link, the local container is frozen — the visible content is the
    transmitter's.
    """

    def __init__(self, owner: DBObject, spec: SubclassSpec) -> None:
        self.owner = owner
        self.spec = spec
        self._members: Dict[Surrogate, DBObject] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def element_type(self) -> ObjectType:
        return self.spec.element_type

    def _ensure_writable(self) -> None:
        self.owner._ensure_alive()
        link = self.owner._binding_link_for_member(self.name)
        if link is not None:
            raise InheritanceError(
                f"subclass {self.name!r} of {self.owner!r} is inherited from "
                f"{link.transmitter!r}; its content cannot be changed locally"
            )

    def create(self, **attrs: Any) -> DBObject:
        """Create a new subobject of the element type inside this subclass."""
        self._ensure_writable()
        member = new_object(
            self.element_type,
            database=self.owner.database,
            parent=self.owner,
            **attrs,
        )
        member._container = self
        self._members[member.surrogate] = member
        self.owner._mutation_epoch += 1
        self.owner._emit("subobject_added", subclass=self.name, member=member)
        return member

    def add(self, member: DBObject) -> DBObject:
        """Adopt an existing parentless object as a subobject."""
        self._ensure_writable()
        member._ensure_alive()
        if member.parent is not None or member._container is not None:
            raise SchemaError(f"{member!r} already belongs to a complex object")
        if not member.object_type.conforms_to(self.element_type):
            raise SchemaError(
                f"subclass {self.name!r} holds {self.element_type.name!r} "
                f"objects; got {member.object_type.name!r}"
            )
        member.parent = self.owner
        member._container = self
        self._members[member.surrogate] = member
        self.owner._mutation_epoch += 1
        self.owner._emit("subobject_added", subclass=self.name, member=member)
        return member

    def remove(self, member: DBObject) -> None:
        """Delete a subobject (subobjects cannot outlive their owner)."""
        self._ensure_writable()
        if member.surrogate not in self._members:
            raise SchemaError(f"{member!r} is not a member of {self.name!r}")
        member.delete()

    def _discard(self, member: DBObject) -> None:
        self._members.pop(member.surrogate, None)
        self.owner._mutation_epoch += 1
        self.owner._emit("subobject_removed", subclass=self.name, member=member)

    def members(self) -> List[DBObject]:
        """Snapshot list of current members."""
        return list(self._members.values())

    def __iter__(self) -> Iterator[DBObject]:
        return iter(list(self._members.values()))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: object) -> bool:
        return isinstance(member, DBObject) and member.surrogate in self._members

    def __repr__(self) -> str:
        return f"<LocalSubclass {self.owner.object_type.name}.{self.name} n={len(self)}>"


class LocalRelClass:
    """A local relationship subclass of one complex object (§3).

    Relationship objects created here link subobjects of the complex object
    (possibly across nesting levels) or the complex object's own parts; the
    spec's ``where`` clause restricts admissible participants and is checked
    at creation time and by :meth:`DBObject.check_constraints`.
    """

    def __init__(self, owner: DBObject, spec: SubrelSpec) -> None:
        self.owner = owner
        self.spec = spec
        self._members: Dict[Surrogate, "RelationshipObject"] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def rel_type(self) -> RelationshipType:
        return self.spec.rel_type

    def _ensure_writable(self) -> None:
        self.owner._ensure_alive()
        link = self.owner._binding_link_for_member(self.name)
        if link is not None:
            raise InheritanceError(
                f"subrel {self.name!r} of {self.owner!r} is inherited from "
                f"{link.transmitter!r}; its content cannot be changed locally"
            )

    def create(self, participants: Mapping[str, Any], **attrs: Any) -> "RelationshipObject":
        """Create a relationship object relating the given participants."""
        self._ensure_writable()
        rel = new_relationship(
            self.rel_type,
            participants,
            database=self.owner.database,
            parent=self.owner,
            **attrs,
        )
        try:
            self.check_restriction(rel)
        except ConstraintViolation:
            # Rejected by the where clause: fully retract the half-created
            # relationship (participants' back-references, registry).
            rel.parent = None
            rel.delete()
            raise
        rel._container_rel = self
        self._members[rel.surrogate] = rel
        self.owner._mutation_epoch += 1
        self.owner._emit("relationship_created", subrel=self.name, relationship=rel)
        return rel

    def check_restriction(self, rel: "RelationshipObject") -> None:
        """Check the subrel's ``where`` clause for one relationship object."""
        where = self.spec.where
        if where is None:
            return
        bindings = {name: rel for name in self.spec.binding_names()}
        # Participant roles are visible by their bare names too — the §5
        # restriction "for x in Bores: x in Girders.Bores or …" refers to
        # the Screwing relationship's Bores participants directly.
        for role in rel.rel_type.participants:
            bindings.setdefault(role, rel.get_member(role))
        ctx = EvalContext(self.owner, bindings)
        if not truthy(where.evaluate(ctx)):
            raise ConstraintViolation(
                f"relationship {rel!r} violates the restriction of subrel "
                f"{self.name!r}: {self.spec.where_source}",
                constraint=self.spec.where_source,
                subject=rel,
            )

    def _discard(self, rel: "RelationshipObject") -> None:
        self._members.pop(rel.surrogate, None)
        self.owner._mutation_epoch += 1
        self.owner._emit("relationship_removed", subrel=self.name, relationship=rel)

    def members(self) -> List["RelationshipObject"]:
        return list(self._members.values())

    def __iter__(self) -> Iterator["RelationshipObject"]:
        return iter(list(self._members.values()))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, rel: object) -> bool:
        return isinstance(rel, RelationshipObject) and rel.surrogate in self._members

    def __repr__(self) -> str:
        return f"<LocalRelClass {self.owner.object_type.name}.{self.name} n={len(self)}>"


class RelationshipObject(DBObject):
    """A relationship instance: named participants plus full object features.

    Participants are fixed at creation (the *static assignment* the paper
    presumes for simplicity in §6; generic relationships with deferred
    selection live in :mod:`repro.versions.selection`).
    """

    def __init__(
        self,
        rel_type: RelationshipType,
        participants: Mapping[str, Any],
        surrogate: Surrogate,
        database=None,
        parent: Optional[DBObject] = None,
    ):
        if not isinstance(rel_type, RelationshipType):
            raise SchemaError(f"{rel_type!r} is not a relationship type")
        super().__init__(rel_type, surrogate, database=database, parent=parent)
        self.rel_type = rel_type
        self._participants: Dict[str, Any] = rel_type.validate_participants(participants)
        self._container_rel: Optional[LocalRelClass] = None
        for value in self._participants.values():
            for participant in value if isinstance(value, tuple) else (value,):
                participant._participating.add(self)

    def participant(self, role: str) -> Any:
        """The object (or tuple of objects for set-valued roles) in ``role``."""
        self._ensure_alive()
        try:
            return self._participants[role]
        except KeyError:
            raise SchemaError(
                f"relationship type {self.rel_type.name!r} has no role {role!r}"
            ) from None

    def participant_objects(self) -> List[DBObject]:
        """Flat list of all participant objects."""
        objects: List[DBObject] = []
        for value in self._participants.values():
            if isinstance(value, tuple):
                objects.extend(value)
            else:
                objects.append(value)
        return objects

    def get_member(self, name: str) -> Any:
        if not self._deleted and name in self._participants:
            value = self._participants[name]
            return list(value) if isinstance(value, tuple) else value
        return super().get_member(name)

    def delete(self, unbind_inheritors: bool = False) -> None:
        if self._deleted:
            return
        for participant in self.participant_objects():
            participant._participating.discard(self)
        container = self._container_rel
        super().delete(unbind_inheritors=unbind_inheritors)
        if container is not None:
            container._discard(self)
            self._container_rel = None

    def __repr__(self) -> str:
        flags = " deleted" if self._deleted else ""
        roles = ", ".join(self._participants)
        return f"<{self.rel_type.name} {self.surrogate} ({roles}){flags}>"


class InheritanceLink(RelationshipObject):
    """One bound inheritance relationship (§4.1).

    The link is itself a relationship object: it may carry attributes (the
    consistency subsystem stores adaptation flags here), subclasses and
    constraints.  Its two fixed roles are ``transmitter`` and ``inheritor``.
    """

    def __init__(
        self,
        rel_type: InheritanceRelationshipType,
        transmitter: DBObject,
        inheritor: DBObject,
        surrogate: Surrogate,
        database=None,
    ):
        super().__init__(
            rel_type,
            {TRANSMITTER_ROLE: transmitter, INHERITOR_ROLE: inheritor},
            surrogate,
            database=database,
        )

    @property
    def transmitter(self) -> DBObject:
        return self._participants[TRANSMITTER_ROLE]

    @property
    def inheritor(self) -> DBObject:
        return self._participants[INHERITOR_ROLE]

    def is_permeable(self, member: str) -> bool:
        return self.rel_type.is_permeable(member)

    def unbind(self) -> None:
        """Sever the link: the inheritor keeps structure, loses the values."""
        if self._deleted:
            return
        transmitter = self.transmitter
        inheritor = self.inheritor
        if self in transmitter._links_as_transmitter:
            transmitter._links_as_transmitter.remove(self)
        inheritor._links_as_inheritor.pop(self.rel_type.name, None)
        # The inheritor's resolution topology changed: bump it and its
        # whole downstream subtree.  The transmitter only *lost* an
        # inheritor — its own resolution is untouched, so a local bump
        # (conservative memo refresh) suffices.
        inheritor._bump_binding_epoch()
        transmitter._binding_epoch += 1
        self.delete()
        inheritor._emit(
            "inheritor_unbound", rel_type=self.rel_type, transmitter=transmitter
        )

    def delete(self, unbind_inheritors: bool = False) -> None:
        # Deleting the link object is unbinding; route through unbind so the
        # endpoints' registries stay consistent no matter the entry point.
        if self._deleted:
            return
        transmitter = self.transmitter
        inheritor = self.inheritor
        if self in transmitter._links_as_transmitter:
            transmitter._links_as_transmitter.remove(self)
        if inheritor._links_as_inheritor.get(self.rel_type.name) is self:
            inheritor._links_as_inheritor.pop(self.rel_type.name)
        inheritor._bump_binding_epoch()
        transmitter._binding_epoch += 1
        super().delete(unbind_inheritors=unbind_inheritors)


def _check_no_local_shadow(
    inheritor: DBObject, rel_type: InheritanceRelationshipType
) -> None:
    for member in rel_type.inheriting:
        if inheritor._has_local_value(member):
            raise InheritanceError(
                f"{inheritor!r} holds a local value for {member!r}; it cannot "
                f"be bound through {rel_type.name!r} which inherits that "
                f"member (identity of values would be violated)"
            )
        container = inheritor._subclasses.get(member)
        if container is not None and len(container) > 0:
            raise InheritanceError(
                f"{inheritor!r} has local subobjects in {member!r}; it cannot "
                f"be bound through {rel_type.name!r}"
            )
        rel_container = inheritor._subrels.get(member)
        if rel_container is not None and len(rel_container) > 0:
            raise InheritanceError(
                f"{inheritor!r} has local relationships in {member!r}; it "
                f"cannot be bound through {rel_type.name!r}"
            )


def _check_no_object_cycle(inheritor: DBObject, transmitter: DBObject) -> None:
    visited: Set[Surrogate] = set()
    stack = [transmitter]
    while stack:
        current = stack.pop()
        if current.surrogate == inheritor.surrogate:
            raise InheritanceError(
                f"binding {inheritor!r} to {transmitter!r} would create an "
                f"inheritance cycle at the object level"
            )
        if current.surrogate in visited:
            continue
        visited.add(current.surrogate)
        stack.extend(link.transmitter for link in current._links_as_inheritor.values())


def bind(
    inheritor: DBObject,
    transmitter: DBObject,
    rel_type: InheritanceRelationshipType,
    declare: bool = False,
    **link_attrs: Any,
) -> InheritanceLink:
    """Bind ``inheritor`` to ``transmitter`` through ``rel_type``.

    After binding, the members listed in the relationship's ``inheriting``
    clause resolve live against the transmitter and are read-only in the
    inheritor.

    Parameters
    ----------
    declare:
        When true and the inheritor's type has not declared
        ``inheritor-in: rel_type`` yet, the declaration is added first
        (convenience for programmatic schemas; the paper requires the
        explicit declaration, which remains the default behaviour).
    link_attrs:
        Attribute values for the link object itself.

    Raises
    ------
    InheritanceError
        For type mismatches, double binding, local shadowing of inherited
        members or object-level cycles.
    """
    if not isinstance(rel_type, InheritanceRelationshipType):
        raise InheritanceError(f"{rel_type!r} is not an inheritance relationship type")
    inheritor._ensure_alive()
    transmitter._ensure_alive()
    if rel_type not in inheritor.object_type.inheritor_in:
        # The inheritor-in declaration is the schema-level authorization to
        # participate (§4.1).  An `inheritor: object-of-type T` restriction
        # is honoured for undeclared types; a type that explicitly declared
        # inheritor-in is authorized even if it is not a subtype of T — the
        # paper's §5 WeightCarrying_Structure binds its anonymous Girders
        # subclass elements through AllOf_GirderIf exactly this way.
        if not declare:
            raise InheritanceError(
                f"type {inheritor.object_type.name!r} is not declared "
                f"inheritor-in {rel_type.name!r}"
            )
        if not rel_type.accepts_inheritor(inheritor.object_type):
            raise InheritanceError(
                f"{rel_type.name!r} restricts inheritors to type "
                f"{rel_type.inheritor_type.name!r}; got "
                f"{inheritor.object_type.name!r}"
            )
        inheritor.object_type.declare_inheritor_in(rel_type)
    if not transmitter.object_type.conforms_to(rel_type.transmitter_type):
        raise InheritanceError(
            f"{rel_type.name!r} requires a transmitter of type "
            f"{rel_type.transmitter_type.name!r}; got "
            f"{transmitter.object_type.name!r}"
        )
    if rel_type.name in inheritor._links_as_inheritor:
        raise InheritanceError(
            f"{inheritor!r} is already bound through {rel_type.name!r}; "
            f"unbind first"
        )
    _check_no_local_shadow(inheritor, rel_type)
    _check_no_object_cycle(inheritor, transmitter)
    obs = getattr(inheritor.database or transmitter.database, "obs", None)
    if obs is None:
        return _make_link(inheritor, transmitter, rel_type, link_attrs)
    with obs.tracer.span(
        "inheritance.bind",
        rel_type=rel_type.name,
        transmitter=str(transmitter.surrogate),
    ):
        return _make_link(inheritor, transmitter, rel_type, link_attrs)


def _make_link(
    inheritor: DBObject,
    transmitter: DBObject,
    rel_type: InheritanceRelationshipType,
    link_attrs: Dict[str, Any],
) -> InheritanceLink:
    link = InheritanceLink(
        rel_type,
        transmitter,
        inheritor,
        _fresh_surrogate(inheritor.database or transmitter.database),
        database=inheritor.database or transmitter.database,
    )
    for name, value in link_attrs.items():
        link.set_attribute(name, value)
    inheritor._links_as_inheritor[rel_type.name] = link
    transmitter._links_as_transmitter.append(link)
    inheritor._bump_binding_epoch()
    transmitter._binding_epoch += 1
    inheritor._emit(
        "inheritor_bound", rel_type=rel_type, transmitter=transmitter, link=link
    )
    return link


def new_object(
    object_type: TypeBase,
    database=None,
    parent: Optional[DBObject] = None,
    transmitter: Optional[DBObject] = None,
    via: Optional[InheritanceRelationshipType] = None,
    **attrs: Any,
) -> DBObject:
    """Create a new object of ``object_type``.

    ``transmitter`` (with optional ``via`` naming the inheritance
    relationship when the type declares several) binds the fresh object
    immediately — the paper's "if an object of the inheritor type is
    created, it can be specified to which object of the transmitter type it
    is to be related".
    """
    obj = DBObject(object_type, _fresh_surrogate(database), database=database, parent=parent)
    try:
        if transmitter is not None:
            rel_type = via
            if rel_type is None:
                declared = object_type.inheritor_in
                if len(declared) != 1:
                    raise InheritanceError(
                        f"type {object_type.name!r} declares "
                        f"{len(declared)} inheritance relationships; pass via=..."
                    )
                rel_type = declared[0]
            bind(obj, transmitter, rel_type)
        elif via is not None:
            raise InheritanceError("via= given without transmitter=")
        for name, value in attrs.items():
            obj.set_attribute(name, value)
    except Exception:
        # Retract the half-created object so nothing dangling stays in the
        # registry or on the transmitter.
        obj.delete()
        raise
    return obj


def new_relationship(
    rel_type: RelationshipType,
    participants: Mapping[str, Any],
    database=None,
    parent: Optional[DBObject] = None,
    **attrs: Any,
) -> RelationshipObject:
    """Create a free-standing relationship object of ``rel_type``."""
    rel = RelationshipObject(
        rel_type,
        participants,
        _fresh_surrogate(database),
        database=database,
        parent=parent,
    )
    try:
        for name, value in attrs.items():
            rel.set_attribute(name, value)
    except Exception:
        rel.parent = None
        rel.delete()
        raise
    return rel
