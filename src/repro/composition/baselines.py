"""Baseline composition mechanisms the paper argues against (§2).

The paper discusses two alternatives to the inheritance relationship before
rejecting them:

1. **Copy composition** — "to define a local subobject in O into which C is
   copied".  Fast reads, but the composite is not informed of component
   updates (staleness) and the component's full internal structure becomes
   visible.
2. **View composition** — "only a view to the component is granted".
   Always fresh, but *everything* is visible; there is no selective
   permeability and no place to hang consistency bookkeeping.

Both are implemented here so the benchmarks (experiment E6) can quantify
the trade-offs the paper states qualitatively.  View composition is
realised as an inheritance relationship whose ``inheriting`` clause lists
*every* member of the transmitter type — which also demonstrates that the
paper's mechanism subsumes it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core import resolution as _resolution
from ..core.inheritance import InheritanceRelationshipType
from ..core.objects import DBObject, new_object
from ..core.objtype import TypeBase
from ..core.slots import UNSET
from ..errors import SchemaError

__all__ = [
    "clone_object",
    "copy_component",
    "stale_members",
    "view_rel_type",
    "view_component",
]


def clone_object(source: DBObject, database=None) -> DBObject:
    """Deep-copy an object: local attributes, subobjects and local
    relationships (participants remapped into the copy).

    Inheritance links are *not* cloned — a copy is detached by definition;
    inherited values are **materialised** into the clone as local values,
    which is precisely what makes copies go stale.
    """
    database = database if database is not None else source.database
    target = new_object(source.object_type, database=database)
    mapping: Dict[Any, DBObject] = {}
    _copy_into(source, target, mapping)
    return target


def _copy_into(source: DBObject, target: DBObject, mapping: Dict[Any, DBObject]) -> None:
    mapping[source.surrogate] = target
    # Materialise every visible attribute (local or inherited) locally.
    for name in _resolution.plan_for(source.object_type).attribute_names:
        value = source.get_member(name)
        if value is not None:
            # The copy baseline materialises into brand-new objects; no
            # reader has memoised them, so no epoch bump is needed.
            target._write_cell(name, value)  # lint: allow(REP601)
    for name in source.subclass_names():
        target_container = target._subclasses.get(name)
        if target_container is None:
            continue
        for member in source.get_member(name):
            copy = new_object(member.object_type, database=target.database)
            copy.parent = target
            copy._container = target_container
            target_container._members[copy.surrogate] = copy
            _copy_into(member, copy, mapping)
    for name in source.subrel_names():
        source_container = source.subrel(name)
        target_container = target._subrels.get(name)
        if target_container is None:
            continue
        for rel in source_container:
            participants = {}
            for role in rel.rel_type.participants:
                value = rel.participant(role)
                if isinstance(value, tuple):
                    participants[role] = [
                        mapping.get(p.surrogate, p) for p in value
                    ]
                else:
                    participants[role] = mapping.get(value.surrogate, value)
            copy_rel = target_container.create(participants)
            for attr, attr_value in rel.local_attributes().items():
                copy_rel._write_cell(attr, attr_value)  # lint: allow(REP601) — fresh copy


def copy_component(
    composite: DBObject, subclass_name: str, component: DBObject, **own_attrs: Any
) -> DBObject:
    """Copy composition (§2 baseline): the component's data is *copied*
    into a fresh subobject of the composite.

    The subobject receives every visible attribute of the component as a
    local value plus copies of its subobjects; there is **no link**, so
    later component updates are invisible (see :func:`stale_members`).
    """
    container = composite.subclass(subclass_name)
    subobject = container.create(**own_attrs)
    mapping: Dict[Any, DBObject] = {}
    # Materialise every visible attribute of the component as a local value
    # of the subobject (stored directly: the copy baseline deliberately
    # bypasses the schema of the slot type, as a raw data copy would).
    for name in _resolution.plan_for(component.object_type).attribute_names:
        value = component.get_member(name)
        if value is not None:
            subobject._write_cell(name, value)  # lint: allow(REP601) — fresh copy
    for name in component.subclass_names():
        target_container = subobject._subclasses.get(name)
        if target_container is None:
            continue
        for member in component.get_member(name):
            copy = new_object(member.object_type, database=subobject.database)
            copy.parent = subobject
            copy._container = target_container
            target_container._members[copy.surrogate] = copy
            _copy_into(member, copy, mapping)
    return subobject


def stale_members(copy: DBObject, component: DBObject) -> List[str]:
    """Attribute names whose copied value no longer matches the component.

    The §2 problem made measurable: after component updates, a copy-based
    composite holds outdated values until someone re-copies.
    """
    stale = []
    for name in _resolution.plan_for(component.object_type).attribute_names:
        value = copy._local_value(name, UNSET)
        if value is UNSET:
            continue
        if value != component.get_member(name):
            stale.append(name)
    return stale


_VIEW_REL_CACHE: Dict[int, InheritanceRelationshipType] = {}


def view_rel_type(transmitter_type: TypeBase) -> InheritanceRelationshipType:
    """The all-members inheritance relationship for ``transmitter_type``.

    View composition = an inheritance relationship with *no* selectivity:
    ``inheriting`` lists every attribute, subclass and subrel of the
    transmitter type.  Cached per type.
    """
    cached = _VIEW_REL_CACHE.get(id(transmitter_type))
    if cached is not None:
        return cached
    members = (
        list(transmitter_type.effective_attributes())
        + list(transmitter_type.effective_subclasses())
        + list(transmitter_type.effective_subrels())
    )
    if not members:
        raise SchemaError(
            f"type {transmitter_type.name!r} has no members to view"
        )
    rel = InheritanceRelationshipType(
        f"ViewOf_{transmitter_type.name.replace('.', '_')}",
        transmitter_type=transmitter_type,
        inheriting=members,
        doc="View-composition baseline: the entire component is visible.",
    )
    _VIEW_REL_CACHE[id(transmitter_type)] = rel
    return rel


def view_component(
    composite: DBObject, subclass_name: str, component: DBObject, **own_attrs: Any
) -> DBObject:
    """View composition (§2 baseline): everything visible, always fresh."""
    container = composite.subclass(subclass_name)
    rel = view_rel_type(component.object_type)
    subobject = container.create(**own_attrs)
    from ..core.objects import bind

    bind(subobject, component, rel, declare=True)
    return subobject
