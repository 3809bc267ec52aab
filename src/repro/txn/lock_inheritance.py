"""Lock inheritance (§6).

*"When accessing a composite object, we have to deal with
'lock-inheritance' in the reverse direction of data inheritance: Accessing
the data of a composite object which are inherited from a component
requires to prevent the component also from being updated.  Thus, the parts
of the component which are visible in the composite object have to be
read-locked when the data is touched in the composite object."*

:func:`inherited_lock_plan` computes exactly which scoped read locks a read
of an object entails: for every bound inheritance link, the permeable
members on the transmitter — transitively, because the transmitter may
itself inherit some of those members from higher up the abstraction
hierarchy.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from ..composition.composite import ExpansionWalk
from ..core import resolution as _resolution
from ..core.objects import DBObject
from ..core.surrogate import Surrogate
from .locks import LockMode

__all__ = [
    "inherited_lock_plan",
    "expansion_lock_plan",
    "naive_expansion_lock_plan",
    "note_inherited_conflict",
]

#: (object, members-to-lock) — members None means the whole object.
LockPlanItem = Tuple[DBObject, Optional[FrozenSet[str]]]


def inherited_lock_plan(
    obj: DBObject, members: Optional[FrozenSet[str]] = None
) -> List[LockPlanItem]:
    """Scoped transmitter read locks entailed by reading ``obj``.

    ``members`` restricts the read to some member names; only the links
    whose permeable set intersects it contribute.  The returned plan does
    **not** include ``obj`` itself.
    """
    plan: List[LockPlanItem] = []
    _collect(obj, members, plan, set())
    obs = getattr(obj.database, "obs", None)
    if obs is not None:
        obs.metrics.counter("locks.inherited_plans").inc()
        obs.metrics.histogram("locks.inherited_plan_size").observe(len(plan))
        audit = obs.audit
        if audit is not None:
            audit.record("lock.inherited_plan", obj, size=len(plan))
    return plan


def note_inherited_conflict(obs, obj, transmitter, exc, txn=None) -> None:
    """Count and audit a conflict hit while acquiring §6 inherited locks.

    Called by the transaction layer when the scoped read lock on a
    *transmitter* (not the object the session asked for) is what
    conflicted — the reverse-direction contention lock inheritance
    creates.  Separating these from direct conflicts is what lets the
    health rules and ``repro top`` tell "two writers on one object" apart
    from "a composite reader starved by component writers".
    """
    if obs is None:
        return
    obs.metrics.counter("locks.conflicts.inherited").inc()
    audit = obs.audit
    if audit is not None:
        audit.record(
            "lock.inherited_conflict",
            transmitter,
            inheritor=repr(obj),
            holder=getattr(exc, "holder", None),
            txn=txn,
        )


def _collect(
    obj: DBObject,
    members: Optional[FrozenSet[str]],
    plan: List[LockPlanItem],
    seen: Set[Surrogate],
) -> None:
    permeable_sets = _resolution.plan_for(obj.object_type).permeable_sets
    for link in obj.inheritance_links:
        # The plan interned one frozenset per inheritance relationship, so
        # no per-plan frozenset rebuilds here.
        permeable = permeable_sets.get(link.rel_type.name)
        if permeable is None:
            permeable = frozenset(link.rel_type.inheriting)
        relevant = permeable if members is None else permeable & members
        if not relevant:
            continue
        transmitter = link.transmitter
        plan.append((transmitter, relevant))
        if transmitter.surrogate not in seen:
            seen.add(transmitter.surrogate)
            # The transmitter may pass on members it inherits itself
            # (interface hierarchies): lock those upstream too.
            _collect(transmitter, relevant, plan, seen)


#: (object, scope, mode) — one entry of an expansion lock plan.
ExpansionPlanItem = Tuple[DBObject, Optional[FrozenSet[str]], str]


def _permeable(link) -> FrozenSet[str]:
    """The members ``link`` lets through to its inheritor."""
    permeable = _resolution.plan_for(link.inheritor.object_type).permeable_sets.get(
        link.rel_type.name
    )
    if permeable is None:
        permeable = frozenset(link.rel_type.inheriting)
    return permeable


def expansion_lock_plan(
    composite: DBObject, mode: str = LockMode.S
) -> List[ExpansionPlanItem]:
    """The lock set for working on a composite object's expansion (§6).

    Covers the composite itself, its whole subobject tree, and — through
    lock inheritance — the visible parts of every component the expansion
    reaches.  Components' *own* entries are scoped to their permeable
    members; everything inside the composite is locked whole.

    Returns ``(object, scope, mode)`` triples in expansion order; the
    transaction layer caps each mode through access control before
    acquiring.  The plan is computed from object structure alone (one
    :class:`~repro.composition.composite.ExpansionWalk`, no attribute
    values read); :func:`naive_expansion_lock_plan` is its oracle.
    """
    walk = ExpansionWalk(composite)
    order = walk.order
    own = walk.own
    plan: List[ExpansionPlanItem] = []
    for index, obj in enumerate(walk.objects):
        if id(obj) in own:
            plan.append((obj, None, mode))
            continue
        # A component reached through a link: only the part visible to
        # inheritors listed before it (or inside the composite) is locked,
        # and never exclusively through mere expansion.
        visible: Optional[FrozenSet[str]] = None
        for link in obj._links_as_transmitter:
            key = id(link.inheritor)
            if key in own or order.get(key, index) < index:
                permeable = _permeable(link)
                visible = permeable if visible is None else visible | permeable
        plan.append((obj, visible or None, LockMode.S))
    obs = getattr(composite.database, "obs", None)
    if obs is not None:
        obs.metrics.counter("locks.expansion_plans").inc()
        obs.metrics.histogram("locks.expansion_plan_size").observe(len(plan))
        audit = obs.audit
        if audit is not None:
            audit.record("lock.expansion_plan", composite, size=len(plan))
    return plan


def naive_expansion_lock_plan(
    composite: DBObject, mode: str = LockMode.S
) -> List[ExpansionPlanItem]:
    """Oracle for :func:`expansion_lock_plan`: the plan as first written.

    It expands the composite the way :func:`expand` did before the walk
    was shared — surrogate-keyed, through the public object API and the
    component-subobject lists — collects the composite's own tree in a
    second walk, and scopes every other object by the inheritors listed
    before it.  It shares no traversal code with the plan it checks.
    Reads no attribute values; a deleted composite raises
    :class:`~repro.errors.ObjectDeletedError` like the plan.
    """
    from ..composition.composite import component_subobjects

    composite._ensure_alive()
    objects: List[DBObject] = []
    seen: Set[Surrogate] = set()

    def realisation(component: DBObject) -> Optional[DBObject]:
        for link in component.inheritor_links:
            implementation = link.inheritor
            if implementation.parent is None and component_subobjects(
                implementation
            ):
                return implementation
        return None

    def visit(obj: DBObject) -> None:
        if obj.surrogate in seen:
            return
        seen.add(obj.surrogate)
        objects.append(obj)
        for name in obj.subclass_names():
            if obj.is_member_inherited(name):
                continue
            for member in obj.subclass(name):
                visit(member)
        links = obj.inheritance_links
        if links:
            component = links[0].transmitter
            visit(component)
            realised = realisation(component)
            if realised is not None:
                visit(realised)

    visit(composite)

    own_tree: Set[Surrogate] = set()

    def collect_tree(obj: DBObject) -> None:
        own_tree.add(obj.surrogate)
        for name in obj.subclass_names():
            if obj.is_member_inherited(name):
                continue
            for member in obj.subclass(name):
                collect_tree(member)

    collect_tree(composite)

    plan: List[ExpansionPlanItem] = []
    listed: Set[Surrogate] = set()
    for obj in objects:
        listed.add(obj.surrogate)
        if obj.surrogate in own_tree:
            plan.append((obj, None, mode))
            continue
        visible: Set[str] = set()
        for link in obj.inheritor_links:
            inheritor = link.inheritor
            if inheritor.surrogate in listed or inheritor.surrogate in own_tree:
                visible |= _permeable(link)
        plan.append((obj, frozenset(visible) if visible else None, LockMode.S))
    return plan

