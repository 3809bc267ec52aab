"""Composite objects: components as inheriting subobjects (§4.2, Figure 3/4).

A *component relationship* is modelled exactly as the paper prescribes: the
component is represented inside the composite by a **subobject** that is the
inheritor in an inheritance relationship whose transmitter is the component
(usually the component's interface).  The subobject adds local data such as
placement.

Helpers here cover building composites (:func:`add_component`), inspecting
them (:func:`components_of`, :func:`visible_image`) and the §6 *expansion*
of a composite object — the materialised view with all component data, which
the lock manager's expansion locking also traverses.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core import resolution as _resolution
from ..core.inheritance import InheritanceRelationshipType
from ..core.objects import DBObject
from ..core.surrogate import Surrogate
from ..errors import InheritanceError, UnknownAttributeError

__all__ = [
    "add_component",
    "components_of",
    "component_subobjects",
    "visible_image",
    "Expansion",
    "ExpansionWalk",
    "expand",
    "realisation_of",
]


def add_component(
    composite: DBObject,
    subclass_name: str,
    component: DBObject,
    rel_type: Optional[InheritanceRelationshipType] = None,
    **own_attrs: Any,
) -> DBObject:
    """Incorporate ``component`` into ``composite``.

    Creates a subobject in ``subclass_name`` bound to ``component`` through
    ``rel_type`` (or the element type's single declared inheritance
    relationship), with ``own_attrs`` as the subobject's local data
    (placement etc.).  Returns the component subobject.
    """
    container = composite.subclass(subclass_name)
    element_type = container.element_type
    if rel_type is None:
        declared = element_type.inheritor_in
        if len(declared) != 1:
            raise InheritanceError(
                f"element type {element_type.name!r} declares {len(declared)} "
                f"inheritance relationships; pass rel_type explicitly"
            )
        rel_type = declared[0]
    return container.create(transmitter=component, via=rel_type, **own_attrs)


def component_subobjects(composite: DBObject) -> List[DBObject]:
    """Subobjects of ``composite`` that are bound inheritors (components)."""
    found = []
    for name in composite.subclass_names():
        for member in composite.subclass(name):
            if member.inheritance_links:
                found.append(member)
    return found


def components_of(composite: DBObject) -> List[Tuple[DBObject, DBObject]]:
    """(subobject, component) pairs for every bound component subobject."""
    return [
        (subobject, subobject.inheritance_links[0].transmitter)
        for subobject in component_subobjects(composite)
    ]


def visible_image(obj: DBObject) -> Dict[str, Any]:
    """Every member visible on ``obj`` — local *and* inherited — by name.

    Attribute members map to their values, subclasses/subrels to member
    lists.  This is "the component's data visible in the composite object"
    made explicit.
    """
    image: Dict[str, Any] = {}
    for name in obj.visible_member_names():
        try:
            image[name] = obj.get_member(name)
        except UnknownAttributeError:  # dynamic types: unset names
            continue
    return image


class Expansion:
    """The materialised view of a composite object (§6).

    ``objects`` lists every object the expansion touches — the composite,
    its subobjects, and transitively the transmitters whose data is visible
    — which is exactly the set expansion locking must read-lock.
    """

    def __init__(self, root: DBObject, tree: Dict[str, Any], objects: List[DBObject]):
        self.root = root
        self.tree = tree
        self.objects = objects
        self._surrogates: Optional[Set[Surrogate]] = None

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, obj: object) -> bool:
        if not isinstance(obj, DBObject):
            return False
        if self._surrogates is None:
            self._surrogates = {o.surrogate for o in self.objects}
        return obj.surrogate in self._surrogates

    def __repr__(self) -> str:
        return f"<Expansion of {self.root!r} objects={len(self.objects)}>"


def _has_component_subobject(obj: DBObject) -> bool:
    """True when some subobject of ``obj`` is a bound inheritor."""
    for container in obj._subclasses.values():
        for member in container._members.values():
            if member._links_as_inheritor:
                return True
    return False


def realisation_of(component: DBObject) -> Optional[DBObject]:
    """The implementation whose structure realises an interface component.

    The first top-level inheritor of the component that itself has
    component subobjects; None when the component is a leaf (nothing
    deeper to materialise).  Expansion and configuration both descend
    through it.
    """
    for link in component._links_as_transmitter:
        implementation = link.inheritor
        if implementation.parent is None and _has_component_subobject(
            implementation
        ):
            return implementation
    return None


def _in_own_tree(obj: DBObject, root: DBObject) -> bool:
    """True when ``obj`` hangs below ``root`` by subobject edges alone,
    each through a container its owner does not inherit — the tree the
    expansion walk enters from the root."""
    while obj is not root:
        parent = obj.parent
        container = obj._container
        if (
            parent is None
            or container is None
            or parent.is_member_inherited(container.name)
        ):
            return False
        obj = parent
    return True


class ExpansionWalk:
    """One walk over what the expansion of ``root`` reaches (§6).

    ``objects`` lists every object in expansion order (preorder: an
    object, its subobjects, then its component and the component's
    realisation).  ``order`` maps ``id(object)`` to its position there and
    ``own`` holds the ids of the root's own subobject tree; both are keyed
    by ``id()`` because the object and surrogate hashes are Python-level.
    ``tree`` is the expansion tree when the walk was given ``materialise``,
    else None.  :func:`expand` and the §6 expansion lock plan both read
    this walk, so they cannot disagree on what an expansion reaches.
    """

    __slots__ = ("objects", "order", "own", "tree")

    def __init__(
        self,
        root: DBObject,
        depth: Optional[int] = None,
        materialise: Optional[Callable[[DBObject], Dict[str, Any]]] = None,
    ) -> None:
        root._ensure_alive()
        objects: List[DBObject] = []
        order: Dict[int, int] = {}
        own: Set[int] = set()
        #: id(component) -> its realisation, resolved once per walk.
        realisations: Dict[int, Optional[DBObject]] = {}
        build = materialise is not None

        def visit(
            obj: DBObject, remaining: Optional[int], is_own: Optional[bool]
        ) -> Optional[Dict[str, Any]]:
            key = id(obj)
            if key in order:
                return {"object": obj, "ref": True} if build else None
            order[key] = len(objects)
            objects.append(obj)
            if is_own is None:
                is_own = _in_own_tree(obj, root)
            if is_own:
                own.add(key)
            attributes = materialise(obj) if build else None
            links = obj._links_as_inheritor
            subobjects: Dict[str, List[Any]] = {}
            for name, container in obj._subclasses.items():
                if links and obj.is_member_inherited(name):
                    continue  # visible through the component link below
                subobjects[name] = [
                    visit(member, remaining, is_own)
                    for member in container._members.values()
                ]
            component_tree = realisation_tree = None
            if links and (remaining is None or remaining > 0):
                next_remaining = None if remaining is None else remaining - 1
                component = next(iter(links.values())).transmitter
                component_tree = visit(component, next_remaining, None)
                component_key = id(component)
                if component_key in realisations:
                    realisation = realisations[component_key]
                else:
                    realisation = realisations[component_key] = realisation_of(
                        component
                    )
                if realisation is not None:
                    realisation_tree = visit(realisation, next_remaining, None)
            if not build:
                return None
            return {
                "object": obj,
                "attributes": attributes,
                "subobjects": subobjects,
                "component": component_tree,
                "realisation": realisation_tree,
            }

        self.tree = visit(root, depth, True)
        self.objects = objects
        self.order = order
        self.own = own


def _attribute_values(obj: DBObject) -> Dict[str, Any]:
    return {
        name: obj.get_member(name)
        for name in _resolution.plan_for(obj.object_type).attribute_names
    }


def expand(composite: DBObject, depth: Optional[int] = None) -> Expansion:
    """Expand a composite object: materialise components recursively (§6).

    ``depth`` limits how many component levels are followed (``None`` = all
    levels).  Components that are interfaces are expanded *through their
    realisation* — the implementation that carries the next level of
    components — so a whole component hierarchy materialises, exactly the
    structure §6's expansion locking must cover.

    The expansion tree has the shape::

        {"object": obj,
         "attributes": {...local and inherited attribute values...},
         "subobjects": {subclass: [subtree, ...]},
         "component": subtree-of-the-transmitter-or-None,
         "realisation": subtree-of-the-realising-implementation-or-None,
         "ref": True}             # only on re-visits of a shared object

    Shared objects (a component used by several slots) are expanded once;
    later occurrences are reference nodes.  The traversal is
    :class:`ExpansionWalk`; this adds the attribute values and the tree.
    """
    obs = getattr(composite.database, "obs", None)
    if obs is None:
        walk = ExpansionWalk(composite, depth, _attribute_values)
    else:
        slowlog = obs.slowlog
        started = perf_counter() if slowlog is not None else 0.0
        with obs.tracer.span(
            "composition.expand", root=str(composite.surrogate), depth=depth
        ) as span:
            audit = obs.audit
            if audit is None:
                walk = ExpansionWalk(composite, depth, _attribute_values)
            else:
                # A causal frame: a re-expansion triggered from inside an
                # event handler links to the mutation that caused it.
                with audit.operation(
                    "composition.expand", composite, depth=depth
                ) as record:
                    walk = ExpansionWalk(composite, depth, _attribute_values)
                    record.detail["objects"] = len(walk.objects)
            span.set(objects=len(walk.objects))
        obs.metrics.counter("composition.expansions").inc()
        obs.metrics.histogram("composition.expansion_size").observe(
            len(walk.objects)
        )
        if slowlog is not None:
            duration = perf_counter() - started
            if slowlog.exceeded("expansion", duration):
                slowlog.note(
                    "expansion",
                    duration,
                    subject=composite,
                    depth=depth,
                    objects=len(walk.objects),
                )
    return Expansion(composite, walk.tree, walk.objects)
