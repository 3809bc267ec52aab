"""Configurations of composite objects (§2, item 1).

*"Which components does a composite object have, which components do its
components have, etc.?  These questions must be asked with particular
consideration of configuration control which is concerned with the problem
of providing all components of an object."*

The component graph is derived from the inheritance links of component
subobjects: composite → subobject → (link) → component, and the component —
typically an interface — belongs to a composite of its own level via its
implementations.  For configuration purposes we follow: composite →
component subobjects → their transmitters → *their* composites' component
subobjects, i.e. the design-level uses-hierarchy.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Set

from ..core.objects import DBObject
from ..core.surrogate import Surrogate
from .composite import component_subobjects, realisation_of

__all__ = [
    "ConfigurationNode",
    "configuration",
    "bill_of_materials",
    "where_used",
    "missing_components",
    "provides_all_components",
]


class ConfigurationNode:
    """One node of a configuration tree.

    ``subobject`` is the component subobject inside the parent composite
    (None at the root); ``component`` is the transmitter object the
    subobject inherits from (None at the root and for unbound subobjects);
    ``realisation`` is the object whose own components were expanded at the
    next level.
    """

    def __init__(
        self,
        realisation: DBObject,
        subobject: Optional[DBObject] = None,
        component: Optional[DBObject] = None,
    ):
        self.realisation = realisation
        self.subobject = subobject
        self.component = component
        self.children: List["ConfigurationNode"] = []

    def leaves(self) -> List["ConfigurationNode"]:
        if not self.children:
            return [self]
        collected: List[ConfigurationNode] = []
        for child in self.children:
            collected.extend(child.leaves())
        return collected

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def __repr__(self) -> str:
        return (
            f"<ConfigurationNode {self.realisation!r} "
            f"children={len(self.children)}>"
        )


def configuration(
    composite: DBObject, max_depth: Optional[int] = None
) -> ConfigurationNode:
    """The configuration tree of a composite object.

    Each child answers "which components does it have"; recursion answers
    the "which components do its components have" of §2.  Shared components
    appear once per use; cycles are cut (they cannot arise through
    inheritance links, but realisation hopping is guarded anyway).
    """
    root = ConfigurationNode(composite)
    _descend(root, composite, set(), max_depth)
    return root


def _descend(
    node: ConfigurationNode,
    realisation: DBObject,
    active: Set[Surrogate],
    remaining: Optional[int],
) -> None:
    if remaining is not None and remaining <= 0:
        return
    if realisation.surrogate in active:
        return
    active = active | {realisation.surrogate}
    for subobject in component_subobjects(realisation):
        component = subobject.inheritance_links[0].transmitter
        # A component without a realisation is a leaf or used directly.
        child_realisation = realisation_of(component) or component
        child = ConfigurationNode(child_realisation, subobject, component)
        node.children.append(child)
        _descend(
            child,
            child_realisation,
            active,
            None if remaining is None else remaining - 1,
        )


def bill_of_materials(composite: DBObject) -> Counter:
    """Leaf components of the configuration, counted per object type name."""
    tree = configuration(composite)
    counts: Counter = Counter()
    for leaf in tree.leaves():
        if leaf.component is not None:
            counts[leaf.component.object_type.name] += 1
    return counts


def where_used(component: DBObject) -> List[DBObject]:
    """Composites that use ``component`` (directly) as a component.

    A use is an inheritor link whose inheritor is a subobject of some
    complex object; the enclosing complex objects are returned (each once).
    """
    composites: List[DBObject] = []
    seen: Set[Surrogate] = set()
    for link in component.inheritor_links:
        owner = link.inheritor.parent
        if owner is not None and owner.surrogate not in seen:
            seen.add(owner.surrogate)
            composites.append(owner)
    return composites


def missing_components(composite: DBObject) -> List[DBObject]:
    """Subobjects of component subclasses that are *not* bound to anything.

    Configuration control's core question: are all components provided?
    A subobject whose element type declares inheritance relationships but
    which has no bound link is an unresolved component slot.
    """
    missing: List[DBObject] = []
    for name in composite.subclass_names():
        container = composite.subclass(name)
        if not container.element_type.inheritor_in:
            continue
        for member in container:
            if not member.inheritance_links:
                missing.append(member)
    return missing


def provides_all_components(composite: DBObject) -> bool:
    """True when every component slot of the whole configuration is bound."""
    if missing_components(composite):
        return False
    for subobject in component_subobjects(composite):
        component = subobject.inheritance_links[0].transmitter
        realisation = realisation_of(component) or component
        if realisation is not composite and not provides_all_components(realisation):
            return False
    return True
