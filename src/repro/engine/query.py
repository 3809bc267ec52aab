"""Queries and navigation.

Two styles are supported:

* predicate selection — :meth:`Database.select` with an expression in the
  paper's constraint language (``"Length > 10 and Function = AND"``) or a
  Python callable;
* navigation — walking the object graph: subobjects, participants,
  inheritance links, the complex-object tree.

The configuration-level traversals (component closure, where-used,
bill of materials) build on these and live in
:mod:`repro.composition.configuration`.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Union

from ..core.objects import DBObject, InheritanceLink, RelationshipObject
from ..errors import QueryError
from ..expr import EvalContext, truthy
from ..expr.compile import compiled_for

__all__ = [
    "evaluate_predicate",
    "walk_subobjects",
    "walk_tree",
    "relationships_of",
    "inheritors_of",
    "transmitters_of",
    "root_of",
]

Predicate = Callable[[DBObject], bool]


def evaluate_predicate(where: Union[str, Predicate]) -> Predicate:
    """Turn a where-condition into a Python predicate.

    Strings are parsed through the query parse LRU and run the compiled
    program of each object's type; a deleted object (``_row < 0``) takes
    the tree walk, which raises :class:`~repro.errors.ObjectDeletedError`.
    Callables pass through unchanged.
    """
    if callable(where):
        return where
    if isinstance(where, str):
        from ..query.parser import parse_where

        node = parse_where(where)

        def predicate(obj: DBObject) -> bool:
            if obj._row < 0:
                return truthy(node.evaluate(EvalContext(obj)))
            return compiled_for(node, obj.object_type).predicate(obj)

        return predicate
    raise QueryError(f"cannot interpret {where!r} as a selection condition")


def walk_subobjects(obj: DBObject) -> Iterator[DBObject]:
    """Yield every direct subobject (all local subclasses)."""
    for name in obj.subclass_names():
        for member in obj.subclass(name):
            yield member


def walk_tree(obj: DBObject, include_relationships: bool = False) -> Iterator[DBObject]:
    """Depth-first traversal of the complex-object tree rooted at ``obj``.

    Yields ``obj`` itself first, then subobjects recursively; with
    ``include_relationships=True`` local relationship objects are yielded
    too (after the subobjects of each level).
    """
    yield obj
    for member in walk_subobjects(obj):
        yield from walk_tree(member, include_relationships=include_relationships)
    if include_relationships:
        for name in obj.subrel_names():
            for rel in obj.subrel(name):
                yield rel


def relationships_of(obj: DBObject) -> List[RelationshipObject]:
    """Relationship objects this object participates in (excluding
    inheritance links, which :func:`inheritors_of` / :func:`transmitters_of`
    expose)."""
    return [
        rel
        for rel in obj._participating
        if not isinstance(rel, InheritanceLink)
    ]


def inheritors_of(obj: DBObject) -> List[DBObject]:
    """Objects that inherit values from ``obj`` (direct inheritors)."""
    return [link.inheritor for link in obj.inheritor_links]


def transmitters_of(obj: DBObject) -> List[DBObject]:
    """Objects ``obj`` inherits values from (its bound transmitters)."""
    return [link.transmitter for link in obj.inheritance_links]


def root_of(obj: DBObject) -> DBObject:
    """The outermost complex object containing ``obj`` (possibly itself)."""
    current = obj
    while current.parent is not None:
        current = current.parent
    return current
