"""Generic relationships and version selection (§6).

*"If we use a static assignment of components to the composite object in
the inheritance relationship, it is not possible to incorporate new
versions of components automatically …  Therefore, often a generic
relationship is used (i.e. the component version is not fixed by the
relationship).  Using generic relationships the selection of component
versions is deferred to assembly-time."*

The three selection policies the paper lists:

1. :class:`QuerySelection` — *top-down*: the composite states the required
   properties of the component as a query;
2. :class:`DefaultSelection` — *bottom-up*: the design object supplies a
   default version;
3. :class:`EnvironmentSelection` — selection guided by information outside
   both objects (an :class:`~repro.versions.environments.Environment`).

A :class:`GenericRelationship` holds the unresolved slot; ``resolve(policy)``
selects a candidate from the design object's version graph and binds the
slot through the ordinary inheritance relationship — after resolution the
composite behaves exactly like a statically assigned one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..core.inheritance import InheritanceRelationshipType
from ..core.objects import DBObject, InheritanceLink, bind
from ..engine.query import evaluate_predicate
from ..errors import SelectionError
from .environments import Environment, EnvironmentRegistry
from .graph import VersionGraph
from .states import VersionState

__all__ = [
    "SelectionPolicy",
    "QuerySelection",
    "DefaultSelection",
    "EnvironmentSelection",
    "GenericRelationship",
]


class SelectionPolicy:
    """Strategy interface: choose one version among the candidates."""

    def choose(
        self, slot: "GenericRelationship", candidates: List[DBObject]
    ) -> DBObject:
        raise NotImplementedError


class QuerySelection(SelectionPolicy):
    """Top-down selection (§6 policy 1).

    ``where`` is a constraint-language expression or Python predicate over
    candidate versions ("the required properties of the component").  An
    expression runs the compiled program of each candidate's type, the
    same programs the query executor uses (see ``evaluate_predicate``).
    ``on_ties`` resolves multiple matches: ``"error"`` (default),
    ``"first"``, or ``"newest"`` (highest surrogate, i.e. latest created).
    """

    def __init__(self, where: Union[str, Callable], on_ties: str = "error"):
        if on_ties not in ("error", "first", "newest"):
            raise SelectionError(f"unknown tie-break {on_ties!r}")
        self.predicate = evaluate_predicate(where)
        self.where = where if isinstance(where, str) else getattr(where, "__name__", "<predicate>")
        self.on_ties = on_ties

    def choose(self, slot, candidates):
        matches = [c for c in candidates if self.predicate(c)]
        if not matches:
            raise SelectionError(
                f"no version satisfies {self.where!r} for {slot!r}"
            )
        if len(matches) == 1 or self.on_ties == "first":
            return matches[0]
        if self.on_ties == "newest":
            return max(matches, key=lambda c: c.surrogate)
        raise SelectionError(
            f"{len(matches)} versions satisfy {self.where!r} for {slot!r}; "
            f"refine the query or choose a tie-break"
        )


class DefaultSelection(SelectionPolicy):
    """Bottom-up selection (§6 policy 2): the graph's default version.

    With ``released_only=True`` the default must be in the RELEASED state
    (or FROZEN) to be eligible — an unreleased default is an error, not a
    silent fallback.
    """

    def __init__(self, released_only: bool = False):
        self.released_only = released_only

    def choose(self, slot, candidates):
        graph = slot.graph
        default = graph.default_version
        if default is None:
            raise SelectionError(f"version graph {graph.name!r} has no default")
        if default not in candidates:
            raise SelectionError(
                f"default version {default!r} is not an eligible candidate"
            )
        if self.released_only:
            state = graph.state_of(default)
            if state not in (VersionState.RELEASED, VersionState.FROZEN):
                raise SelectionError(
                    f"default version {default!r} is in state {state!r}, "
                    f"not released"
                )
        return default


class EnvironmentSelection(SelectionPolicy):
    """Environment-guided selection (§6 policy 3, after [DiLo85])."""

    def __init__(self, environment: Union[Environment, EnvironmentRegistry]):
        self.environment = environment

    def _resolve_environment(self) -> Environment:
        if isinstance(self.environment, EnvironmentRegistry):
            current = self.environment.current
            if current is None:
                raise SelectionError("no environment is active")
            return current
        return self.environment

    def choose(self, slot, candidates):
        environment = self._resolve_environment()
        design_object = slot.graph.design_object
        if design_object is None:
            raise SelectionError(
                f"graph {slot.graph.name!r} has no design object to look up"
            )
        version = environment.version_for(design_object)
        if version is None:
            raise SelectionError(
                f"environment {environment.name!r} assigns no version to "
                f"{design_object!r}"
            )
        if version not in candidates:
            raise SelectionError(
                f"environment {environment.name!r} assigns {version!r}, "
                f"which is not an eligible candidate"
            )
        return version


class GenericRelationship:
    """An unresolved component slot: inheritor + relationship + version graph.

    ``resolve(policy)`` performs assembly-time selection and establishes
    the ordinary inheritance link; ``re_resolve`` unbinds and selects again
    (e.g. after a new version was released or the environment changed).
    """

    def __init__(
        self,
        inheritor: DBObject,
        rel_type: InheritanceRelationshipType,
        graph: VersionGraph,
    ):
        self.inheritor = inheritor
        self.rel_type = rel_type
        self.graph = graph

    def candidates(self) -> List[DBObject]:
        """Versions eligible as transmitters for this slot's relationship."""
        return [
            version
            for version in self.graph.members()
            if version.object_type.conforms_to(self.rel_type.transmitter_type)
            and not version.deleted
        ]

    @property
    def resolved(self) -> bool:
        return self.inheritor.link_for(self.rel_type) is not None

    @property
    def current_version(self) -> Optional[DBObject]:
        return self.inheritor.transmitter_of(self.rel_type)

    def resolve(self, policy: SelectionPolicy) -> InheritanceLink:
        """Select and bind; fails when already resolved."""
        if self.resolved:
            raise SelectionError(
                f"{self.inheritor!r} is already bound via {self.rel_type.name!r}"
            )
        chosen = policy.choose(self, self.candidates())
        return bind(self.inheritor, chosen, self.rel_type)

    def re_resolve(self, policy: SelectionPolicy) -> InheritanceLink:
        """Unbind (if bound) and select afresh."""
        link = self.inheritor.link_for(self.rel_type)
        if link is not None:
            link.unbind()
        return self.resolve(policy)

    def unresolve(self) -> None:
        link = self.inheritor.link_for(self.rel_type)
        if link is not None:
            link.unbind()

    def __repr__(self) -> str:
        state = "resolved" if self.resolved else "unresolved"
        return (
            f"<GenericRelationship {self.inheritor!r} via "
            f"{self.rel_type.name} [{state}]>"
        )
