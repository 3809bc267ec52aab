"""Version states — classification "according to their degree of
correctness" (§6).

The state machine follows the design lifecycle the paper's version
references ([KSWi86], [Wilk87]) describe:

    IN_DESIGN → CONSISTENT → RELEASED → FROZEN

* IN_DESIGN   — freely updatable working version;
* CONSISTENT  — passed its constraints; still updatable (drops back to
  IN_DESIGN on update);
* RELEASED    — visible to other designers, immutable;
* FROZEN      — archived, immutable, cannot even be re-opened.

:class:`StateGuard` wires the rules into a database's event bus: an
attribute update on a released/frozen version is reverted and rejected.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..core.objects import DBObject
from ..core.slots import UNSET
from ..core.surrogate import Surrogate
from ..errors import VersionError

__all__ = ["VersionState", "can_transition", "StateGuard"]


class VersionState:
    """Version lifecycle states (string constants with ordering)."""

    IN_DESIGN = "in_design"
    CONSISTENT = "consistent"
    RELEASED = "released"
    FROZEN = "frozen"

    ALL: Tuple[str, ...] = (IN_DESIGN, CONSISTENT, RELEASED, FROZEN)

    #: Allowed transitions; an update of a CONSISTENT version implicitly
    #: drops it back to IN_DESIGN.
    TRANSITIONS: Dict[str, FrozenSet[str]] = {
        IN_DESIGN: frozenset([CONSISTENT]),
        CONSISTENT: frozenset([IN_DESIGN, RELEASED]),
        RELEASED: frozenset([FROZEN]),
        FROZEN: frozenset(),
    }

    #: States in which the version's data may still change.
    MUTABLE: FrozenSet[str] = frozenset([IN_DESIGN, CONSISTENT])


def can_transition(current: str, target: str) -> bool:
    """True when the lifecycle permits ``current`` → ``target``."""
    if current not in VersionState.TRANSITIONS:
        raise VersionError(f"unknown version state {current!r}")
    if target not in VersionState.TRANSITIONS:
        raise VersionError(f"unknown version state {target!r}")
    return target in VersionState.TRANSITIONS[current]


class StateGuard:
    """Enforces immutability of released/frozen versions on a database.

    The guard subscribes to ``attribute_updated`` events; when the subject
    is a guarded version in an immutable state the update is **reverted**
    (the old value is restored directly) and :class:`VersionError` raised
    to the updating caller.  Subobject additions to immutable versions are
    rejected the same way.
    """

    def __init__(self, database):
        self.database = database
        self._states: Dict[Surrogate, str] = {}
        self._suspended = False
        bus = database.events
        self._subscriptions = [
            bus.subscribe("attribute_updated", self._on_attribute_updated),
            bus.subscribe("subobject_added", self._on_subobject_added),
        ]

    def state_of(self, obj: DBObject) -> Optional[str]:
        """The guarded state of ``obj`` (None when unguarded)."""
        return self._states.get(obj.surrogate)

    def set_state(self, obj: DBObject, state: str) -> None:
        """Guard ``obj`` in ``state`` (validating the transition if any)."""
        current = self._states.get(obj.surrogate)
        if current is not None and current != state and not can_transition(current, state):
            raise VersionError(
                f"version state transition {current!r} -> {state!r} of "
                f"{obj!r} is not allowed"
            )
        if state not in VersionState.ALL:
            raise VersionError(f"unknown version state {state!r}")
        self._states[obj.surrogate] = state

    def release(self, obj: DBObject) -> None:
        """Shortcut: mark consistent then released."""
        current = self._states.get(obj.surrogate, VersionState.IN_DESIGN)
        if current == VersionState.IN_DESIGN:
            self.set_state(obj, VersionState.CONSISTENT)
        self.set_state(obj, VersionState.RELEASED)

    def freeze(self, obj: DBObject) -> None:
        if self._states.get(obj.surrogate) != VersionState.RELEASED:
            self.release(obj)
        self.set_state(obj, VersionState.FROZEN)

    def _guarded_root(self, obj: DBObject) -> Optional[DBObject]:
        """The nearest enclosing guarded object (subobjects count too)."""
        current: Optional[DBObject] = obj
        while current is not None:
            if current.surrogate in self._states:
                return current
            current = current.parent
        return None

    def _on_attribute_updated(self, event) -> None:
        if self._suspended:
            return
        guarded = self._guarded_root(event.subject)
        if guarded is None:
            return
        state = self._states[guarded.surrogate]
        if state in VersionState.MUTABLE:
            if state == VersionState.CONSISTENT:
                # An update invalidates the consistency classification.
                self._states[guarded.surrogate] = VersionState.IN_DESIGN
            return
        # Revert and reject: the restore's own event brings indexes and
        # views back to the old value before the error propagates.
        event.subject._restore_attribute(
            event.attribute, UNSET if event.old is None else event.old
        )
        raise VersionError(
            f"{guarded!r} is {state} and must not be updated; derive a new "
            f"version instead"
        )

    def _on_subobject_added(self, event) -> None:
        if self._suspended:
            return
        guarded = self._guarded_root(event.subject)
        if guarded is None:
            return
        state = self._states[guarded.surrogate]
        if state in VersionState.MUTABLE:
            if state == VersionState.CONSISTENT:
                self._states[guarded.surrogate] = VersionState.IN_DESIGN
            return
        member = event.member
        container = event.subject.subclass(event.subclass)
        container._members.pop(member.surrogate, None)
        raise VersionError(
            f"{guarded!r} is {state}; its structure must not change"
        )

    def suspended(self):
        """Context manager: temporarily disable guarding (for loaders)."""
        guard = self

        class _Suspend:
            def __enter__(self):
                guard._suspended = True

            def __exit__(self, *exc):
                guard._suspended = False
                return False

        return _Suspend()
