"""Trigger mechanism for semi-automatic consistency maintenance.

§4.1: *"In connection with trigger mechanism (which are not dealt with in
this paper) these informations can be used for building mechanisms for
semi-automatical corrections of consistency violations."*  The paper defers
the mechanism; this module supplies the minimal one its consistency story
needs: named triggers on the database's event bus, with a condition and an
action, plus a ready-made factory for the adaptation workflow
(:func:`auto_adapt_trigger`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..engine.events import Event
from ..errors import ReproError

__all__ = ["Trigger", "TriggerRegistry", "auto_adapt_trigger"]

Condition = Callable[[Event], bool]
Action = Callable[[Event], None]


@dataclass
class Trigger:
    """A named (event kind, condition, action) rule."""

    name: str
    kind: str
    action: Action
    condition: Optional[Condition] = None
    enabled: bool = True
    fired: int = 0

    def matches(self, event: Event) -> bool:
        if not self.enabled:
            return False
        if self.condition is None:
            return True
        return bool(self.condition(event))


class TriggerRegistry:
    """The triggers of one database."""

    def __init__(self, database):
        self.database = database
        self._triggers: Dict[str, Trigger] = {}
        self._subscription = database.events.subscribe("*", self._dispatch)

    def register(
        self,
        name: str,
        kind: str,
        action: Action,
        condition: Optional[Condition] = None,
    ) -> Trigger:
        """Define a trigger; names are unique."""
        if name in self._triggers:
            raise ReproError(f"trigger {name!r} already registered")
        trigger = Trigger(name=name, kind=kind, action=action, condition=condition)
        self._triggers[name] = trigger
        return trigger

    def remove(self, name: str) -> None:
        self._triggers.pop(name, None)

    def get(self, name: str) -> Trigger:
        try:
            return self._triggers[name]
        except KeyError:
            raise ReproError(f"unknown trigger {name!r}") from None

    def enable(self, name: str) -> None:
        self.get(name).enabled = True

    def disable(self, name: str) -> None:
        self.get(name).enabled = False

    def _dispatch(self, event: Event) -> None:
        for trigger in list(self._triggers.values()):
            if trigger.kind not in (event.kind, "*"):
                continue
            if trigger.matches(event):
                trigger.fired += 1
                trigger.action(event)

    def __len__(self) -> int:
        return len(self._triggers)

    def detach(self) -> None:
        self.database.events.unsubscribe(self._subscription)


def auto_adapt_trigger(
    registry: TriggerRegistry,
    tracker,
    corrector: Callable[[Any], bool],
    name: str = "auto-adapt",
) -> Trigger:
    """The semi-automatic correction pattern of §4.1.

    After every transmitter update, run ``corrector(record)`` on each fresh
    pending :class:`~repro.consistency.adaptation.AdaptationRecord` — the
    records that update created, nothing older; when the corrector returns
    True the record is acknowledged automatically, otherwise it stays on
    the user's manual worklist and is not offered again.  The tracker must
    be subscribed before the trigger registry (it logs the update first).
    """

    def action(event: Event) -> None:
        for record in tracker.records_for(event):
            if corrector(record):
                record.acknowledged = True

    return registry.register(
        name,
        "attribute_updated",
        action,
        condition=lambda event: bool(event.subject.inheritor_links),
    )
