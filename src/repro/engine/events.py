"""Update-event bus.

The paper relies on change notification twice: §2/§4.1 (the inheritance
relationship's attributes inform users about transmitter changes, together
with "trigger mechanisms") and §6 (conflict identification through explicit
relationships).  The event bus is the substrate both the consistency
subsystem (:mod:`repro.consistency`) and the lock manager build on.

Event kinds emitted by the core layer:

========================  =====================================================
kind                      data
========================  =====================================================
``attribute_updated``     ``attribute``, ``old``, ``new``
``attribute_restored``    ``attribute`` (raw restore through
                          ``DBObject._restore_attribute``: txn abort,
                          version revert-and-reject, merge apply)
``object_deleted``        —
``subobject_added``       ``subclass``, ``member``
``subobject_removed``     ``subclass``, ``member``
``relationship_created``  ``subrel``, ``relationship``
``relationship_removed``  ``subrel``, ``relationship``
``inheritor_bound``       ``rel_type``, ``transmitter``, ``link``
``inheritor_unbound``     ``rel_type``, ``transmitter``
``object_created``        ``class_name`` (emitted by the database facade)
========================  =====================================================

Every event carries ``subject`` — the object it happened to.

Two tiers of handlers
---------------------

Change notification does two different jobs, and the bus keeps them apart:

* **Maintainers** — the engine's derived-state upkeep: value indexes, then
  materialized views (:data:`MAINTAINER_ORDER`).  A manager joins the tier
  with :meth:`EventBus.attach_maintainer` when it builds its first index or
  view; until then it costs nothing on emit.  Users cannot subscribe here.
* **Subscribers** — everything registered through :meth:`EventBus.subscribe`:
  triggers, consistency adaptation, the version state guard, the
  observability tap and its audit mirror.

:meth:`EventBus.emit` runs every maintainer for the event's kind first, in
tier order, and only then the subscribers, in registration order.

**Failure rule.**  A subscriber that raises propagates to the mutating
call, and the remaining subscribers for that event do not run.  The
mutation itself stays applied, and every index and view already agrees
with it: maintenance ran before any subscriber could stop dispatch.  (A
handler that wants the write undone — the version state guard — restores
it itself through ``DBObject._restore_attribute``, whose
``attribute_restored`` event the maintainers see like any other.)

Causal stamping
---------------

Every event is stamped with a **process-global** monotonic sequence number
(``seq``) so rings from different databases merge into one deterministic
order, plus a causal context:

* ``cause`` — the ``seq`` of the event (or audit operation) whose handler
  emitted this one, ``None`` for root events;
* ``trace`` — the ``seq`` of the root of the causal chain (a root event's
  ``trace`` is its own ``seq``).

The bus maintains a cause stack: while an event's handlers (both tiers)
run, its ``(seq, trace)`` is on top, so anything a handler emits — trigger
consequences, consistency adaptations, index maintenance — is linked to
its parent automatically.  The provenance layer (:mod:`repro.obs.provenance`)
reconstructs per-mutation propagation cones from exactly this, and its
audit ring is where emitted events are kept for inspection.

``ts`` (``time.time()``) is stamped when a subscriber can observe the
event.  Maintainers never read it, so a bus without subscribers skips the
clock read and the unobserved emit path stays free of syscalls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import time as _time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Event", "EventBus", "MAINTAINER_ORDER", "Subscription", "next_seq"]

#: Process-global event sequence.  Shared by every bus (and by the audit
#: log's derived records) so any two stamped records are totally ordered.
_GLOBAL_SEQ = itertools.count(1)

#: Draw the next global sequence number (used by the provenance layer for
#: derived audit records that are not bus events).
next_seq = _GLOBAL_SEQ.__next__

#: The maintainer tier, in dispatch order: value indexes, then views.
MAINTAINER_ORDER: Tuple[str, ...] = ("indexes", "views")


class Event:
    """One change notification.

    A plain ``__slots__`` record: one is built on every emit, quiet bus or
    not, so construction must stay cheap.  Payload keys read as attributes
    (``event.attribute``); treat instances as immutable.
    """

    __slots__ = ("kind", "subject", "data", "seq", "ts", "cause", "trace")

    def __init__(
        self,
        kind: str,
        subject: Any = None,
        data: Optional[Dict[str, Any]] = None,
        seq: int = 0,
        ts: float = 0.0,
        cause: Optional[int] = None,
        trace: int = 0,
    ) -> None:
        self.kind = kind
        self.subject = subject
        self.data: Dict[str, Any] = {} if data is None else data
        self.seq = seq
        self.ts = ts
        self.cause = cause
        self.trace = trace

    def __getattr__(self, name: str) -> Any:
        # Dunder lookups (``__deepcopy__``, ``__getstate__``, …) come from
        # copy/pickle/inspect machinery probing for optional protocols;
        # answering them out of ``data`` would corrupt those protocols, so
        # refuse immediately without touching the payload.  (Only reached
        # when normal lookup fails, i.e. never for the slots above once
        # ``__init__`` has run.)
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:
        return (
            f"Event(kind={self.kind!r}, subject={self.subject!r}, "
            f"data={self.data!r}, seq={self.seq}, cause={self.cause}, "
            f"trace={self.trace})"
        )


Handler = Callable[[Event], None]


@dataclass(frozen=True)
class Subscription:
    """Token returned by :meth:`EventBus.subscribe`; pass to unsubscribe."""

    kind: str
    token: int


class EventBus:
    """Synchronous publish/subscribe hub with an engine maintainer tier.

    Handlers run inline: maintainers first (tier order), then subscribers
    in registration order; a subscriber registered for the wildcard kind
    ``"*"`` receives every event after the kind's own subscribers.  See the
    module docstring for the failure rule.
    """

    WILDCARD = "*"

    def __init__(self) -> None:
        self._handlers: Dict[str, Dict[int, Handler]] = {}
        self._tokens = itertools.count(1)
        #: tier name -> {kind: handler}, for the maintainers attached so far.
        self._tier: Dict[str, Mapping[str, Handler]] = {}
        #: kind -> maintainer handlers in tier order (rebuilt on attach).
        self._maintainers: Dict[str, Tuple[Handler, ...]] = {}
        #: The causal-context stack: ``(seq, trace)`` of the event (or audit
        #: operation) whose handlers are currently running, innermost last.
        self._causes: List[Tuple[int, int]] = []

    def subscribe(self, kind: str, handler: Handler) -> Subscription:
        """Register ``handler`` for events of ``kind`` (or ``"*"``)."""
        token = next(self._tokens)
        self._handlers.setdefault(kind, {})[token] = handler
        return Subscription(kind, token)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a handler; unknown subscriptions are ignored."""
        handlers = self._handlers.get(subscription.kind)
        if handlers is not None:
            handlers.pop(subscription.token, None)

    def attach_maintainer(self, tier: str, handlers: Mapping[str, Handler]) -> None:
        """Join the engine maintainer tier ``tier`` (one of
        :data:`MAINTAINER_ORDER`) with ``{kind: handler}``.

        Idempotent per tier: the first attach wins, so a manager may call
        this every time it builds an index or view.
        """
        if tier in self._tier:
            return
        if tier not in MAINTAINER_ORDER:
            raise ValueError(f"unknown maintainer tier {tier!r}")
        self._tier[tier] = dict(handlers)
        by_kind: Dict[str, List[Handler]] = {}
        for name in MAINTAINER_ORDER:
            for kind, handler in self._tier.get(name, {}).items():
                by_kind.setdefault(kind, []).append(handler)
        self._maintainers = {kind: tuple(hs) for kind, hs in by_kind.items()}

    # -- causal context (used by repro.obs.provenance) ------------------------

    def cause_context(self) -> Optional[Tuple[int, int]]:
        """The ``(seq, trace)`` on top of the cause stack, if any."""
        causes = self._causes
        return causes[-1] if causes else None

    def push_cause(self, seq: int, trace: int) -> None:
        """Open a synthetic causal frame (an audit *operation*): events
        emitted until the matching :meth:`pop_cause` are its children."""
        self._causes.append((seq, trace))

    def pop_cause(self) -> None:
        self._causes.pop()

    # -- emission --------------------------------------------------------------

    def emit(self, kind: str, subject: Any = None, **data: Any) -> Event:
        """Publish an event: maintainers, then subscribers, synchronously."""
        seq = next(_GLOBAL_SEQ)
        causes = self._causes
        if causes:
            cause, trace = causes[-1]
        else:
            cause, trace = None, seq
        maintainers = self._maintainers.get(kind)
        handlers = self._handlers.get(kind)
        wildcards = self._handlers.get(self.WILDCARD)
        observed = handlers or wildcards
        event = Event(
            kind, subject, data, seq, _time() if observed else 0.0, cause, trace
        )
        if maintainers or observed:
            causes.append((seq, trace))
            try:
                if maintainers:
                    for maintainer in maintainers:
                        maintainer(event)
                if handlers:
                    for handler in list(handlers.values()):
                        handler(event)
                if wildcards:
                    for handler in list(wildcards.values()):
                        handler(event)
            finally:
                causes.pop()
        return event
