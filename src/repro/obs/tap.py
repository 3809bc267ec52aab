"""Event-bus telemetry: counters per event kind and propagation fan-out.

The :class:`EventTap` makes exactly **one** wildcard subscription on the
database's :class:`~repro.engine.events.EventBus` (so ``observe=False``
databases have zero observability subscriptions, and enabling it adds one).
Every event increments ``events.<kind>``; the kinds that drive the paper's
update-propagation story get richer treatment:

* ``attribute_updated`` — measures the transitive fan-out of the update
  through permeable inheritance links (``propagation.fanout`` histogram,
  ``propagation.fanout_total``, per-relationship-type counters
  ``propagation.by_rel_type.<name>``);
* ``inheritor_bound`` / ``inheritor_unbound`` — per-relationship-type
  binding churn (``inheritance.bound.<name>`` / ``inheritance.unbound.<name>``).

When an :class:`~repro.obs.provenance.AuditLog` is wired in (``audit``),
the tap also forwards every event to it — **through the same single
subscription**; the audit ring is the one place emitted events are kept
for post-mortem inspection (:meth:`AuditLog.events`).  While measuring
propagation, the tap appends one batched
``propagation.fanout`` record per measured update carrying every
``(link, inheritor, depth)`` arrival, causally linked to the update.  The
batch reuses the tuples the depth walk already yields (one list append
per inheritor — no per-inheritor record allocation, which is what keeps
the audit tax within the E16 budget), and is what lets a
:class:`~repro.obs.provenance.PropagationCone` be reconstructed per root
mutation.
"""

from __future__ import annotations

from time import perf_counter

from ..core.inheritance import iter_propagation, iter_propagation_depths
from ..engine.events import Event, EventBus
from .metrics import FANOUT_BUCKETS, MetricsRegistry

__all__ = ["EventTap"]


class EventTap:
    """One subscription turning bus traffic into metrics (and audit records)."""

    def __init__(
        self,
        bus: EventBus,
        metrics: MetricsRegistry,
        track_propagation: bool = True,
        audit=None,
        slowlog=None,
    ):
        self.bus = bus
        self.metrics = metrics
        self.track_propagation = track_propagation
        self.audit = audit
        self.slowlog = slowlog
        self._subscription = bus.subscribe(EventBus.WILDCARD, self._on_event)

    # -- handler -----------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        metrics = self.metrics
        metrics.counter(f"events.{event.kind}").inc()
        audit = self.audit
        if audit is not None:
            audit.on_event(event)
        kind = event.kind
        if kind == "attribute_updated":
            metrics.counter("propagation.updates").inc()
            if self.track_propagation:
                self._measure_propagation(event)
        elif kind == "inheritor_bound":
            metrics.counter(
                f"inheritance.bound.{event.data['rel_type'].name}"
            ).inc()
        elif kind == "inheritor_unbound":
            metrics.counter(
                f"inheritance.unbound.{event.data['rel_type'].name}"
            ).inc()

    def _measure_propagation(self, event: Event) -> None:
        metrics = self.metrics
        audit = self.audit
        slowlog = self.slowlog
        started = perf_counter() if slowlog is not None else 0.0
        attribute = event.data["attribute"]
        fanout = 0
        reached = None
        if audit is not None:
            # The depth-annotated walk has the same membership/dedup as
            # iter_propagation (tested).  The arrivals are batched into
            # one causally linked record per update, storing the yielded
            # (link, inheritor, depth) tuples as-is: one list append per
            # inheritor on top of the measurement walk.
            reached = []
            append = reached.append
            for item in iter_propagation_depths(event.subject, attribute):
                fanout += 1
                metrics.counter(
                    f"propagation.by_rel_type.{item[0].rel_type.name}"
                ).inc()
                append(item)
            if reached:
                audit.event_child(
                    event,
                    "propagation.fanout",
                    subject=event.subject,
                    attribute=attribute,
                    reached=reached,
                )
        else:
            for link, _inheritor in iter_propagation(event.subject, attribute):
                fanout += 1
                metrics.counter(
                    f"propagation.by_rel_type.{link.rel_type.name}"
                ).inc()
        metrics.histogram("propagation.fanout", FANOUT_BUCKETS).observe(fanout)
        metrics.counter("propagation.fanout_total").inc(fanout)
        if fanout:
            metrics.counter("propagation.updates_with_inheritors").inc()
        if slowlog is not None:
            duration = perf_counter() - started
            if slowlog.exceeded("propagation", duration):
                # The cone summary is the diagnosis: how wide and (when the
                # audit walk annotated depths) how deep the update reached.
                slowlog.note(
                    "propagation",
                    duration,
                    subject=event.subject,
                    attribute=attribute,
                    fanout=fanout,
                    depth=max((item[2] for item in reached), default=0)
                    if reached is not None
                    else None,
                )

    # -- lifecycle ---------------------------------------------------------------

    def detach(self) -> None:
        """Unsubscribe from the bus; the tap stops counting."""
        if self._subscription is not None:
            self.bus.unsubscribe(self._subscription)
            self._subscription = None

    def __repr__(self) -> str:
        attached = "attached" if self._subscription is not None else "detached"
        return f"<EventTap {attached}>"
