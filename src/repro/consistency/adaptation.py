"""Adaptation tracking on inheritance relationships (§2, §4.1).

*"If an update of the transmitter object occurs, the inheritor object
possibly has to be adapted since some local data do not fit the inherited
data any more.  In most cases this adaptation has to be done manually by a
user.  To inform the user about changes of the transmitter object the
attributes of the relationship can be used."*

The :class:`AdaptationTracker` implements exactly that: it listens on the
database's event bus, and the workflow is manual-by-default, as the paper
prescribes — a designer inspects :meth:`AdaptationTracker.pending`,
adapts the inheritor, and acknowledges the record.  Semi-automatic
correction hooks are built on top with :mod:`repro.consistency.triggers`.

The change itself is stored once, on the transmitter, the way the paper
stores interface data once (§4.2): a write appends **one log entry per
containment level** to the transmitter's log — member, kind, old and new
value, a sequence number and the rel types the member was permeable
through at write time — whatever the number of links.  Each link keeps
only the sequence number it was bound at (and unbound at), an
acknowledgement watermark and a small set of sequence numbers
acknowledged one by one.  :class:`AdaptationRecord` objects are built
when they are read; setting ``record.acknowledged = True`` writes through
to the tracker.  Log entries below the watermark of every link are
dropped when links are acknowledged.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.objects import DBObject, InheritanceLink
from ..core.surrogate import Surrogate

__all__ = ["AdaptationRecord", "AdaptationTracker"]


class AdaptationRecord:
    """One transmitter change a link's inheritor may have to adapt to."""

    __slots__ = ("link", "member", "kind", "old", "new", "seq", "_tracker")

    def __init__(
        self,
        link: InheritanceLink,
        member: str,
        kind: str,  # 'attribute_updated' | 'subobject_added' | …_removed | …_updated
        old: Any = None,
        new: Any = None,
        seq: int = 0,
        tracker: Optional["AdaptationTracker"] = None,
    ) -> None:
        self.link = link
        self.member = member
        self.kind = kind
        self.old = old
        self.new = new
        self.seq = seq
        self._tracker = tracker

    @property
    def acknowledged(self) -> bool:
        tracker = self._tracker
        return tracker is not None and tracker._is_acknowledged(self.link, self.seq)

    @acknowledged.setter
    def acknowledged(self, value: bool) -> None:
        if not value:
            raise ValueError("an acknowledgement cannot be withdrawn")
        if self._tracker is not None:
            self._tracker._acknowledge_one(self.link, self.seq)

    def __repr__(self) -> str:
        return (f"AdaptationRecord(link={self.link!r}, member={self.member!r}, "
                f"kind={self.kind!r}, old={self.old!r}, new={self.new!r}, "
                f"seq={self.seq})")

    def describe(self) -> str:
        inheritor = self.link.inheritor
        return (
            f"{self.kind} of {self.member!r} on {self.link.transmitter!r} "
            f"affects {inheritor!r} (via {self.link.rel_type.name})"
        )


class _Entry:
    """One change of one transmitter, shared by all of its links."""

    __slots__ = ("member", "kind", "old", "new", "seq", "permeable")

    def __init__(self, member: str, kind: str, old: Any, new: Any, seq: int,
                 permeable: Tuple[str, ...]) -> None:
        self.member = member
        self.kind = kind
        self.old = old
        self.new = new
        self.seq = seq
        #: Names of the rel types the member was permeable through when
        #: the change was logged.
        self.permeable = permeable


class _Log:
    __slots__ = ("transmitter", "entries")

    def __init__(self, transmitter: DBObject) -> None:
        self.transmitter = transmitter
        self.entries: List[_Entry] = []


class _LinkState:
    """What one link has seen of its transmitter's log."""

    __slots__ = ("link", "bound", "ended", "watermark", "acked")

    def __init__(self, link: InheritanceLink, bound: int) -> None:
        self.link = link
        #: Entries after this seq apply to the link ...
        self.bound = bound
        #: ... up to this one, once the link is unbound.
        self.ended: Optional[int] = None
        #: Entries up to this seq are acknowledged ...
        self.watermark = 0
        #: ... and so are these, above it.
        self.acked: Set[int] = set()

    def low(self) -> int:
        return max(self.bound, self.watermark)


def _seq_of(entry: _Entry) -> int:
    return entry.seq


class AdaptationTracker:
    """Marks inheritance links whose inheritors may need adaptation."""

    def __init__(self, database: Any) -> None:
        self.database = database
        self._seq = 0
        self._logs: Dict[Surrogate, _Log] = {}
        self._links: Dict[Surrogate, _LinkState] = {}
        #: transmitter surrogate -> unbound links that may hold records.
        self._ended: Dict[Surrogate, List[_LinkState]] = {}
        #: transmitter surrogate -> {rel type: number of its links}, built
        #: lazily and kept by the bind/unbind handlers.
        self._rels: Dict[Surrogate, Dict[Any, int]] = {}
        #: The last attribute event handled and the entries it logged.
        self._fresh_event: Any = None
        self._fresh: List[Tuple[_Log, _Entry]] = []
        bus = database.events
        self._subscriptions = [
            bus.subscribe("attribute_updated", self._on_attribute_updated),
            bus.subscribe("subobject_added", self._on_subobject_changed),
            bus.subscribe("subobject_removed", self._on_subobject_changed),
            bus.subscribe("inheritor_bound", self._on_bound),
            bus.subscribe("object_deleted", self._on_deleted),
        ]
        database.consistency = self

    # -- event handling -----------------------------------------------------------

    def _on_attribute_updated(self, event: Any) -> None:
        self._mark(event, event.attribute, "attribute_updated",
                   old=event.old, new=event.new)

    def _on_subobject_changed(self, event: Any) -> None:
        self._mark(event, event.subclass, event.kind, new=event.member)

    def _on_bound(self, event: Any) -> None:
        link = event.data["link"]
        self._links[link.surrogate] = _LinkState(link, self._seq)
        rels = self._rels.get(link.transmitter.surrogate)
        if rels is None:
            self._rel_types(link.transmitter)  # counts the new link too
        else:
            rels[link.rel_type] = rels.get(link.rel_type, 0) + 1

    def _on_deleted(self, event: Any) -> None:
        link = event.subject
        if not isinstance(link, InheritanceLink):
            return
        transmitter = link.transmitter
        rels = self._rels.get(transmitter.surrogate)
        if rels is not None and link.rel_type in rels:
            rels[link.rel_type] -= 1
            if not rels[link.rel_type]:
                del rels[link.rel_type]
        state = self._state(link)
        state.ended = self._seq
        log = self._logs.get(transmitter.surrogate)
        if log is not None and log.entries and log.entries[-1].seq > state.low():
            self._ended.setdefault(transmitter.surrogate, []).append(state)

    def _mark(self, event: Any, member: str, kind: str, old: Any = None,
              new: Any = None) -> None:
        """Log the change at every containment level it is visible from.

        The changed object (the event's subject) may be the transmitter
        itself (attribute update) or a complex transmitter whose subclass
        content changed; in both cases ``member`` is the member name at the
        subject's level.  Levels further *up* the containment tree see the
        change under the name of the subclass the path passes through.
        """
        self._fresh_event = event
        self._fresh = []
        current: Optional[DBObject] = event.subject
        visible_member = member
        while current is not None:
            if current._links_as_transmitter:
                self._append(current, visible_member, kind, old, new)
            parent = current.parent
            if parent is None:
                break
            container = current._container
            if container is None:
                break
            visible_member = container.name
            kind = "subobject_updated"
            current = parent

    def _rel_types(self, transmitter: DBObject) -> Dict[Any, int]:
        rels = self._rels.get(transmitter.surrogate)
        if rels is None:
            rels = self._rels[transmitter.surrogate] = {}
            for link in transmitter._links_as_transmitter:
                rels[link.rel_type] = rels.get(link.rel_type, 0) + 1
        return rels

    def _append(self, transmitter: DBObject, member: str, kind: str, old: Any,
                new: Any) -> None:
        permeable = tuple(
            rel.name for rel in self._rel_types(transmitter)
            if rel.is_permeable(member)
        )
        if not permeable:
            return
        self._seq += 1
        log = self._logs.get(transmitter.surrogate)
        if log is None:
            log = self._logs[transmitter.surrogate] = _Log(transmitter)
        entry = _Entry(member, kind, old, new, self._seq, permeable)
        log.entries.append(entry)
        self._fresh.append((log, entry))

    # -- records, built on read ----------------------------------------------------

    def _state(self, link: InheritanceLink) -> _LinkState:
        state = self._links.get(link.surrogate)
        if state is None:
            # Bound before the tracker attached; if already gone, gone
            # before any entry was logged.
            state = self._links[link.surrogate] = _LinkState(link, 0)
            if link._deleted:
                state.ended = 0
        return state

    @staticmethod
    def _applies(state: _LinkState, entry: _Entry) -> bool:
        """True when ``entry`` is a pending record of ``state``'s link."""
        seq = entry.seq
        return not (seq <= state.low() or seq in state.acked
                    or (state.ended is not None and seq > state.ended)
                    or state.link.rel_type.name not in entry.permeable)

    def _record(self, link: InheritanceLink, entry: _Entry) -> AdaptationRecord:
        return AdaptationRecord(link, entry.member, entry.kind, entry.old,
                                entry.new, entry.seq, self)

    def _pending_entries(self, state: _LinkState) -> List[_Entry]:
        log = self._logs.get(state.link.transmitter.surrogate)
        if log is None:
            return []
        entries = log.entries
        start = bisect_right(entries, state.low(), key=_seq_of)
        return [entry for entry in entries[start:] if self._applies(state, entry)]

    def _records(self, state: _LinkState) -> List[AdaptationRecord]:
        return [self._record(state.link, entry)
                for entry in self._pending_entries(state)]

    def _link_states(self, log: _Log) -> List[_LinkState]:
        """Every link that may hold records of ``log``'s transmitter."""
        transmitter = log.transmitter
        states = [self._state(link) for link in transmitter._links_as_transmitter]
        states.extend(self._ended.get(transmitter.surrogate, ()))
        return states

    @staticmethod
    def _ordered(records: List[AdaptationRecord]) -> List[AdaptationRecord]:
        # Links of one entry share its seq; they order by binding, which
        # is the order the transmitter lists them in.
        records.sort(key=lambda record: (record.seq, record.link.surrogate))
        return records

    def _is_acknowledged(self, link: InheritanceLink, seq: int) -> bool:
        state = self._state(link)
        return seq <= state.low() or seq in state.acked

    def _acknowledge_one(self, link: InheritanceLink, seq: int) -> None:
        state = self._state(link)
        if seq > state.low():
            state.acked.add(seq)
            self._settle(state)

    def _settle(self, state: _LinkState) -> None:
        """Raise the watermark over the acknowledged prefix of the link's
        records, emptying ``acked`` as it goes."""
        log = self._logs.get(state.link.transmitter.surrogate)
        if log is None or not state.acked:
            return
        entries = log.entries
        for position in range(bisect_right(entries, state.low(), key=_seq_of),
                              len(entries)):
            entry = entries[position]
            if entry.seq in state.acked:
                state.acked.discard(entry.seq)
            elif self._applies(state, entry) or not state.acked:
                break
            state.watermark = entry.seq

    # -- inspection -----------------------------------------------------------------

    def needs_adaptation(self, target: Any) -> bool:
        """True when a link (or any link of an inheritor object) has
        unacknowledged records."""
        return bool(self.pending(target))

    @staticmethod
    def _links_of(target: Any) -> List[InheritanceLink]:
        if isinstance(target, InheritanceLink):
            return [target]
        return list(target.inheritance_links)

    def pending(self, target: Any) -> List[AdaptationRecord]:
        """Unacknowledged records for a link or an inheritor object."""
        found: List[AdaptationRecord] = []
        for link in self._links_of(target):
            found.extend(self._records(self._state(link)))
        return self._ordered(found)

    def all_pending(self) -> List[AdaptationRecord]:
        """Every unacknowledged record in the database."""
        found: List[AdaptationRecord] = []
        for log in self._logs.values():
            for state in self._link_states(log):
                found.extend(self._records(state))
        return self._ordered(found)

    def records_for(self, event: Any) -> List[AdaptationRecord]:
        """The unacknowledged records an ``attribute_updated`` event created
        (empty unless it is the last one this tracker handled)."""
        if event is not self._fresh_event:
            return []
        found: List[AdaptationRecord] = []
        for log, entry in self._fresh:
            for state in self._link_states(log):
                if self._applies(state, entry):
                    found.append(self._record(state.link, entry))
        return self._ordered(found)

    def inheritors_needing_adaptation(self) -> List[DBObject]:
        """Distinct inheritors with pending records (the user's worklist)."""
        seen: Dict[Surrogate, DBObject] = {}
        for record in self.all_pending():
            inheritor = record.link.inheritor
            seen.setdefault(inheritor.surrogate, inheritor)
        return list(seen.values())

    def retained(self) -> int:
        """Log entries currently kept (the tracker's memory, in changes)."""
        return sum(len(log.entries) for log in self._logs.values())

    # -- acknowledgement ---------------------------------------------------------------

    def acknowledge(self, target: Any, up_to_seq: Optional[int] = None) -> int:
        """Mark pending records as adapted; returns how many were closed."""
        mark = self._seq if up_to_seq is None else min(up_to_seq, self._seq)
        count = 0
        logs: List[_Log] = []
        for link in self._links_of(target):
            state = self._state(link)
            count += sum(1 for entry in self._pending_entries(state)
                         if entry.seq <= mark)
            if mark > state.watermark:
                state.watermark = mark
                state.acked = {seq for seq in state.acked if seq > mark}
            log = self._logs.get(link.transmitter.surrogate)
            if log is not None and log not in logs:
                logs.append(log)
        for log in logs:
            self._trim(log)
        return count

    def _trim(self, log: _Log) -> None:
        """Drop the entries every link has acknowledged."""
        ended = self._ended.get(log.transmitter.surrogate)
        if ended:
            ended[:] = [state for state in ended
                        if state.ended is not None and state.ended > state.low()]
        floor = min((state.low() for state in self._link_states(log)),
                    default=self._seq)
        del log.entries[:bisect_right(log.entries, floor, key=_seq_of)]
        if not log.entries:
            del self._logs[log.transmitter.surrogate]

    def clear(self) -> None:
        """Forget every logged change (link states stay: they still say
        when each link was bound and unbound)."""
        self._logs.clear()
        self._ended.clear()
        self._fresh = []

    def detach(self) -> None:
        """Unsubscribe from the event bus."""
        for subscription in self._subscriptions:
            self.database.events.unsubscribe(subscription)
        self._subscriptions = []
