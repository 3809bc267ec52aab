"""Tests for adaptation tracking and triggers (repro.consistency)."""

from typing import Any, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition import add_component
from repro.consistency import (
    AdaptationTracker,
    TriggerRegistry,
    auto_adapt_trigger,
)
from repro.ddl.paper import load_gate_schema
from repro.engine import Database
from repro.core.objects import InheritanceLink
from repro.errors import ReproError


@pytest.fixture
def db():
    db = Database("consistency")
    load_gate_schema(db.catalog)
    return db


@pytest.fixture
def tracker(db):
    return AdaptationTracker(db)


def make_pair(db):
    iface = db.create_object("GateInterface", Length=10, Width=5)
    iface.subclass("Pins").create(InOut="IN")
    impl = db.create_object("GateImplementation", transmitter=iface)
    return iface, impl


class TestAdaptationTracker:
    def test_attaches_to_database(self, db, tracker):
        assert db.consistency is tracker

    def test_transmitter_update_marks_link(self, db, tracker):
        iface, impl = make_pair(db)
        link = impl.inheritance_links[0]
        assert not tracker.needs_adaptation(link)
        iface.set_attribute("Length", 11)
        assert tracker.needs_adaptation(link)
        records = tracker.pending(link)
        assert records[0].member == "Length"
        assert records[0].old == 10 and records[0].new == 11

    def test_non_permeable_update_not_marked(self, db, tracker):
        iface, impl = make_pair(db)
        impl.set_attribute("TimeBehavior", 3)  # inheritor's own data
        assert not tracker.needs_adaptation(impl.inheritance_links[0])

    def test_all_implementations_marked(self, db, tracker):
        iface = db.create_object("GateInterface", Length=1, Width=1)
        impls = [
            db.create_object("GateImplementation", transmitter=iface)
            for _ in range(3)
        ]
        iface.set_attribute("Width", 2)
        worklist = tracker.inheritors_needing_adaptation()
        assert {o.surrogate for o in worklist} == {i.surrogate for i in impls}

    def test_subobject_change_marks_subclass_member(self, db, tracker):
        iface, impl = make_pair(db)
        iface.subclass("Pins").create(InOut="OUT")
        records = tracker.pending(impl)
        assert any(
            r.member == "Pins" and r.kind == "subobject_added" for r in records
        )

    def test_nested_subobject_update_bubbles_to_subclass_name(self, db, tracker):
        iface, impl = make_pair(db)
        pin = iface.subclass("Pins").members()[0]
        pin.set_attribute("PinLocation", (5, 5))
        records = tracker.pending(impl)
        assert any(r.member == "Pins" and r.kind == "subobject_updated" for r in records)

    def test_component_update_marks_composite_slot(self, db, tracker):
        iface, impl = make_pair(db)
        component_if = db.create_object("GateInterface", Length=3, Width=3)
        sub = add_component(impl, "SubGates", component_if, GateLocation=(0, 0))
        component_if.set_attribute("Length", 4)
        assert tracker.needs_adaptation(sub)
        assert not [
            r for r in tracker.pending(impl) if r.member == "Length"
        ]  # the composite's own interface did not change

    def test_acknowledge_clears_pending(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        iface.set_attribute("Width", 12)
        link = impl.inheritance_links[0]
        assert len(tracker.pending(link)) == 2
        closed = tracker.acknowledge(link)
        assert closed == 2
        assert not tracker.needs_adaptation(link)

    def test_acknowledge_up_to_seq(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        first_seq = tracker.pending(impl)[0].seq
        iface.set_attribute("Width", 12)
        tracker.acknowledge(impl, up_to_seq=first_seq)
        remaining = tracker.pending(impl)
        assert len(remaining) == 1 and remaining[0].member == "Width"

    def test_records_ordered_by_sequence(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        iface.set_attribute("Length", 12)
        seqs = [r.seq for r in tracker.pending(impl)]
        assert seqs == sorted(seqs)

    def test_describe_is_informative(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 11)
        text = tracker.pending(impl)[0].describe()
        assert "Length" in text and "AllOf_GateInterface" in text

    def test_detach_stops_tracking(self, db, tracker):
        iface, impl = make_pair(db)
        tracker.detach()
        iface.set_attribute("Length", 99)
        assert not tracker.all_pending()

    def test_clear(self, db, tracker):
        iface, impl = make_pair(db)
        iface.set_attribute("Length", 99)
        tracker.clear()
        assert not tracker.all_pending()


class TestTriggers:
    def test_trigger_fires_on_matching_event(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("log-updates", "attribute_updated", seen.append)
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 1)
        assert len(seen) >= 1
        assert registry.get("log-updates").fired >= 1

    def test_condition_filters(self, db):
        iface, _ = make_pair(db)
        registry = TriggerRegistry(db)
        seen = []
        registry.register(
            "length-only",
            "attribute_updated",
            seen.append,
            condition=lambda e: e.attribute == "Length",
        )
        iface.set_attribute("Width", 9)
        assert seen == []
        iface.set_attribute("Length", 9)
        assert len(seen) == 1

    def test_disable_enable(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("t", "attribute_updated", seen.append)
        registry.disable("t")
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 1)
        assert seen == []
        registry.enable("t")
        iface.set_attribute("Length", 2)
        assert len(seen) == 1

    def test_duplicate_name_rejected(self, db):
        registry = TriggerRegistry(db)
        registry.register("t", "x", lambda e: None)
        with pytest.raises(ReproError):
            registry.register("t", "y", lambda e: None)

    def test_unknown_trigger(self, db):
        registry = TriggerRegistry(db)
        with pytest.raises(ReproError):
            registry.get("nope")

    def test_wildcard_trigger(self, db):
        registry = TriggerRegistry(db)
        kinds = []
        registry.register("all", "*", lambda e: kinds.append(e.kind))
        make_pair(db)
        assert "object_created" in kinds

    def test_remove(self, db):
        registry = TriggerRegistry(db)
        seen = []
        registry.register("t", "attribute_updated", seen.append)
        registry.remove("t")
        iface, _ = make_pair(db)
        iface.set_attribute("Length", 5)
        assert seen == []


class TestSemiAutomaticCorrection:
    def test_auto_adapt_acknowledges_correctable_changes(self, db):
        tracker = AdaptationTracker(db)
        registry = TriggerRegistry(db)

        def corrector(record):
            # Width changes are auto-adaptable; Length needs a human.
            return record.member == "Width"

        auto_adapt_trigger(registry, tracker, corrector)
        iface, impl = make_pair(db)
        iface.set_attribute("Width", 50)
        assert not tracker.needs_adaptation(impl)  # auto-corrected
        iface.set_attribute("Length", 50)
        pending = tracker.pending(impl)
        assert len(pending) == 1 and pending[0].member == "Length"

    def test_declined_record_is_not_offered_again(self, db):
        tracker = AdaptationTracker(db)
        registry = TriggerRegistry(db)
        offered = []

        def corrector(record):
            offered.append((record.member, record.new))
            return False  # nothing is auto-adaptable

        auto_adapt_trigger(registry, tracker, corrector)
        iface, impl = make_pair(db)
        other = db.create_object("GateInterface", Length=1, Width=1)
        db.create_object("GateImplementation", transmitter=other)
        iface.set_attribute("Length", 50)
        assert offered == [("Length", 50)]
        other.set_attribute("Width", 7)  # an unrelated update
        assert offered == [("Length", 50), ("Width", 7)]
        # The declined record stays on the manual worklist.
        assert [r.member for r in tracker.pending(impl)] == ["Length"]


# ---------------------------------------------------------------------------
# differential: the log-based tracker against the eager one it replaced
# ---------------------------------------------------------------------------


class EagerRecord:
    def __init__(self, link, member, kind, old, new, seq):
        self.link, self.member, self.kind = link, member, kind
        self.old, self.new, self.seq = old, new, seq
        self.acknowledged = False


class EagerTracker:
    """The previous tracker, kept verbatim as the oracle: one record per
    affected link, appended at write time."""

    def __init__(self, database):
        self._records: Dict[Any, List[EagerRecord]] = {}
        self._seq = 0
        bus = database.events
        bus.subscribe("attribute_updated", self._on_attribute_updated)
        bus.subscribe("subobject_added", self._on_subobject_changed)
        bus.subscribe("subobject_removed", self._on_subobject_changed)

    def _on_attribute_updated(self, event):
        self._mark(event.subject, event.attribute, "attribute_updated",
                   old=event.old, new=event.new)

    def _on_subobject_changed(self, event):
        self._mark(event.subject, event.subclass, event.kind, new=event.member)

    def _mark(self, subject, member, kind, old=None, new=None):
        current: Optional[Any] = subject
        visible_member = member
        while current is not None:
            for link in current.inheritor_links:
                if link.rel_type.is_permeable(visible_member):
                    self._seq += 1
                    self._records.setdefault(link.surrogate, []).append(
                        EagerRecord(link, visible_member, kind, old, new, self._seq))
            parent = current.parent
            if parent is None:
                break
            container = current._container
            if container is None:
                break
            visible_member = container.name
            kind = "subobject_updated"
            current = parent

    def pending(self, target):
        if isinstance(target, InheritanceLink):
            links = [target]
        else:
            links = list(target.inheritance_links)
        found = []
        for link in links:
            found.extend(r for r in self._records.get(link.surrogate, [])
                         if not r.acknowledged)
        found.sort(key=lambda record: record.seq)
        return found

    def all_pending(self):
        found = [r for records in self._records.values() for r in records
                 if not r.acknowledged]
        found.sort(key=lambda record: record.seq)
        return found

    def inheritors_needing_adaptation(self):
        seen: Dict[Any, Any] = {}
        for record in self.all_pending():
            seen.setdefault(record.link.inheritor.surrogate, record.link.inheritor)
        return list(seen.values())

    def acknowledge(self, target, up_to_seq=None):
        count = 0
        for record in self.pending(target):
            if up_to_seq is not None and record.seq > up_to_seq:
                continue
            record.acknowledged = True
            count += 1
        return count


def _shape(records):
    """Records compared by link, member, kind, old, new and seq *order*."""
    return [(r.link.surrogate, r.member, r.kind, r.old, r.new) for r in records]


tracker_action = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2), st.sampled_from(["Length", "Width"]),
              st.integers(1, 9)),
    st.tuples(st.just("ack"), st.integers(0, 5), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("ack_link"), st.integers(0, 5)),
    st.tuples(st.just("ack_record"), st.integers(0, 5), st.integers(0, 4)),
    st.tuples(st.just("rebind"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("add_pin"), st.integers(0, 2)),
    st.tuples(st.just("move_pin"), st.integers(0, 2), st.integers(0, 9)),
    st.tuples(st.just("drop_pin"), st.integers(0, 2)),
    st.tuples(st.just("delete_impl"), st.integers(0, 5)),
)


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(tracker_action, min_size=1, max_size=16))
def test_tracker_matches_eager_oracle(actions):
    db = Database("adaptation-oracle")
    load_gate_schema(db.catalog)
    ifaces = [db.create_object("GateInterface", Length=i, Width=i) for i in range(3)]
    early = db.create_object("GateImplementation", transmitter=ifaces[0])
    tracker = AdaptationTracker(db)  # attached after one link exists
    oracle = EagerTracker(db)
    impls = [early] + [
        db.create_object("GateImplementation", transmitter=ifaces[i % 3])
        for i in range(5)
    ]
    links_seen = list({link for impl in impls for link in impl.inheritance_links})

    def check():
        for impl in impls:
            assert _shape(tracker.pending(impl)) == _shape(oracle.pending(impl))
        for link in links_seen:
            assert _shape(tracker.pending(link)) == _shape(oracle.pending(link))
        assert _shape(tracker.all_pending()) == _shape(oracle.all_pending())
        assert [o.surrogate for o in tracker.inheritors_needing_adaptation()] == [
            o.surrogate for o in oracle.inheritors_needing_adaptation()]

    for step in actions:
        kind = step[0]
        if kind == "write":
            ifaces[step[1]].set_attribute(step[2], step[3])
        elif kind == "ack":
            impl = impls[step[1]]
            mine, theirs = tracker.pending(impl), oracle.pending(impl)
            if step[2] is None or step[2] >= len(mine):
                assert tracker.acknowledge(impl) == oracle.acknowledge(impl)
            else:
                assert tracker.acknowledge(impl, mine[step[2]].seq) == (
                    oracle.acknowledge(impl, theirs[step[2]].seq))
        elif kind == "ack_link":
            link = links_seen[step[1] % len(links_seen)]
            assert tracker.acknowledge(link) == oracle.acknowledge(link)
        elif kind == "ack_record":
            mine = tracker.pending(impls[step[1]])
            theirs = oracle.pending(impls[step[1]])
            if step[2] < len(mine):
                mine[step[2]].acknowledged = True
                theirs[step[2]].acknowledged = True
                assert mine[step[2]].acknowledged
        elif kind == "rebind":
            impl = impls[step[1]]
            if impl.deleted:
                continue
            for link in impl.inheritance_links:
                link.unbind()
            db.bind(impl, ifaces[step[2]], db.catalog.inheritance_type("AllOf_GateInterface"))
            links_seen.extend(impl.inheritance_links)
        elif kind == "add_pin":
            ifaces[step[1]].subclass("Pins").create(InOut="IN")
        elif kind == "move_pin":
            pins = ifaces[step[1]].subclass("Pins").members()
            if pins:
                pins[0].set_attribute("PinLocation", (step[2], 0))
        elif kind == "drop_pin":
            pins = ifaces[step[1]].subclass("Pins").members()
            if pins:
                ifaces[step[1]].subclass("Pins").remove(pins[-1])
        elif kind == "delete_impl":
            impls[step[1]].delete()
        check()
