"""Fan-out invariance of an interface write (§4.2, Fig. 2).

The paper's argument for value inheritance is that interface data is
stored once and read by every implementation through the link, so an
interface update costs O(1) in the number of implementations.  Derived
state must not bend that curve: with a value index on the inherited
``Length``, a view over the implementations and an adaptation tracker all
live, one interface write must do the same work at fan-out 1, 50 and 500.

The work is pinned as *counts*, not times: index entries (holder groups)
rewritten, view pointers rewritten, tracker log entries retained, and the
Python calls the write makes (``sys.setprofile``), which do not move with
machine noise.
"""

import sys

import pytest

from repro.consistency import AdaptationTracker
from repro.core.domains import ANY
from repro.engine.database import Database
from repro.query import run_query

FANOUTS = (1, 50, 500)

INDEXED = "select * from Impls where Length = 5"
VIEWED = "select * from Impls where Length + Width > 3"


def _library(fanout):
    db = Database(f"fanout{fanout}")
    db.indexes.min_index_source = 0
    db.views.min_view_source = 0
    iface = db.catalog.define_object_type(
        "Iface", attributes={"Length": ANY, "Width": ANY}
    )
    all_of = db.catalog.define_inheritance_type(
        "AllOf_Iface", iface, ["Length", "Width"]
    )
    impl = db.catalog.define_object_type("Impl", attributes={"Serial": ANY})
    impl.declare_inheritor_in(all_of)
    db.create_class("Impls", impl)
    tracker = AdaptationTracker(db)
    target = db.create_object(iface, Length=5, Width=2)
    other = db.create_object(iface, Length=9, Width=1)
    for i in range(fanout):
        db.create_object("Impl", class_name="Impls", transmitter=target, Serial=i)
    db.create_object("Impl", class_name="Impls", transmitter=other, Serial=-1)
    assert run_query(db, INDEXED).plan.access_path == "index-eq"
    assert run_query(db, VIEWED).plan.access_path == "view"
    return db, tracker, target


def _calls_during(action):
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls[0]


def _write_cost(fanout):
    db, tracker, target = _library(fanout)
    target.set_attribute("Length", 6)  # warm: steady state from here on

    def counts():
        return (
            db.indexes.stats["index.maintenance"],
            db.views.stats["query.view.refreshes"],
            tracker.retained(),
        )

    before = counts()
    calls = _calls_during(lambda: target.set_attribute("Length", 7))
    after = counts()
    # The write is visible everywhere it must be.
    assert len(run_query(db, "select * from Impls where Length = 7")) == fanout
    assert len(tracker.pending(target.inheritor_links[0])) == 2
    return tuple(b - a for a, b in zip(before, after)) + (calls,)


def test_interface_write_cost_is_independent_of_fanout():
    costs = {fanout: _write_cost(fanout) for fanout in FANOUTS}
    index_moves, view_moves, log_growth, calls = costs[FANOUTS[0]]
    # One group moves, no pointer moves, one log entry is kept.
    assert (index_moves, view_moves, log_growth) == (1, 0, 1)
    for fanout in FANOUTS[1:]:
        assert costs[fanout] == costs[FANOUTS[0]], costs


@pytest.mark.parametrize("fanout", FANOUTS)
def test_acknowledging_one_inheritor_leaves_the_others_pending(fanout):
    db, tracker, target = _library(fanout)
    target.set_attribute("Length", 6)
    first = target.inheritor_links[0]
    assert tracker.acknowledge(first.inheritor) == 1
    assert not tracker.pending(first)
    assert len(tracker.all_pending()) == fanout - 1
    assert tracker.retained() == (1 if fanout > 1 else 0)
