"""E10 — ablation: the cost of consistency machinery on the update path.

§4.1 hangs adaptation tracking and triggers off transmitter updates; both
run synchronously on the event bus.  This experiment prices that design:
update throughput with (a) a bare database, (b) the adaptation tracker
attached, (c) tracker + a trigger, (d) event recording on — each across a
fan-out of inheritors.  The tracker logs one entry per write on the
transmitter and builds per-link records only when they are read, so (b)
must not grow with the fan-out (``update_with_tracker[500]``).
"""

import pytest

from repro.consistency import AdaptationTracker, TriggerRegistry
from repro.workloads import gate_database, make_implementation, make_interface

FANOUTS = [1, 50]


def populated(db, n_impls):
    iface = make_interface(db)
    for _ in range(n_impls):
        make_implementation(db, iface)
    return iface


class TestUpdatePathOverhead:
    @pytest.mark.parametrize("n_impls", FANOUTS)
    def test_bare_update(self, benchmark, n_impls):
        db = gate_database("e10")
        iface = populated(db, n_impls)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", next(counter) % 500))

    @pytest.mark.parametrize("n_impls", FANOUTS + [500])
    def test_update_with_adaptation_tracker(self, benchmark, n_impls):
        db = gate_database("e10")
        tracker = AdaptationTracker(db)
        iface = populated(db, n_impls)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", next(counter) % 500))
        assert tracker.all_pending()  # the records really accrued
        # One log entry per write, however many implementations read it.
        assert tracker.retained() <= len(tracker.all_pending()) // n_impls

    @pytest.mark.parametrize("n_impls", FANOUTS)
    def test_update_with_tracker_and_trigger(self, benchmark, n_impls):
        db = gate_database("e10")
        AdaptationTracker(db)
        registry = TriggerRegistry(db)
        fired = []
        registry.register(
            "watch",
            "attribute_updated",
            fired.append,
            condition=lambda e: e.attribute == "Length",
        )
        iface = populated(db, n_impls)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", next(counter) % 500))
        assert fired

    def test_update_with_event_recording(self, benchmark):
        db = gate_database("e10")
        recorded = []
        db.events.subscribe("*", recorded.append)
        iface = populated(db, 10)
        counter = iter(range(10**9))
        benchmark(lambda: iface.set_attribute("Length", next(counter) % 500))
        assert recorded


class TestWorklistScan:
    @pytest.mark.parametrize("n_impls", [10, 100])
    def test_worklist_after_updates(self, benchmark, n_impls):
        db = gate_database("e10")
        tracker = AdaptationTracker(db)
        iface = populated(db, n_impls)
        for value in range(5):
            iface.set_attribute("Length", value + 1)
        worklist = benchmark(tracker.inheritors_needing_adaptation)
        assert len(worklist) == n_impls


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    fanout = 10 if suite.quick else 50

    @suite.case(f"bare_update[{fanout}]")
    def bare_case():
        db = gate_database("e10")
        iface = populated(db, fanout)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", next(counter) % 500)

    @suite.case(f"update_with_tracker[{fanout}]")
    def tracker_case():
        db = gate_database("e10")
        AdaptationTracker(db)
        iface = populated(db, fanout)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", next(counter) % 500)

    @suite.case("update_with_tracker[500]")
    def tracker_wide_case():
        # Fig. 2's yardstick: the write must not grow with the fan-out.
        db = gate_database("e10")
        AdaptationTracker(db)
        iface = populated(db, 500)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", next(counter) % 500)

    @suite.case(f"worklist_scan[{fanout}]")
    def worklist_case():
        db = gate_database("e10")
        tracker = AdaptationTracker(db)
        iface = populated(db, fanout)
        for value in range(5):
            iface.set_attribute("Length", value + 1)
        return tracker.inheritors_needing_adaptation
