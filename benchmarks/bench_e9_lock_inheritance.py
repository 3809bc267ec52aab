"""E9 — §6 ablation: lock inheritance and expansion locking.

* cost of a locked read with/without lock inheritance (plain objects vs.
  components with transmitters vs. deep abstraction chains);
* expansion locking vs. hierarchy size;
* the conflict-detection value: composite readers and component writers
  collide only when lock inheritance is on (asserted).
"""

import pytest

from repro.composition import add_component
from repro.errors import LockConflictError
from repro.txn import TransactionManager, inherited_lock_plan
from repro.workloads import (
    gate_database,
    generate_component_tree,
    make_implementation,
    make_interface,
)


def composite_db():
    db = gate_database("e9-bench")
    tm = TransactionManager(db)
    own_if = make_interface(db, length=40)
    impl = make_implementation(db, own_if)
    component_if = make_interface(db, length=10)
    slot = add_component(impl, "SubGates", component_if,
                         GateLocation={"X": 0, "Y": 0})
    return db, tm, impl, own_if, component_if, slot


class TestLockedReadCost:
    def test_read_plain_object(self, benchmark):
        db, tm, impl, own_if, component_if, slot = composite_db()
        plain = db.create_object("PinType", InOut="IN")

        def run():
            txn = tm.begin()
            txn.read(plain)
            txn.commit()

        benchmark(run)

    def test_read_with_lock_inheritance(self, benchmark):
        db, tm, impl, own_if, component_if, slot = composite_db()

        def run():
            txn = tm.begin()
            txn.read(slot)  # + scoped S lock on the component interface
            txn.commit()

        benchmark(run)

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_plan_depth(self, benchmark, depth):
        db = gate_database("e9-bench")
        current = make_interface(db)
        rel = db.catalog.inheritance_type("AllOf_GateInterface_I")
        top = db.create_object("GateInterface_I")
        top.subclass("Pins").create(InOut="IN")
        chain = db.create_object("GateInterface", transmitter=top, Length=1, Width=1)
        impl = db.create_object("GateImplementation", transmitter=chain)
        # Depth here is fixed by the schema (2 hops); measure the plan walk.
        plan = benchmark(inherited_lock_plan, impl)
        assert len(plan) >= 2


class TestExpansionLocking:
    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_lock_expansion(self, benchmark, depth):
        db = gate_database("e9-bench")
        tm = TransactionManager(db)
        top, _ = generate_component_tree(db, depth=depth, fanout=2)

        def run():
            txn = tm.begin()
            count = txn.lock_expansion(top)
            txn.commit()
            return count

        locked = benchmark(run)
        assert locked > 2 ** depth

    def test_lock_expansion_design_size(self, benchmark):
        """The composite trees of cadbench's design_session (depth 4,
        branching 3): 121 components, one expansion lock plan each txn."""
        db = gate_database("e9-bench")
        tm = TransactionManager(db)
        top, created = generate_component_tree(db, depth=4, fanout=3)

        def run():
            txn = tm.begin()
            count = txn.lock_expansion(top)
            txn.commit()
            return count

        locked = benchmark(run)
        assert created == 121 and locked > created


class TestConflictDetection:
    def test_lock_inheritance_catches_cross_object_conflicts(self):
        """Not a timing: the §6 correctness claim.  The composite reader
        and the component writer touch *different objects*; only lock
        inheritance makes them conflict."""
        db, tm, impl, own_if, component_if, slot = composite_db()
        reader = tm.begin()
        reader.read(slot)
        writer = tm.begin()
        with pytest.raises(LockConflictError):
            writer.write(component_if, {"Length"})
        reader.commit()
        writer.write(component_if, {"Length"})
        writer.commit()

    def test_conflict_throughput(self, benchmark):
        """Rate of conflict checks: a writer probing a read-locked
        component (exception path included)."""
        db, tm, impl, own_if, component_if, slot = composite_db()
        reader = tm.begin()
        reader.read(slot)

        def probe():
            writer = tm.begin()
            try:
                writer.write(component_if, {"Length"})
            except LockConflictError:
                pass
            writer.abort()

        benchmark(probe)


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    depth = 2 if suite.quick else 3

    @suite.case("locked_read_plain")
    def plain_case():
        db, tm, impl, own_if, component_if, slot = composite_db()
        plain = db.create_object("PinType", InOut="IN")

        def run():
            txn = tm.begin()
            txn.read(plain)
            txn.commit()

        return run

    @suite.case("locked_read_inherited")
    def inherited_case():
        db, tm, impl, own_if, component_if, slot = composite_db()

        def run():
            txn = tm.begin()
            txn.read(slot)
            txn.commit()

        return run

    @suite.case(f"lock_expansion[{depth}]")
    def expansion_case():
        db = gate_database("e9-bench")
        tm = TransactionManager(db)
        top, _ = generate_component_tree(db, depth=depth, fanout=2)

        def run():
            txn = tm.begin()
            txn.lock_expansion(top)
            txn.commit()

        return run
