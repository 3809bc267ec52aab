"""E2 — Figure 2: interface-update propagation to N implementations.

The claim quantified: with value inheritance, a transmitter update costs
O(1) regardless of how many implementations exist (they read through),
while a copy-based regime must re-materialise every copy — O(N·size).
Read-through adds a small constant per access.
"""

import pytest

from repro.composition import clone_object, stale_members
from repro.workloads import gate_database, make_implementation, make_interface

FANOUTS = [1, 10, 100]


class TestInterfaceUpdate:
    @pytest.mark.parametrize("n_impls", FANOUTS)
    def test_update_with_inheritance(self, benchmark, n_impls):
        """One attribute write, regardless of inheritor count."""
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        for _ in range(n_impls):
            make_implementation(db, iface)
        counter = iter(range(10**9))

        def update():
            iface.set_attribute("Length", 10 + next(counter) % 50)

        benchmark(update)

    @pytest.mark.parametrize("n_impls", FANOUTS)
    def test_update_with_copies(self, benchmark, n_impls):
        """The copy baseline: the update must be pushed into every copy."""
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        copies = [clone_object(iface) for _ in range(n_impls)]
        counter = iter(range(10**9))

        def update_and_refresh():
            value = 10 + next(counter) % 50
            iface.set_attribute("Length", value)
            for copy in copies:
                # Re-materialise the changed attribute in each copy.
                copy._write_cell("Length", value)

        benchmark(update_and_refresh)


class TestReadThrough:
    def test_local_attribute_read(self, benchmark):
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        benchmark(iface.get_member, "Length")

    def test_inherited_attribute_read(self, benchmark):
        """One delegation hop: the price of always-fresh data."""
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        assert impl.get_member("Length") == iface.get_member("Length")
        benchmark(impl.get_member, "Length")

    def test_inherited_subclass_read(self, benchmark):
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        benchmark(impl.get_member, "Pins")


class TestStalenessDetection:
    @pytest.mark.parametrize("n_impls", [10, 100])
    def test_copy_staleness_scan(self, benchmark, n_impls):
        """What the copy regime must *additionally* run to regain the
        freshness inheritance gives for free."""
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        copies = [clone_object(iface) for _ in range(n_impls)]
        iface.set_attribute("Length", 99)

        def scan():
            return sum(1 for copy in copies if stale_members(copy, iface))

        assert scan() == n_impls
        benchmark(scan)


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    fanout = 10 if suite.quick else 100

    @suite.case(f"update_with_inheritance[{fanout}]")
    def inherit_case():
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        for _ in range(fanout):
            make_implementation(db, iface)
        counter = iter(range(10**9))
        return lambda: iface.set_attribute("Length", 10 + next(counter) % 50)

    @suite.case(f"update_with_copies[{fanout}]")
    def copy_case():
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        copies = [clone_object(iface) for _ in range(fanout)]
        counter = iter(range(10**9))

        def update_and_refresh():
            value = 10 + next(counter) % 50
            iface.set_attribute("Length", value)
            for copy in copies:
                copy._write_cell("Length", value)

        return update_and_refresh

    @suite.case("local_read")
    def local_case():
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        return lambda: iface.get_member("Length")

    @suite.case("inherited_read")
    def inherited_case():
        db = gate_database("fig2-bench")
        iface = make_interface(db)
        impl = make_implementation(db, iface)
        assert impl.get_member("Length") == iface.get_member("Length")
        return lambda: impl.get_member("Length")
