"""The mutation funnel: engine maintenance runs before user hooks.

Value indexes and materialized views are derived state; they must agree
with the naive oracles (``indexes.auto = False`` + ``views=False`` for
queries, :func:`~repro.core.resolution.naive_get_member` for reads) after
every mutation.  That includes a mutation whose user hook raises — the
event bus runs its maintainer tier before any subscriber, so the raise
cannot skip maintenance — and the raw-restore paths (transaction abort,
version revert-and-reject, merge apply), which all go through
``DBObject._restore_attribute``.
"""

import pytest

from repro.core.resolution import naive_get_member
from repro.errors import VersionError
from repro.query import run_query
from repro.txn.transactions import TransactionManager
from repro.versions import StateGuard, VersionGraph, derive_version, merge_versions
from repro.workloads import gate_database, make_implementation, make_interface

#: Sargable: routed to a value index (``index-eq``).
INDEXED = "select * from Implementations where Length = {}"
#: Not sargable, over an inherited member: routed to the view.
VIEWED = "select * from Implementations where Length + 0 = {}"


class HookError(RuntimeError):
    pass


def _raise(event):
    raise HookError(event.kind)


def _library(n_ifaces=5, per_iface=5):
    """Interfaces with lengths 10, 11, … and ``per_iface`` implementations
    each, filed in ``Implementations`` (25 by default: above both routing
    thresholds)."""
    db = gate_database("funnel")
    db.create_class("Implementations", "GateImplementation")
    ifaces = []
    for i in range(n_ifaces):
        iface = make_interface(db, length=10 + i)
        ifaces.append(iface)
        for _ in range(per_iface):
            db.add_to_class(make_implementation(db, iface), "Implementations")
    return db, ifaces


def _oracle(db, text):
    auto = db.indexes.auto
    db.indexes.auto = False
    try:
        return run_query(db, text, views=False)
    finally:
        db.indexes.auto = auto


def _surrogates(result):
    return sorted(str(obj.surrogate) for obj in result.objects)


def assert_routed_agrees(db, template, value, access_path):
    """The routed query answers exactly what the oracle answers."""
    text = template.format(value)
    routed = run_query(db, text)
    assert routed.plan.access_path == access_path
    assert _surrogates(routed) == _surrogates(_oracle(db, text))
    return len(routed)


def _build_derived_state(db):
    """Build the Length value index and the implementation view."""
    assert_routed_agrees(db, INDEXED, 10, "index-eq")
    assert_routed_agrees(db, VIEWED, 10, "view")


def assert_reads(db, iface, expected):
    """Index, view, the live read and the naive oracle all see ``expected``
    for ``iface``'s implementations."""
    impls = [link.inheritor for link in iface.inheritor_links]
    assert impls
    for impl in impls:
        assert impl.get_member("Length") == expected
        assert naive_get_member(impl, "Length") == expected
    assert assert_routed_agrees(db, INDEXED, expected, "index-eq") >= len(impls)
    assert assert_routed_agrees(db, VIEWED, expected, "view") >= len(impls)


class TestRaisingUserHook:
    def test_index_maintained_when_hook_registered_first(self):
        db, ifaces = _library()
        db.events.subscribe("attribute_updated", _raise)
        assert_routed_agrees(db, INDEXED, 10, "index-eq")
        with pytest.raises(HookError):
            ifaces[0].set_attribute("Length", 500)
        # The write stays applied, and the index agrees with it.
        assert ifaces[0].get_member("Length") == 500
        assert assert_routed_agrees(db, INDEXED, 500, "index-eq") == 5
        assert assert_routed_agrees(db, INDEXED, 10, "index-eq") == 0

    def test_view_maintained_when_hook_registered_first(self):
        db, ifaces = _library()
        db.events.subscribe("attribute_updated", _raise)
        assert_routed_agrees(db, VIEWED, 10, "view")
        with pytest.raises(HookError):
            ifaces[0].set_attribute("Length", 500)
        assert ifaces[0].get_member("Length") == 500
        assert assert_routed_agrees(db, VIEWED, 500, "view") == 5
        assert assert_routed_agrees(db, VIEWED, 10, "view") == 0

    def test_maintainers_run_before_subscribers(self):
        db, ifaces = _library()
        seen = []

        def counts():
            return (
                db.indexes.stats["index.maintenance"],
                db.views.stats["query.view.refreshes"],
            )

        # Subscribed before any index or view exists, and still served
        # after both maintainers.
        db.events.subscribe("attribute_updated", lambda e: seen.append(counts()))
        _build_derived_state(db)
        before = counts()
        ifaces[1].set_attribute("Length", 77)
        during = seen[-1]
        # The index moved its group before the subscriber ran; the view
        # points at the interface's cell, so it had nothing to move and
        # already reads the new value.
        assert during[0] > before[0] and during[1] == before[1]
        impl = ifaces[1].inheritor_links[0].inheritor
        view = db.views.view_for(impl.object_type)
        assert view.cell(impl, "Length") == 77


class TestRawRestorePaths:
    def test_released_version_write_is_rejected_everywhere(self):
        db, ifaces = _library()
        guard = StateGuard(db)
        _build_derived_state(db)
        guard.release(ifaces[2])
        with pytest.raises(VersionError):
            ifaces[2].set_attribute("Length", 600)
        assert_reads(db, ifaces[2], 12)
        assert assert_routed_agrees(db, INDEXED, 600, "index-eq") == 0
        assert assert_routed_agrees(db, VIEWED, 600, "view") == 0

    def test_txn_abort_restores_everywhere(self):
        db, ifaces = _library()
        _build_derived_state(db)
        txn = TransactionManager(db).begin()
        txn.set(ifaces[3], "Length", 700)
        assert_reads(db, ifaces[3], 700)
        txn.abort()
        assert_reads(db, ifaces[3], 13)
        assert assert_routed_agrees(db, INDEXED, 700, "index-eq") == 0

    def test_txn_abort_restores_even_when_restore_hook_raises(self):
        db, ifaces = _library()
        db.events.subscribe("attribute_restored", _raise)
        _build_derived_state(db)
        txn = TransactionManager(db).begin()
        txn.set(ifaces[3], "Length", 700)
        with pytest.raises(HookError):
            txn.abort()
        # The restore stays applied; index and view already follow it.
        assert_reads(db, ifaces[3], 13)
        assert assert_routed_agrees(db, INDEXED, 700, "index-eq") == 0
        assert assert_routed_agrees(db, VIEWED, 700, "view") == 0

    def test_merge_apply_restores_everywhere(self):
        # 16 interfaces: enough for a type-source value index over
        # GateInterface, which the merged clone joins on adoption.
        db, ifaces = _library(n_ifaces=16, per_iface=2)
        by_length = "select * from GateInterface where Length = {}"
        graph = VersionGraph(name="funnel", guard=StateGuard(db))
        base = ifaces[4]
        graph.add_version(base)
        left = derive_version(graph, base)
        right = derive_version(graph, base)
        right.set_attribute("Length", 800)
        left.set_attribute("Width", 9)
        _build_derived_state(db)
        assert assert_routed_agrees(db, by_length, 800, "index-eq") == 1
        merged = merge_versions(graph, base, left, right).merged
        # The merged clone of left got right's Length by raw restore.
        assert merged.get_member("Length") == 800
        assert naive_get_member(merged, "Length") == 800
        assert assert_routed_agrees(db, by_length, 800, "index-eq") == 2
        # Rebinding base's implementations to the merged version shows
        # the merged value through the Implementations index and view.
        for link in list(base.inheritor_links):
            impl, rel_type = link.inheritor, link.rel_type
            link.unbind()
            db.bind(impl, merged, rel_type)
        assert_reads(db, merged, 800)
