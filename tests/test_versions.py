"""Tests for version management (repro.versions)."""

import pytest

from repro.ddl.paper import load_gate_schema
from repro.engine import Database
from repro.errors import SelectionError, VersionError
from repro.versions import (
    DefaultSelection,
    Environment,
    EnvironmentRegistry,
    EnvironmentSelection,
    GenericRelationship,
    QuerySelection,
    StateGuard,
    VersionGraph,
    VersionState,
    can_transition,
)


@pytest.fixture
def db():
    db = Database("versions")
    load_gate_schema(db.catalog)
    return db


@pytest.fixture
def guard(db):
    return StateGuard(db)


def make_interface(db, length=10):
    iface = db.create_object("GateInterface", Length=length, Width=5)
    iface.subclass("Pins").create(InOut="IN")
    iface.subclass("Pins").create(InOut="IN")
    iface.subclass("Pins").create(InOut="OUT")
    return iface


def make_graph(db, guard, n=3, time_behaviors=(5, 3, 8)):
    """An interface with n implementation versions: v1 -> v2 -> ... chain."""
    iface = make_interface(db)
    graph = VersionGraph(design_object=iface, guard=guard)
    versions = []
    base = None
    for i in range(n):
        impl = db.create_object(
            "GateImplementation",
            transmitter=iface,
            TimeBehavior=time_behaviors[i % len(time_behaviors)],
        )
        graph.add_version(impl, derived_from=base)
        versions.append(impl)
        base = impl
    return iface, graph, versions


class TestVersionStates:
    def test_transition_table(self):
        assert can_transition(VersionState.IN_DESIGN, VersionState.CONSISTENT)
        assert can_transition(VersionState.CONSISTENT, VersionState.RELEASED)
        assert can_transition(VersionState.RELEASED, VersionState.FROZEN)
        assert not can_transition(VersionState.IN_DESIGN, VersionState.RELEASED)
        assert not can_transition(VersionState.FROZEN, VersionState.IN_DESIGN)

    def test_unknown_state_rejected(self):
        with pytest.raises(VersionError):
            can_transition("banana", VersionState.FROZEN)

    def test_guard_blocks_updates_of_released(self, db, guard):
        iface = make_interface(db)
        guard.release(iface)
        with pytest.raises(VersionError):
            iface.set_attribute("Length", 99)
        # The update was reverted, not half-applied.
        assert iface["Length"] == 10

    def test_guard_blocks_structure_changes(self, db, guard):
        iface = make_interface(db)
        guard.release(iface)
        with pytest.raises(VersionError):
            iface.subclass("Pins").create(InOut="IN")
        assert len(iface["Pins"]) == 3

    def test_guard_covers_subobjects(self, db, guard):
        iface = make_interface(db)
        pin = iface.subclass("Pins").members()[0]
        guard.release(iface)
        with pytest.raises(VersionError):
            pin.set_attribute("InOut", "OUT")

    def test_update_drops_consistent_back_to_in_design(self, db, guard):
        iface = make_interface(db)
        guard.set_state(iface, VersionState.IN_DESIGN)
        guard.set_state(iface, VersionState.CONSISTENT)
        iface.set_attribute("Length", 11)  # allowed, but declassifies
        assert guard.state_of(iface) == VersionState.IN_DESIGN

    def test_illegal_transition_rejected(self, db, guard):
        iface = make_interface(db)
        guard.set_state(iface, VersionState.IN_DESIGN)
        with pytest.raises(VersionError):
            guard.set_state(iface, VersionState.RELEASED)

    def test_freeze_path(self, db, guard):
        iface = make_interface(db)
        guard.freeze(iface)
        assert guard.state_of(iface) == VersionState.FROZEN

    def test_suspended_guard_allows_updates(self, db, guard):
        iface = make_interface(db)
        guard.release(iface)
        with guard.suspended():
            iface.set_attribute("Length", 99)
        assert iface["Length"] == 99

    def test_unguarded_objects_unaffected(self, db, guard):
        other = make_interface(db)
        other.set_attribute("Length", 42)
        assert other["Length"] == 42


class TestVersionGraph:
    def test_members_and_history(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        assert len(graph) == 3
        assert graph.history_of(versions[2]) == versions
        assert graph.base_of(versions[1]) is versions[0]
        assert graph.derivatives_of(versions[0]) == [versions[1]]

    def test_roots_and_leaves(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        assert graph.roots() == [versions[0]]
        assert graph.leaves() == [versions[2]]

    def test_alternatives(self, db, guard):
        iface, graph, versions = make_graph(db, guard, n=1)
        alt_a = db.create_object("GateImplementation", transmitter=iface)
        alt_b = db.create_object("GateImplementation", transmitter=iface)
        graph.derive(versions[0], alt_a)
        graph.derive(versions[0], alt_b)
        assert set(graph.alternatives_of(alt_a)) == {alt_b}
        assert graph.leaves() and len(graph.leaves()) == 2

    def test_is_ancestor(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        assert graph.is_ancestor(versions[0], versions[2])
        assert not graph.is_ancestor(versions[2], versions[0])

    def test_duplicate_member_rejected(self, db, guard):
        iface, graph, versions = make_graph(db, guard, n=1)
        with pytest.raises(VersionError):
            graph.add_version(versions[0])

    def test_unknown_base_rejected(self, db, guard):
        iface, graph, _ = make_graph(db, guard, n=1)
        stranger = db.create_object("GateImplementation", transmitter=iface)
        other = db.create_object("GateImplementation", transmitter=iface)
        with pytest.raises(VersionError):
            graph.add_version(other, derived_from=stranger)

    def test_remove_leaf_only(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        with pytest.raises(VersionError):
            graph.remove_version(versions[0])  # has derivatives
        graph.remove_version(versions[2])
        assert len(graph) == 2

    def test_remove_frozen_rejected(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        graph.freeze(versions[2])
        with pytest.raises(VersionError):
            graph.remove_version(versions[2])

    def test_default_version_tracking(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        assert graph.default_version is versions[0]
        graph.set_default(versions[2])
        assert graph.default_version is versions[2]

    def test_classification_by_state(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        graph.release(versions[0])
        assert graph.versions_in_state(VersionState.RELEASED) == [versions[0]]
        assert set(graph.versions_in_state(VersionState.IN_DESIGN)) == set(versions[1:])

    def test_versioned_versions_subgraph(self, db, guard):
        # §6: interfaces have versions (implementations) which have versions.
        iface, graph, versions = make_graph(db, guard, n=1)
        assert graph.subgraph_of(versions[0]) is None
        subgraph = graph.subgraph_of(versions[0], create=True)
        assert subgraph.design_object is versions[0]
        assert graph.subgraph_of(versions[0]) is subgraph

    def test_graph_requires_anchor(self):
        with pytest.raises(VersionError):
            VersionGraph()


class TestGenericRelationships:
    def make_slot(self, db):
        """An unbound GateImplementation as the slot (plain inheritor)."""
        slot_obj = db.create_object("GateImplementation")
        rel = db.catalog.inheritance_type("AllOf_GateInterface")
        return slot_obj, rel

    def test_candidates_conform_to_transmitter_type(self, db, guard):
        iface, graph, versions = make_graph(db, guard)
        # The graph of *interface versions*: candidates for AllOf_GateInterface.
        iface_graph = VersionGraph(design_object=iface, guard=guard)
        v1 = make_interface(db, length=1)
        iface_graph.add_version(v1)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, iface_graph)
        assert generic.candidates() == [v1]

    def test_query_selection_top_down(self, db, guard):
        graph = VersionGraph(name="interfaces", guard=guard)
        v_small = make_interface(db, length=5)
        v_big = make_interface(db, length=50)
        graph.add_version(v_small)
        graph.add_version(v_big)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        link = generic.resolve(QuerySelection("Length > 10"))
        assert link.transmitter is v_big
        assert slot_obj["Length"] == 50

    @pytest.mark.parametrize(
        "where",
        ["Length > 10", "Length = 5 or Width > 6", "count(Pins) = 3 and Length < 40",
         "Nope = Nope", "Length > 100"],
    )
    def test_query_selection_matches_tree_walk(self, db, guard, where):
        from repro.expr import EvalContext, parse_expression, truthy

        graph = VersionGraph(name="interfaces", guard=guard)
        for length in (5, 12, 30, 50):
            graph.add_version(make_interface(db, length=length))
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        candidates = generic.candidates()
        node = parse_expression(where)
        walked = [c for c in candidates if truthy(node.evaluate(EvalContext(c)))]
        policy = QuerySelection(where, on_ties="first")
        assert [c for c in candidates if policy.predicate(c)] == walked
        if walked:
            assert policy.choose(generic, candidates) is walked[0]
        else:
            with pytest.raises(SelectionError):
                policy.choose(generic, candidates)

    def test_query_selection_no_match(self, db, guard):
        graph = VersionGraph(name="interfaces")
        graph.add_version(make_interface(db, length=5))
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        with pytest.raises(SelectionError):
            generic.resolve(QuerySelection("Length > 10"))

    def test_query_selection_tie_handling(self, db, guard):
        graph = VersionGraph(name="interfaces")
        a = make_interface(db, length=20)
        b = make_interface(db, length=30)
        graph.add_version(a)
        graph.add_version(b)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        with pytest.raises(SelectionError):
            generic.resolve(QuerySelection("Length > 10"))
        link = generic.resolve(QuerySelection("Length > 10", on_ties="newest"))
        assert link.transmitter is b

    def test_default_selection_bottom_up(self, db, guard):
        graph = VersionGraph(name="interfaces", guard=guard)
        v1 = make_interface(db, length=1)
        v2 = make_interface(db, length=2)
        graph.add_version(v1)
        graph.add_version(v2)
        graph.set_default(v2)
        slot_obj, rel = self.make_slot(db)
        link = GenericRelationship(slot_obj, rel, graph).resolve(DefaultSelection())
        assert link.transmitter is v2

    def test_default_selection_released_only(self, db, guard):
        graph = VersionGraph(name="interfaces", guard=guard)
        v1 = make_interface(db)
        graph.add_version(v1)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        with pytest.raises(SelectionError):
            generic.resolve(DefaultSelection(released_only=True))
        graph.release(v1)
        link = generic.resolve(DefaultSelection(released_only=True))
        assert link.transmitter is v1

    def test_environment_selection(self, db, guard):
        iface, graph, versions = make_graph(db, guard, n=1)
        iface_graph = VersionGraph(design_object=iface)
        v1 = make_interface(db, length=1)
        v2 = make_interface(db, length=2)
        iface_graph.add_version(v1)
        iface_graph.add_version(v2)

        registry = EnvironmentRegistry()
        testing = registry.create("testing")
        testing.assign(iface, v2)
        registry.activate("testing")

        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, iface_graph)
        link = generic.resolve(EnvironmentSelection(registry))
        assert link.transmitter is v2

    def test_environment_silent_raises(self, db, guard):
        iface = make_interface(db)
        iface_graph = VersionGraph(design_object=iface)
        iface_graph.add_version(make_interface(db))
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, iface_graph)
        environment = Environment("silent")
        with pytest.raises(SelectionError):
            generic.resolve(EnvironmentSelection(environment))

    def test_no_active_environment(self, db, guard):
        iface = make_interface(db)
        iface_graph = VersionGraph(design_object=iface)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, iface_graph)
        with pytest.raises(SelectionError):
            generic.resolve(EnvironmentSelection(EnvironmentRegistry()))

    def test_re_resolve_after_new_version(self, db, guard):
        graph = VersionGraph(name="interfaces")
        v1 = make_interface(db, length=10)
        graph.add_version(v1)
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        generic.resolve(DefaultSelection())
        assert generic.current_version is v1

        v2 = make_interface(db, length=20)
        graph.add_version(v2)
        graph.set_default(v2)
        generic.re_resolve(DefaultSelection())
        assert generic.current_version is v2
        assert slot_obj["Length"] == 20

    def test_double_resolve_rejected(self, db, guard):
        graph = VersionGraph(name="interfaces")
        graph.add_version(make_interface(db))
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        generic.resolve(DefaultSelection())
        with pytest.raises(SelectionError):
            generic.resolve(DefaultSelection())

    def test_unresolve(self, db, guard):
        graph = VersionGraph(name="interfaces")
        graph.add_version(make_interface(db))
        slot_obj, rel = self.make_slot(db)
        generic = GenericRelationship(slot_obj, rel, graph)
        generic.resolve(DefaultSelection())
        generic.unresolve()
        assert not generic.resolved
        generic.unresolve()  # idempotent
