"""Tests for the engine layer: catalog, database, extents, queries, events."""

import pytest

from repro.engine import walk_tree
from repro.engine.query import (
    inheritors_of,
    relationships_of,
    root_of,
    transmitters_of,
    walk_subobjects,
)
from repro.errors import (
    DuplicateTypeError,
    QueryError,
    SchemaError,
    UnknownTypeError,
)
from tests.conftest import add_pins


class TestCatalog:
    def test_builtin_domains(self, gate_db):
        assert gate_db.catalog.domain("integer").validate(1) == 1
        assert gate_db.catalog.domain("I/O").validate("IN") == "IN"
        assert gate_db.catalog.has_domain("Point")

    def test_unknown_domain(self, gate_db):
        from repro.errors import UnknownDomainError

        with pytest.raises(UnknownDomainError):
            gate_db.catalog.domain("Voltage")

    def test_define_domain_and_duplicate(self, gate_db):
        from repro.core import EnumDomain

        gate_db.catalog.define_domain("Material", EnumDomain("Material", ["wood", "metal"]))
        assert gate_db.catalog.domain("Material").validate("wood") == "wood"
        with pytest.raises(DuplicateTypeError):
            gate_db.catalog.define_domain("Material", EnumDomain("M", ["x"]))

    def test_type_lookup_by_kind(self, gate_db):
        assert gate_db.catalog.object_type("GateInterface").name == "GateInterface"
        assert gate_db.catalog.relationship_type("WireType").name == "WireType"
        assert (
            gate_db.catalog.inheritance_type("AllOf_GateInterface").name
            == "AllOf_GateInterface"
        )

    def test_kind_mismatch_rejected(self, gate_db):
        with pytest.raises(UnknownTypeError):
            gate_db.catalog.object_type("WireType")
        with pytest.raises(UnknownTypeError):
            gate_db.catalog.relationship_type("GateInterface")
        with pytest.raises(UnknownTypeError):
            gate_db.catalog.inheritance_type("WireType")

    def test_duplicate_type_rejected(self, gate_db):
        with pytest.raises(DuplicateTypeError):
            gate_db.catalog.define_object_type("GateInterface")

    def test_kind_listings(self, gate_db):
        assert gate_db.catalog.object_type("Gate") in gate_db.catalog.object_types()
        names = [t.name for t in gate_db.catalog.relationship_types()]
        assert "WireType" in names and "AllOf_GateInterface" not in names
        assert [t.name for t in gate_db.catalog.inheritance_types()] == [
            "AllOf_GateInterface"
        ]

    def test_contains_and_len(self, gate_db):
        assert "Gate" in gate_db.catalog
        assert len(gate_db.catalog) == 7


class TestDatabaseObjects:
    def test_create_object_in_class(self, gate_db):
        iface = gate_db.create_object(
            "GateInterface", class_name="Interfaces", Length=40, Width=20
        )
        assert iface in gate_db.class_("Interfaces")
        assert gate_db.get(iface.surrogate) is iface

    def test_create_object_by_type_object(self, gate_db):
        iface = gate_db.create_object(gate_db.schema.gate_interface)
        assert iface.database is gate_db

    def test_class_type_conformance(self, gate_db):
        with pytest.raises(SchemaError):
            gate_db.create_object("Gate", class_name="Interfaces")

    def test_subtype_allowed_in_class(self, gate_db):
        # GateImplementation conforms to GateInterface (§4.1 subtype).
        impl = gate_db.create_object("GateImplementation", class_name="Interfaces")
        assert impl in gate_db.class_("Interfaces")

    def test_duplicate_class_rejected(self, gate_db):
        with pytest.raises(SchemaError):
            gate_db.create_class("Interfaces", "GateInterface")

    def test_unknown_class(self, gate_db):
        with pytest.raises(UnknownTypeError):
            gate_db.class_("Nope")

    def test_subobjects_are_tracked(self, gate_db):
        iface = gate_db.create_object("GateInterface")
        pin = iface.subclass("Pins").create(InOut="IN")
        assert gate_db.get(pin.surrogate) is pin

    def test_bind_through_facade_by_name(self, gate_db):
        iface = gate_db.create_object("GateInterface", Length=1, Width=2)
        impl = gate_db.create_object("GateImplementation")
        link = gate_db.bind(impl, iface, "AllOf_GateInterface")
        assert impl["Length"] == 1
        assert gate_db.get(link.surrogate) is link

    def test_delete_removes_from_registry_and_classes(self, gate_db):
        iface = gate_db.create_object("GateInterface", class_name="Interfaces")
        surrogate = iface.surrogate
        iface.delete()
        assert gate_db.get(surrogate) is None
        assert iface not in gate_db.class_("Interfaces")

    def test_add_to_multiple_classes(self, gate_db):
        gate_db.create_class("Favourites", "GateInterface")
        iface = gate_db.create_object("GateInterface", class_name="Interfaces")
        gate_db.add_to_class(iface, "Favourites")
        assert iface in gate_db.class_("Favourites")
        iface.delete()
        assert len(gate_db.class_("Favourites")) == 0

    def test_create_relationship_freestanding(self, gate_db):
        iface = gate_db.create_object("GateInterface")
        a = iface.subclass("Pins").create(InOut="IN")
        b = iface.subclass("Pins").create(InOut="OUT")
        wire = gate_db.create_relationship("WireType", {"Pin1": a, "Pin2": b})
        assert gate_db.get(wire.surrogate) is wire

    def test_create_relationship_requires_rel_type(self, gate_db):
        with pytest.raises(SchemaError):
            gate_db.create_relationship("GateInterface", {})

    def test_objects_of_type(self, gate_db):
        gate_db.create_object("GateInterface")
        gate_db.create_object("GateImplementation")
        with_subtypes = gate_db.objects_of_type("GateInterface")
        exact = gate_db.objects_of_type("GateInterface", include_subtypes=False)
        assert len(with_subtypes) == 2 and len(exact) == 1

    def test_count_and_repr(self, gate_db):
        gate_db.create_object("GateInterface")
        assert gate_db.count() == 1
        assert "gates" in repr(gate_db)


class TestSelect:
    def test_select_all(self, gate_db):
        for length in (10, 20, 30):
            gate_db.create_object(
                "GateInterface", class_name="Interfaces", Length=length, Width=1
            )
        assert len(gate_db.select("Interfaces")) == 3

    def test_select_with_expression(self, gate_db):
        for length in (10, 20, 30):
            gate_db.create_object(
                "GateInterface", class_name="Interfaces", Length=length, Width=1
            )
        hits = gate_db.select("Interfaces", "Length > 15")
        assert sorted(obj["Length"] for obj in hits) == [20, 30]

    def test_select_with_callable(self, gate_db):
        gate_db.create_object("GateInterface", class_name="Interfaces", Length=10, Width=1)
        hits = gate_db.select("Interfaces", lambda o: o["Length"] == 10)
        assert len(hits) == 1

    def test_select_from_iterable(self, gate_db):
        objs = [gate_db.create_object("GateInterface", Length=i, Width=1) for i in range(5)]
        hits = gate_db.select(objs, "Length >= 3")
        assert len(hits) == 2

    def test_select_on_subclass_counts(self, gate_db):
        iface = gate_db.create_object(
            "GateInterface", class_name="Interfaces", Length=1, Width=1
        )
        add_pins(iface, n_in=2, n_out=1)
        hits = gate_db.select("Interfaces", "count(Pins) = 3")
        assert hits == [iface]

    def test_bad_where_type(self, gate_db):
        with pytest.raises(QueryError):
            gate_db.select("Interfaces", 42)

    @staticmethod
    def populate(db):
        """20 interfaces (above the index threshold) with 2–3 pins each,
        20 implementations inheriting from them (above the view
        threshold), four of them also filed in Interfaces: a mixed-type
        extent."""
        ifaces = []
        for i in range(20):
            iface = db.create_object(
                "GateInterface", class_name="Interfaces", Length=i % 5, Width=i % 3
            )
            add_pins(iface, n_in=2, n_out=i % 2)
            ifaces.append(iface)
        impls = [
            db.create_object(
                "GateImplementation", class_name="Implementations", transmitter=iface
            )
            for iface in ifaces
        ]
        for impl in impls[:4]:
            db.add_to_class(impl, "Interfaces")
        return ifaces, impls

    @pytest.mark.parametrize(
        "class_name, where, counter",
        [
            ("Implementations", "Length = 3", "index.hits"),
            ("Implementations", "Length >= 3", "index.hits"),
            ("Interfaces", "Length = 2", "index.hits"),
            ("Implementations", "Length + Width > 4", "query.view.hits"),
            ("Interfaces", "Length * 2 > Width", None),
            ("Interfaces", "count(Pins) = 3", None),
            ("Implementations", "count(Pins) = 3", None),
            ("Implementations", "count(Pins) = 3 and Length < 4", "index.hits"),
        ],
        ids=["index-eq", "index-range", "index-eq-mixed", "view-inherited",
             "mixed-extent", "aggregate", "aggregate-inherited",
             "aggregate-residual"],
    )
    def test_select_matches_tree_walk(self, gate_db, class_name, where, counter):
        from repro.expr import EvalContext, parse_expression, truthy

        self.populate(gate_db)
        node = parse_expression(where)
        walked = [
            obj for obj in gate_db.class_(class_name)
            if truthy(node.evaluate(EvalContext(obj)))
        ]
        assert walked  # every case selects something
        before = {**gate_db.indexes.stats, **gate_db.views.stats}
        assert gate_db.select(class_name, where) == walked
        after = {**gate_db.indexes.stats, **gate_db.views.stats}
        moved = {key for key in ("index.hits", "query.view.hits")
                 if after[key] != before[key]}
        assert moved == ({counter} if counter else set())

    @pytest.mark.parametrize(
        "where", ["Length >= 3", "Length * 2 > Width or count(Pins) = 2",
                  "Nope = Nope", "Length"],
    )
    def test_select_from_iterable_matches_tree_walk(self, gate_db, where):
        from repro.expr import EvalContext, parse_expression, truthy

        ifaces, impls = self.populate(gate_db)
        pin = list(ifaces[1].subclass("Pins"))[0]
        mixed = impls[::3] + ifaces[::2] + [pin]
        node = parse_expression(where)

        def outcome(select):
            try:
                return "rows", select()
            except Exception as exc:  # noqa: BLE001 — errors must match too
                return "error", type(exc), str(exc)

        # With the pin (most texts raise on it) and without (rows).
        for objs in (mixed, mixed[:-1]):
            walked = outcome(lambda: [
                obj for obj in objs if truthy(node.evaluate(EvalContext(obj)))
            ])
            assert outcome(lambda: gate_db.select(objs, where)) == walked

    def test_select_from_iterable_with_deleted_object_raises(self, gate_db):
        from repro.errors import ObjectDeletedError

        live = gate_db.create_object("GateInterface", Length=1, Width=1)
        gone = gate_db.create_object("GateInterface", Length=2, Width=1)
        gone.delete()
        assert gate_db.select([live], "Length > 0") == [live]
        with pytest.raises(ObjectDeletedError):
            gate_db.select([live, gone], "Length > 0")


class TestNavigation:
    def test_walk_tree(self, gate_db):
        gate = gate_db.create_object("Gate")
        sub = gate.subclass("SubGates").create(Function="AND")
        add_pins(sub)
        nodes = list(walk_tree(gate))
        assert gate in nodes and sub in nodes and len(nodes) == 5

    def test_walk_tree_with_relationships(self, gate_db):
        gate = gate_db.create_object("Gate")
        a = gate.subclass("Pins").create(InOut="IN")
        b = gate.subclass("Pins").create(InOut="OUT")
        wire = gate.subrel("Wires").create({"Pin1": a, "Pin2": b})
        nodes = list(walk_tree(gate, include_relationships=True))
        assert wire in nodes

    def test_walk_subobjects(self, gate_db):
        gate = gate_db.create_object("Gate")
        gate.subclass("Pins").create(InOut="IN")
        gate.subclass("SubGates").create(Function="OR")
        assert len(list(walk_subobjects(gate))) == 2

    def test_root_of(self, gate_db):
        gate = gate_db.create_object("Gate")
        sub = gate.subclass("SubGates").create()
        pin = sub.subclass("Pins").create(InOut="IN")
        assert root_of(pin) is gate
        assert root_of(gate) is gate

    def test_inheritors_and_transmitters(self, gate_db):
        iface = gate_db.create_object("GateInterface", Length=1, Width=1)
        impl = gate_db.create_object("GateImplementation", transmitter=iface)
        assert inheritors_of(iface) == [impl]
        assert transmitters_of(impl) == [iface]

    def test_relationships_of_excludes_links(self, gate_db):
        iface = gate_db.create_object("GateInterface", Length=1, Width=1)
        impl = gate_db.create_object("GateImplementation", transmitter=iface)
        a = iface.subclass("Pins").create(InOut="IN")
        b = iface.subclass("Pins").create(InOut="OUT")
        wire = gate_db.create_relationship("WireType", {"Pin1": a, "Pin2": b})
        assert relationships_of(a) == [wire]
        assert relationships_of(iface) == []  # the link does not count


class TestEvents:
    def test_attribute_update_event(self, gate_db):
        updates = []
        gate_db.events.subscribe("attribute_updated", updates.append)
        iface = gate_db.create_object("GateInterface")
        iface.set_attribute("Length", 5)
        assert updates and updates[-1].attribute == "Length"
        assert updates[-1].new == 5 and updates[-1].subject is iface

    def test_subscription_and_unsubscribe(self, gate_db):
        seen = []
        sub = gate_db.events.subscribe("object_created", lambda e: seen.append(e))
        gate_db.create_object("GateInterface")
        assert len(seen) == 1
        gate_db.events.unsubscribe(sub)
        gate_db.create_object("GateInterface")
        assert len(seen) == 1

    def test_wildcard_subscription(self, gate_db):
        kinds = []
        gate_db.events.subscribe("*", lambda e: kinds.append(e.kind))
        iface = gate_db.create_object("GateInterface")
        iface.set_attribute("Length", 3)
        assert "object_created" in kinds and "attribute_updated" in kinds

    def test_bind_and_unbind_events(self, gate_db):
        kinds = []
        gate_db.events.subscribe("*", lambda e: kinds.append(e.kind))
        iface = gate_db.create_object("GateInterface", Length=1, Width=1)
        impl = gate_db.create_object("GateImplementation", transmitter=iface)
        assert "inheritor_bound" in kinds
        impl.link_for(gate_db.schema.all_of_gate_interface).unbind()
        assert "inheritor_unbound" in kinds

    def test_history_limit(self):
        # The audit ring is the one bounded record of emitted events.
        from repro.engine.events import EventBus
        from repro.obs.provenance import AuditLog

        bus = EventBus()
        log = AuditLog(bus, ring_size=10)
        bus.subscribe("*", log.on_event)
        for i in range(25):
            bus.emit("tick", n=i)
        assert len(log.events()) == 10
        assert log.events()[-1].n == 24

    def test_event_attribute_error(self):
        from repro.engine.events import EventBus

        event = EventBus().emit("kind", subject=None, a=1)
        assert event.a == 1
        with pytest.raises(AttributeError):
            event.b
