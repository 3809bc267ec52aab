"""The database facade.

A :class:`Database` bundles the pieces of the engine: a surrogate
generator, a catalog (schema), class extents, the object registry, the
event bus — and, attached lazily by the respective subsystems, transaction
and consistency managers.

Typical use::

    db = Database("gates")
    pin = db.catalog.define_object_type("PinType", attributes={"InOut": IO})
    iface = db.catalog.define_object_type(
        "GateInterface",
        attributes={"Length": INTEGER, "Width": INTEGER},
        subclasses={"Pins": pin},
    )
    all_of = db.catalog.define_inheritance_type(
        "AllOf_GateInterface", iface, ["Length", "Width", "Pins"]
    )
    impl = db.catalog.define_object_type("GateImplementation", ...)
    impl.declare_inheritor_in(all_of)

    db.create_class("Interfaces", iface)
    nand_if = db.create_object("GateInterface", class_name="Interfaces",
                               Length=40, Width=20)
    nand_v1 = db.create_object("GateImplementation", transmitter=nand_if)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from ..core.inheritance import InheritanceRelationshipType
from ..core.objects import (
    DBObject,
    InheritanceLink,
    RelationshipObject,
    bind,
    new_object,
    new_relationship,
)
from ..core.objtype import TypeBase
from ..core.reltype import RelationshipType
from ..core.surrogate import Surrogate, SurrogateGenerator
from ..errors import SchemaError, UnknownTypeError
from .catalog import Catalog
from .events import EventBus
from .storage import Extent

__all__ = ["Database"]

TypeRef = Union[str, TypeBase]


def _sanitize_by_env() -> bool:
    """True when ``REPRO_TSAN`` asks for the race sanitizer (cheap: no
    import of :mod:`repro.obs.race` unless it does)."""
    import os

    return os.environ.get("REPRO_TSAN", "") not in ("", "0")


class Database:
    """One object database: schema, extents, objects, events."""

    def __init__(
        self,
        name: str = "db",
        observe: bool = False,
        sanitize: bool = False,
    ):
        # Imported here, not at module level: repro.query imports this
        # module for the executor, so the package edges meet at runtime.
        from ..query.indexes import IndexManager
        from ..query.views import ViewManager

        if sanitize or _sanitize_by_env():
            # Process-global by nature (the instrumented structures are
            # shared engine code, not per-database); idempotent.
            from ..obs import race

            race.enable()

        self.name = name
        self.surrogates = SurrogateGenerator(name)
        self.catalog = Catalog()
        self.events = EventBus()
        self._classes: Dict[str, Extent] = {}
        self._objects: Dict[Surrogate, DBObject] = {}
        #: Extent/value indexes + sargable-query planner state (repro.query).
        self.indexes = IndexManager(self)
        #: Materialized per-type inherited-relation views (repro.query.views).
        self.views = ViewManager(self)
        #: Set by repro.txn when a transaction manager attaches.
        self.transactions = None
        #: Set by repro.consistency when an adaptation tracker attaches.
        self.consistency = None
        #: The observability bundle (tracer/metrics/event tap), or None.
        #: The attribute always exists so hot paths pay one load + branch.
        self.obs = None
        if observe:
            self.enable_observability()

    # -- observability -----------------------------------------------------------

    def enable_observability(self, **options):
        """Attach (or return the existing) :class:`~repro.obs.Observability`.

        Options are forwarded to the bundle: ``tracing`` (default True),
        ``track_propagation``, ``audit`` (default True: keep the causal
        audit log, which also mirrors every bus event), ``audit_ring``,
        ``audit_sink`` (a
        JSONL path or sink object), ``slowlog`` (default True: keep the
        slow-operation log), ``slow_budgets`` (per-kind latency budgets
        in seconds, e.g. ``{"query": 0.05}`` — see
        :data:`repro.obs.slowlog.DEFAULT_BUDGETS`), ``slowlog_ring``,
        ``flight_ring`` (sample capacity of the pull-based flight
        recorder reachable as ``obs.recorder``; the recorder costs
        nothing until ticked).
        """
        if self.obs is None:
            from ..obs import Observability

            self.obs = Observability(self, **options)
        return self.obs

    def explain_value(self, obj: DBObject, attribute: str):
        """Why would ``obj.get_member(attribute)`` return what it returns?

        Returns a :class:`~repro.obs.provenance.ValueProvenance`: the
        holder object, the inheritance path with every permeability
        decision, the epochs a memoised resolution validates against, and
        the value indexes tracking the reading.  Works whether or not
        observability is attached (the walk is pure inspection).
        """
        from ..obs.provenance import explain_value

        return explain_value(obj, attribute)

    def disable_observability(self) -> None:
        """Detach observability: the bus subscription is removed."""
        if self.obs is not None:
            self.obs.detach()
            self.obs = None

    # -- registry hooks (called from the core layer) ------------------------------

    def _adopt(self, obj: DBObject) -> None:
        """Track every object constructed against this database."""
        self._objects[obj.surrogate] = obj
        self.indexes.object_adopted(obj)
        self.views.object_adopted(obj)

    def _forget_object(self, obj: DBObject) -> None:
        self._objects.pop(obj.surrogate, None)
        for extent in self._classes.values():
            extent.discard(obj)
        self.indexes.object_forgotten(obj)
        self.views.object_forgotten(obj)

    # -- schema ------------------------------------------------------------------

    def _resolve_object_type(self, ref: TypeRef) -> TypeBase:
        if isinstance(ref, str):
            return self.catalog.type(ref)
        return ref

    def create_class(self, name: str, object_type: TypeRef) -> Extent:
        """Create a named class (extent) for objects of ``object_type``."""
        if name in self._classes:
            raise SchemaError(f"class {name!r} already exists")
        resolved = self._resolve_object_type(object_type)
        extent = Extent(name, resolved, database=self)
        self._classes[name] = extent
        return extent

    def class_(self, name: str) -> Extent:
        """Look up a class by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownTypeError(f"unknown class {name!r}") from None

    def classes(self) -> Dict[str, Extent]:
        return dict(self._classes)

    # -- object lifecycle -----------------------------------------------------------

    def create_object(
        self,
        object_type: TypeRef,
        class_name: Optional[str] = None,
        transmitter: Optional[DBObject] = None,
        via: Optional[InheritanceRelationshipType] = None,
        **attrs: Any,
    ) -> DBObject:
        """Create a top-level object, optionally filing it in a class.

        ``transmitter``/``via`` bind the new object through an inheritance
        relationship immediately (§4.1).
        """
        resolved = self._resolve_object_type(object_type)
        obj = new_object(
            resolved, database=self, transmitter=transmitter, via=via, **attrs
        )
        if class_name is not None:
            self.class_(class_name).add(obj)
        self.events.emit("object_created", subject=obj, class_name=class_name)
        return obj

    def create_relationship(
        self,
        rel_type: TypeRef,
        participants: Mapping[str, Any],
        **attrs: Any,
    ) -> RelationshipObject:
        """Create a free-standing (non-local) relationship object."""
        resolved = self._resolve_object_type(rel_type)
        if not isinstance(resolved, RelationshipType):
            raise SchemaError(f"{resolved!r} is not a relationship type")
        rel = new_relationship(resolved, participants, database=self, **attrs)
        self.events.emit("object_created", subject=rel, class_name=None)
        return rel

    def bind(
        self,
        inheritor: DBObject,
        transmitter: DBObject,
        rel_type: Union[str, InheritanceRelationshipType],
        **link_attrs: Any,
    ) -> InheritanceLink:
        """Bind an inheritor to a transmitter (see :func:`repro.core.bind`)."""
        if isinstance(rel_type, str):
            rel_type = self.catalog.inheritance_type(rel_type)
        return bind(inheritor, transmitter, rel_type, **link_attrs)

    def add_to_class(self, obj: DBObject, class_name: str) -> None:
        """File an existing object in a (further) class."""
        self.class_(class_name).add(obj)
        self.events.emit("class_member_added", subject=obj, class_name=class_name)

    # -- lookup & queries ---------------------------------------------------------

    def get(self, surrogate: Surrogate) -> Optional[DBObject]:
        """The live object with this surrogate, if any."""
        return self._objects.get(surrogate)

    def objects(self) -> List[DBObject]:
        """Snapshot of every live object tracked by the database."""
        return list(self._objects.values())

    def objects_of_type(
        self, object_type: TypeRef, include_subtypes: bool = True
    ) -> List[DBObject]:
        """All live objects of a type (by default including subtypes).

        Served from the per-type extent index in O(result); the answer —
        content and order — matches :meth:`naive_objects_of_type`, the
        original full-registry scan kept as the test oracle.
        """
        resolved = self._resolve_object_type(object_type)
        return self.indexes.objects_of_type(resolved, include_subtypes)

    def naive_objects_of_type(
        self, object_type: TypeRef, include_subtypes: bool = True
    ) -> List[DBObject]:
        """Full-registry scan oracle for :meth:`objects_of_type` (O(db))."""
        resolved = self._resolve_object_type(object_type)
        if include_subtypes:
            return [
                obj
                for obj in self._objects.values()
                if obj.object_type.conforms_to(resolved)
            ]
        return [
            obj for obj in self._objects.values() if obj.object_type is resolved
        ]

    def select(
        self,
        source: Union[str, Iterable[DBObject]],
        where: Union[None, str, Any] = None,
    ) -> List[DBObject]:
        """Select objects from a class (by name) or any iterable.

        ``where`` is either a constraint-language expression evaluated
        against each object, or a Python predicate.  A class-name source
        with an expression runs the query executor's where stage
        (:func:`repro.query.executor.filter_source`): sargable conjuncts
        may be answered from a value index, predicates over inherited
        members may scan the type's view, and the full condition is still
        applied to every candidate.
        """
        from .query import evaluate_predicate

        if isinstance(source, str):
            extent = self.class_(source)
            if isinstance(where, str):
                from ..query.executor import select_where

                return select_where(self, extent, where)
            source = extent
        if where is None:
            return list(source)
        predicate = evaluate_predicate(where)
        return [obj for obj in source if predicate(obj)]

    def query(self, text: str):
        """Run a ``select … from … where …`` query (see :mod:`repro.query`)."""
        from ..query import run_query

        return run_query(self, text)

    def count(self) -> int:
        return len(self._objects)

    def check_all_constraints(self) -> None:
        """Deep-check constraints of every top-level object (diagnostics)."""
        for obj in self.objects():
            if obj.parent is None and not obj.deleted:
                obj.check_constraints(deep=True)

    def __repr__(self) -> str:
        return (
            f"<Database {self.name!r} objects={len(self._objects)} "
            f"classes={len(self._classes)} types={len(self.catalog)}>"
        )
