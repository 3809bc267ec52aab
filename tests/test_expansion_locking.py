"""Differential tests for §6 expansion locking.

* The structure-only plan (:func:`expansion_lock_plan`, one
  :class:`ExpansionWalk`) must equal the oracle
  :func:`naive_expansion_lock_plan` as an **ordered** list on random
  composite worlds: shared components, multi-level realisations,
  components that are subobjects of the composite itself, and
  bind/unbind/rebind/add/remove scripts.
* The batched grant (:meth:`LockTable.acquire_many`) must leave the lock
  table exactly as the per-item :meth:`LockTable.acquire` loop does: the
  same grants, the same exception and the same ``locks.*`` metrics.
"""

import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition import add_component, expand
from repro.core import INTEGER, InheritanceRelationshipType, ObjectType
from repro.engine import Database
from repro.errors import (
    AccessDeniedError,
    DeadlockError,
    InheritanceError,
    LockConflictError,
    ObjectDeletedError,
    SchemaError,
)
from repro.obs.metrics import MetricsRegistry
from repro.txn import (
    AccessControlManager,
    LockMode,
    LockTable,
    TransactionManager,
    expansion_lock_plan,
    naive_expansion_lock_plan,
)
from repro.workloads import gate_database, generate_component_tree


def composite_world():
    """Interfaces with pins; implementations realising them, holding
    component slots (bound through a whole or a one-member relationship)
    and local interfaces that slots may use as components."""
    db = Database("expansion-locks")
    pin = ObjectType("XPin", attributes={"X": INTEGER})
    iface = ObjectType(
        "XIface", attributes={"L": INTEGER, "W": INTEGER}, subclasses={"Pins": pin}
    )
    all_of = InheritanceRelationshipType(
        "XAllOf", transmitter_type=iface, inheriting=["L", "W", "Pins"]
    )
    only_l = InheritanceRelationshipType(
        "XOnlyL", transmitter_type=iface, inheriting=["L"]
    )
    slot = ObjectType("XSlot", attributes={"Loc": INTEGER})
    slot.declare_inheritor_in(all_of)
    slot.declare_inheritor_in(only_l)
    impl = ObjectType(
        "XImpl",
        attributes={"F": INTEGER},
        subclasses={"Slots": slot, "Locals": iface},
    )
    impl.declare_inheritor_in(all_of)
    for type_ in (pin, iface, all_of, only_l, slot, impl):
        db.catalog.register(type_)
    return SimpleNamespace(
        db=db, rels=[all_of, only_l], ifaces=[], impls=[], slots=[], deleted=[]
    )


def new_iface(world, container=None, pins=1):
    if container is None:
        obj = world.db.create_object("XIface", L=1, W=2)
    else:
        obj = container.create(L=3, W=4)
    for x in range(pins):
        obj.subclass("Pins").create(X=x)
    world.ifaces.append(obj)
    return obj


def pick(pool, index):
    live = [obj for obj in pool if not obj.deleted]
    return live[index % len(live)] if live else None


def apply(world, step):
    kind, a, b, c = step
    try:
        if kind == "iface":
            new_iface(world, pins=a % 3)
        elif kind == "impl":
            target = pick(world.ifaces, a) if b % 3 else None
            if target is None:
                world.impls.append(world.db.create_object("XImpl", F=a))
            else:
                world.impls.append(
                    world.db.create_object(
                        "XImpl", transmitter=target, via=world.rels[0], F=a
                    )
                )
        elif kind == "local":
            owner = pick(world.impls, a)
            if owner is not None:
                new_iface(world, owner.subclass("Locals"), pins=b % 2)
        elif kind == "slot":
            owner = pick(world.impls, a)
            target = pick(world.ifaces, b)
            if owner is None:
                return
            if target is None or c % 4 == 0:
                world.slots.append(owner.subclass("Slots").create(Loc=c))
            else:
                world.slots.append(
                    owner.subclass("Slots").create(
                        transmitter=target, via=world.rels[c % 2], Loc=c
                    )
                )
        elif kind == "unbind":
            slot = pick(world.slots, a)
            if slot is not None and slot.inheritance_links:
                slot.inheritance_links[b % len(slot.inheritance_links)].unbind()
        elif kind == "bind":
            slot = pick(world.slots, a)
            target = pick(world.ifaces, b)
            if slot is not None and target is not None:
                rel = world.rels[c % 2]
                link = slot.link_for(rel)
                if link is not None:
                    link.unbind()  # a rebind
                world.db.bind(slot, target, rel)
        elif kind == "remove":
            slot = pick(world.slots, a)
            if slot is not None:
                slot.parent.subclass("Slots").remove(slot)
        elif kind == "delete":
            victim = pick(world.impls, a)
            if victim is not None:
                victim.delete(unbind_inheritors=True)
                world.deleted.append(victim)
    except (InheritanceError, SchemaError):
        pass  # an illegal binding (cycle, shadowing) leaves the world as is


step = st.tuples(
    st.sampled_from(
        ["iface", "impl", "impl", "local", "slot", "slot", "slot",
         "unbind", "bind", "remove", "delete"]
    ),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 30),
)


def build(steps):
    world = composite_world()
    new_iface(world, pins=2)
    for s in steps:
        apply(world, s)
    return world


def roots(world):
    """Every live object worth expanding: implementations, interfaces and
    slots (a root that is itself a subobject)."""
    pool = world.impls + world.ifaces + world.slots
    return [obj for obj in pool if not obj.deleted]


class TestStructureOnlyPlan:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(step, min_size=1, max_size=30))
    def test_plan_equals_oracle_in_order(self, steps):
        world = build(steps)
        for root in roots(world):
            for mode in (LockMode.S, LockMode.X):
                plan = expansion_lock_plan(root, mode)
                assert plan == naive_expansion_lock_plan(root, mode)
            # expand() reads the same walk.
            assert [obj for obj, _, _ in plan] == expand(root).objects
        for gone in world.deleted:
            with pytest.raises(ObjectDeletedError):
                expansion_lock_plan(gone)
            with pytest.raises(ObjectDeletedError):
                naive_expansion_lock_plan(gone)

    def test_component_scope_counts_own_inheritors_not_yet_listed(self):
        """A component met through the first slot is also visible through
        a later slot of the composite: its scope is the union, although
        the later slot comes after it in expansion order."""
        world = build([])
        component = world.ifaces[0]
        composite = world.db.create_object("XImpl", F=0)
        slots = composite.subclass("Slots")
        slots.create(transmitter=component, via=world.rels[1], Loc=0)  # L only
        slots.create(transmitter=component, via=world.rels[0], Loc=1)  # L, W, Pins
        plan = expansion_lock_plan(composite)
        assert plan == naive_expansion_lock_plan(composite)
        scopes = {obj.surrogate: scope for obj, scope, _ in plan}
        assert scopes[component.surrogate] == frozenset({"L", "W", "Pins"})

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(step, min_size=1, max_size=25),
        protect=st.lists(st.integers(0, 60), max_size=6),
        hide=st.lists(st.integers(0, 60), max_size=2),
        mode=st.sampled_from([LockMode.S, LockMode.X]),
    )
    def test_capped_expansion_grants_the_oracle_loop(self, steps, protect, hide, mode):
        """lock_expansion (plan + cap + batched grant) holds exactly what
        the oracle plan capped and acquired item by item holds — also when
        access control refuses an item midway."""
        world = build(steps)
        objects = [obj for obj in world.db.objects() if not obj.deleted]
        acm = AccessControlManager()
        for index in protect:
            acm.protect_standard_object(objects[index % len(objects)])
        for index in hide:
            acm.protect_standard_object(
                objects[index % len(objects)], everyone_reads=False
            )
        for root in roots(world)[:6]:
            tm = TransactionManager(world.db, access=acm)
            txn = tm.begin(user="designer")
            reference = LockTable()
            expected = got = None
            try:
                for obj, scope, requested in naive_expansion_lock_plan(root, mode):
                    capped = acm.cap_mode("designer", obj, requested)
                    reference.acquire(1, obj.surrogate, capped, scope)
            except AccessDeniedError as exc:
                expected = type(exc)
            try:
                txn.lock_expansion(root, mode)
            except AccessDeniedError as exc:
                got = type(exc)
            assert got is expected
            assert grants(tm.lock_table, txn.id) == grants(reference, 1)
            txn.abort()


def grants(table, txn_id):
    return [(s, e.mode, e.scope) for s, e in table.held_by(txn_id)]


def observed():
    obs = SimpleNamespace(metrics=MetricsRegistry(), audit=None)
    return LockTable(obs=obs), obs.metrics


def lock_metrics(metrics, timings=True):
    snapshot = metrics.as_dict()
    return {
        kind: {
            name: value
            for name, value in snapshot[kind].items()
            if name.startswith("locks.")
            and (timings or name != "locks.wait_seconds")
        }
        for kind in ("counters", "gauges", "histograms")
    }


def per_item(table, txn_id, requests, **kwargs):
    for surrogate, mode, scope in requests:
        table.acquire(txn_id, surrogate, mode, scope, **kwargs)


def shared_world():
    """Two component trees; the second also uses a component of the first."""
    db = gate_database("batch-vs-loop")
    first, _ = generate_component_tree(db, depth=2, fanout=2)
    second, _ = generate_component_tree(db, depth=1, fanout=2)
    shared = first.subclass("SubGates").members()[0].inheritance_links[0].transmitter
    add_component(second, "SubGates", shared, GateLocation={"X": 9, "Y": 9})
    objects = sorted(db.objects(), key=lambda o: o.surrogate)
    return db, [first, second], objects


txn_step = st.tuples(
    st.integers(1, 3),  # transaction
    st.sampled_from(["expand", "expand", "read", "write", "probe", "release", "group"]),
    st.integers(0, 200),  # target
    st.sampled_from([LockMode.S, LockMode.X]),
)


class TestBatchedGrant:
    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(txn_step, min_size=1, max_size=14))
    def test_batch_leaves_what_the_loop_leaves(self, script):
        db, composites, objects = shared_world()
        batched, batched_metrics = observed()
        looped, looped_metrics = observed()
        for txn, action, target, mode in script:
            outcomes = []
            for table, batch in ((batched, True), (looped, False)):
                try:
                    if action in ("expand", "probe"):
                        composite = composites[target % len(composites)]
                        requests = [
                            (obj.surrogate, requested, scope)
                            for obj, scope, requested in expansion_lock_plan(
                                composite, mode
                            )
                        ]
                        # A probe: blocking policy with a zero timeout.
                        kwargs = (
                            {"wait": True, "timeout": 0.0}
                            if action == "probe" else {}
                        )
                        kwargs["origin"] = "expansion"
                        if batch:
                            table.acquire_many(txn, requests, **kwargs)
                        else:
                            per_item(table, txn, requests, **kwargs)
                    elif action in ("read", "write"):
                        obj = objects[target % len(objects)]
                        table.acquire(
                            txn, obj.surrogate,
                            LockMode.S if action == "read" else LockMode.X,
                            frozenset({"Length"}) if target % 2 else None,
                            origin=action,
                        )
                    elif action == "release":
                        table.release_all(txn)
                    else:
                        table.set_group(txn, target % 2 or None)
                    outcomes.append(None)
                except LockConflictError as exc:
                    outcomes.append((type(exc), exc.holder, exc.surrogate))
            assert outcomes[0] == outcomes[1]
            for t in (1, 2, 3):
                assert grants(batched, t) == grants(looped, t)
            for obj in objects:
                assert [
                    (e.txn_id, e.mode, e.scope) for e in batched.holders(obj.surrogate)
                ] == [
                    (e.txn_id, e.mode, e.scope) for e in looped.holders(obj.surrogate)
                ]
            assert lock_metrics(batched_metrics) == lock_metrics(looped_metrics)

    def test_empty_batch_creates_no_metrics(self):
        table, metrics = observed()
        table.acquire_many(1, [])
        assert lock_metrics(metrics) == lock_metrics(MetricsRegistry())
        assert table.contention_snapshot()["holding_transactions"] == 0

    def test_deadlock_refusal_mid_expansion(self):
        """Transaction 2 parks on a lock transaction 1 holds; transaction
        1's blocking expansion then reaches a component transaction 2
        holds.  Waiting would close the cycle, so the request is refused
        — after the plan's earlier items were granted, as one by one."""
        results = {}
        for mode in ("batch", "loop"):
            db, composites, objects = shared_world()
            table, metrics = observed()
            composite = composites[0]
            requests = [
                (obj.surrogate, requested, scope)
                for obj, scope, requested in expansion_lock_plan(composite)
            ]
            middle = requests[len(requests) // 2][0]
            parked_on = objects[-1].surrogate
            assert parked_on not in {s for s, _, _ in requests}
            table.acquire(1, parked_on, LockMode.X)
            table.acquire(2, middle, LockMode.X)
            thread = threading.Thread(
                target=table.acquire,
                args=(2, parked_on, LockMode.X),
                kwargs={"wait": True, "timeout": 10.0},
            )
            thread.start()
            deadline = time.monotonic() + 5.0
            while (2, 1) not in table.waits_for() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert (2, 1) in table.waits_for()
            with pytest.raises(DeadlockError) as caught:
                if mode == "batch":
                    table.acquire_many(1, requests, wait=True, timeout=10.0)
                else:
                    per_item(table, 1, requests, wait=True, timeout=10.0)
            held = grants(table, 1)
            table.release_all(1)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            results[mode] = (
                caught.value.holder, caught.value.surrogate, held,
                lock_metrics(metrics, timings=False),
            )
        assert results["batch"] == results["loop"]
        holder, surrogate, held, _ = results["batch"]
        assert holder == 2 and surrogate == middle
        assert len(held) == 1 + len(requests) // 2
