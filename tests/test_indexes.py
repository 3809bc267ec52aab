"""Tests for the indexed query engine: IndexManager, ValueIndex, planner.

The contract under test is *oracle equivalence*: whatever access path the
planner picks, query results must be byte-identical to the full scan
(``IndexManager.auto = False``), and ``Database.objects_of_type`` must
match the original full-registry scan kept as
``Database.naive_objects_of_type``.  The hypothesis property drives
randomized schemas and mutation scripts — attribute writes, binds,
unbinds, deletes, transaction aborts, version revert-and-reject,
``declare_inheritor_in`` rebinds — with indexes built early so the
incremental maintenance path (not a fresh build) is what answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY
from repro.core.inheritance import InheritanceRelationshipType
from repro.core.objtype import ObjectType
from repro.engine.database import Database
from repro.errors import ReproError, VersionError
from repro.query import run_query
from repro.txn.transactions import TransactionManager
from repro.versions.states import StateGuard

_counter = [0]


def _uname(prefix):
    _counter[0] += 1
    return f"{prefix}Ix{_counter[0]}"


def assert_queries_agree(db, text):
    """Indexed execution must match the full-scan oracle exactly —
    rows, columns, objects, or the exception type and message."""
    manager = db.indexes
    manager.auto = False
    try:
        oracle = run_query(db, text)
        oracle_exc = None
    except Exception as exc:  # noqa: BLE001 - re-asserted below
        oracle, oracle_exc = None, exc
    finally:
        manager.auto = True
    if oracle_exc is not None:
        with pytest.raises(type(oracle_exc)) as caught:
            run_query(db, text)
        assert str(caught.value) == str(oracle_exc)
        return
    indexed = run_query(db, text)
    assert indexed.columns == oracle.columns
    assert indexed.rows == oracle.rows
    if oracle.objects is not None:
        assert [o.surrogate for o in indexed.objects] == [
            o.surrogate for o in oracle.objects
        ]
    assert oracle.plan.access_path == "full-scan"


def assert_type_index_agrees(db, type_):
    for include in (True, False):
        assert db.objects_of_type(type_, include) == db.naive_objects_of_type(
            type_, include
        )


# ---------------------------------------------------------------------------
# the randomized-schema oracle property
# ---------------------------------------------------------------------------

ALPHA_VALUES = (0, 1, 2, 3, "x", "y")
BETA_VALUES = (0, 1, 2, 3, 4, 5)
GAMMA_VALUES = (5, 6, 7)


def _make_world():
    """Base/Mid/Sub types, one class, one db.

    Sub inherits alpha and gamma from Base directly or, through Mid, two
    hops up.  gamma has a declared default (7), so a Base without a gamma
    value makes every reader see the default through an UNSET holder cell.
    """
    base = ObjectType(
        _uname("Base"),
        attributes={
            "alpha": ANY,
            "beta": AttributeSpec("beta", ANY, default=0),
            "gamma": AttributeSpec("gamma", ANY, default=7),
        },
    )
    rel = InheritanceRelationshipType(
        _uname("AllOfBase"), transmitter_type=base, inheriting=["alpha", "gamma"]
    )
    mid = ObjectType(_uname("Mid"))
    mid.declare_inheritor_in(rel)
    rel_mid = InheritanceRelationshipType(
        _uname("AllOfMid"), transmitter_type=mid, inheriting=["alpha", "gamma"]
    )
    sub = ObjectType(_uname("Sub"))
    sub.declare_inheritor_in(rel)
    sub.declare_inheritor_in(rel_mid)
    db = Database(_uname("db"))
    db.indexes.min_index_source = 0
    for type_ in (base, mid, sub):
        db.catalog.register(type_)
    db.create_class("Things", base)
    return db, base, mid, sub, rel, rel_mid


def _battery(db, base, mid, sub):
    queries = [
        "select * from Things where alpha = 2",
        "select * from Things where alpha = 'x'",
        "select alpha, beta from Things where beta > 2",
        "select * from Things where alpha = 1 and beta >= 1",
        "select distinct alpha from Things",
        "select alpha from Things where beta <= 3 order by beta desc limit 2",
        "select * from Things where gamma = 7",
        f"select * from {base.name} where alpha = 3",
        f"select * from {sub.name} where alpha = 0",
        f"select * from {sub.name} where gamma = 7",
        f"select * from {sub.name} where gamma > 5",
        f"select * from {mid.name} where alpha = 1",
    ]
    for text in queries:
        assert_queries_agree(db, text)
    for type_ in (base, mid, sub):
        assert_type_index_agrees(db, type_)


action = st.one_of(
    st.tuples(st.just("create_base"), st.sampled_from(ALPHA_VALUES),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("create_sub"), st.sampled_from(ALPHA_VALUES)),
    st.tuples(st.just("create_mid"), st.integers(0, 20)),
    st.tuples(st.just("set_alpha"), st.integers(0, 20),
              st.sampled_from(ALPHA_VALUES)),
    st.tuples(st.just("set_beta"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("set_gamma"), st.integers(0, 20),
              st.sampled_from(GAMMA_VALUES)),
    st.tuples(st.just("bind"), st.integers(0, 20), st.integers(0, 20)),
    st.tuples(st.just("bind_via_mid"), st.integers(0, 20), st.integers(0, 20)),
    st.tuples(st.just("unbind"), st.integers(0, 20)),
    st.tuples(st.just("delete"), st.integers(0, 20)),
    st.tuples(st.just("delete_strict"), st.integers(0, 20)),
    st.tuples(st.just("txn_abort"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("txn_gamma"), st.integers(0, 20),
              st.sampled_from(GAMMA_VALUES)),
    st.tuples(st.just("revert"), st.integers(0, 20),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("declare_rebind"), st.integers(0, 20), st.integers(0, 20)),
)


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(action, min_size=1, max_size=12))
def test_planner_matches_full_scan_oracle(actions):
    db, base, mid, sub, rel, rel_mid = _make_world()
    txns = TransactionManager(db)
    guard = StateGuard(db)
    objs = []
    for value in (0, 1, "x"):
        objs.append(
            db.create_object(base, class_name="Things", alpha=value, beta=1)
        )
    # Prime the value indexes now so the script below exercises the
    # incremental maintenance path, not a fresh build at query time.
    _battery(db, base, mid, sub)

    def pick(i):
        return objs[i % len(objs)] if objs else None

    for step in actions:
        kind = step[0]
        if kind not in ("create_base", "create_sub") and pick(0) is None:
            continue  # every object deleted; mutation steps have no target
        try:
            if kind == "create_base":
                objs.append(
                    db.create_object(
                        base, class_name="Things", alpha=step[1], beta=step[2]
                    )
                )
            elif kind == "create_sub":
                obj = db.create_object(sub, class_name="Things")
                obj.set_attribute("alpha", step[1])
                objs.append(obj)
            elif kind == "create_mid":
                obj = db.create_object(mid, class_name="Things")
                objs.append(obj)
                transmitter = pick(step[1])
                if transmitter.object_type is base:
                    db.bind(obj, transmitter, rel)
            elif kind == "set_alpha":
                pick(step[1]).set_attribute("alpha", step[2])
            elif kind == "set_beta":
                pick(step[1]).set_attribute("beta", step[2])
            elif kind == "set_gamma":
                pick(step[1]).set_attribute("gamma", step[2])
            elif kind == "bind":
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is base:
                    db.bind(inheritor, transmitter, rel)
            elif kind == "bind_via_mid":
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is mid:
                    db.bind(inheritor, transmitter, rel_mid)
            elif kind == "unbind":
                obj = pick(step[1])
                for link in obj.inheritance_links:
                    link.unbind()
            elif kind == "delete":
                obj = pick(step[1])
                obj.delete(unbind_inheritors=True)
                objs = [o for o in objs if not o.deleted]
            elif kind == "delete_strict":
                # Refused while the object transmits to anyone.
                pick(step[1]).delete()
                objs = [o for o in objs if not o.deleted]
            elif kind == "txn_abort":
                obj = pick(step[1])
                txn = txns.begin()
                txn.set(obj, "beta", step[2])
                txn.abort()
            elif kind == "txn_gamma":
                # The abort restores the prior cell — UNSET when gamma was
                # never set, so readers fall back to the default again.
                obj = pick(step[1])
                txn = txns.begin()
                txn.set(obj, "gamma", step[2])
                txn.abort()
            elif kind == "revert":
                obj = pick(step[1])
                if guard.state_of(obj) is None:
                    guard.release(obj)
                with pytest.raises(VersionError):
                    obj.set_attribute("beta", step[2])
            elif kind == "declare_rebind":
                # A schema change mid-life: a fresh inheritance declaration
                # bumps the schema epoch, dropping every value index.
                new_rel = InheritanceRelationshipType(
                    _uname("LateRel"), transmitter_type=base, inheriting=["beta"]
                )
                sub.declare_inheritor_in(new_rel)
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is base:
                    db.bind(inheritor, transmitter, new_rel)
        except ReproError:
            # Illegal scripts (double bind, write-through-link, inherited
            # shadowing, …) are fine: the engine rejected them on both
            # sides of the comparison identically.
            pass
        # One cheap agreement probe per step catches staleness at the
        # moment it appears, not only at the end.
        assert_queries_agree(db, "select * from Things where alpha = 1")
        assert_queries_agree(db, "select * from Things where gamma = 7")

    _battery(db, base, mid, sub)


# ---------------------------------------------------------------------------
# deterministic behaviour
# ---------------------------------------------------------------------------


@pytest.fixture
def parts_db():
    db = Database(_uname("parts"))
    part = db.catalog.define_object_type(
        "Part", attributes={"Serial": ANY, "Category": ANY}
    )
    db.create_class("Parts", part)
    db.indexes.min_index_source = 0
    for i in range(60):
        db.create_object(
            "Part", class_name="Parts", Serial=i, Category=f"cat_{i % 6}"
        )
    return db


def test_equality_uses_index_and_matches(parts_db):
    result = run_query(parts_db, "select * from Parts where Category = 'cat_2'")
    assert result.plan.access_path == "index-eq"
    assert result.plan.index_attr == "Category"
    assert len(result.rows) == 10
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_2'")


def test_range_uses_sorted_index(parts_db):
    result = run_query(parts_db, "select Serial from Parts where Serial >= 55")
    assert result.plan.access_path == "index-range"
    assert result.scalars() == [55, 56, 57, 58, 59]


def test_explain_reports_estimated_and_actual_rows(parts_db):
    result = run_query(
        parts_db, "select * from Parts where Category = 'cat_0'", explain=True
    )
    text = result.explain()
    assert "index-eq" in text
    assert "estimated=10" in text
    assert "candidates=10" in text
    assert "matched=10" in text
    assert "class Parts (60 objects)" in text


def test_planner_prefers_cheapest_sarg(parts_db):
    # Serial = 7 hits 1 object, Category = 'cat_1' hits 10: Serial wins.
    result = run_query(
        parts_db,
        "select * from Parts where Category = 'cat_1' and Serial = 7",
    )
    assert result.plan.index_attr == "Serial"
    assert len(result.rows) == 1


def test_updates_maintain_index_incrementally(parts_db):
    run_query(parts_db, "select * from Parts where Category = 'cat_3'")
    before = parts_db.indexes.stats["index.maintenance"]
    obj = parts_db.class_("Parts").members()[0]
    obj.set_attribute("Category", "moved")
    assert parts_db.indexes.stats["index.maintenance"] > before
    result = run_query(parts_db, "select * from Parts where Category = 'moved'")
    assert result.plan.access_path == "index-eq"
    assert [o.surrogate for o in result.objects] == [obj.surrogate]
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_3'")


def test_delete_removes_from_indexes(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 10")
    victim = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Serial") == 10
    ][0]
    victim.delete()
    result = run_query(parts_db, "select * from Parts where Serial = 10")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Serial >= 8")


def test_txn_abort_restores_index_entries(parts_db):
    run_query(parts_db, "select * from Parts where Category = 'cat_4'")
    obj = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Category") == "cat_4"
    ][0]
    txns = TransactionManager(parts_db)
    txn = txns.begin()
    txn.set(obj, "Category", "doomed")
    txn.abort()
    assert obj.get_member("Category") == "cat_4"
    result = run_query(parts_db, "select * from Parts where Category = 'doomed'")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Category = 'cat_4'")


def test_version_revert_restores_index_entries(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 20")
    obj = [
        o for o in parts_db.class_("Parts").members()
        if o.get_member("Serial") == 20
    ][0]
    guard = StateGuard(parts_db)
    guard.release(obj)
    with pytest.raises(VersionError):
        obj.set_attribute("Serial", 9999)
    assert obj.get_member("Serial") == 20
    result = run_query(parts_db, "select * from Parts where Serial = 9999")
    assert result.rows == []
    assert_queries_agree(parts_db, "select * from Parts where Serial = 20")


def test_inherited_values_are_indexable():
    """The paper's implementations inherit interface data; an index over a
    type source sees transmitter updates through the chain."""
    db = Database(_uname("gates"))
    db.indexes.min_index_source = 0
    iface = db.catalog.define_object_type(
        "Iface", attributes={"Length": ANY}
    )
    all_of = db.catalog.define_inheritance_type("AllOfIface", iface, ["Length"])
    impl = db.catalog.define_object_type("Impl")
    impl.declare_inheritor_in(all_of)
    interfaces = [
        db.create_object(iface, Length=length) for length in (10, 20, 30)
    ]
    for interface in interfaces:
        db.create_object(impl, transmitter=interface)
    result = run_query(db, "select * from Impl where Length = 20")
    assert result.plan.access_path == "index-eq"
    assert len(result.rows) == 1
    # A transmitter update must be visible through the index immediately.
    interfaces[0].set_attribute("Length", 20)
    result = run_query(db, "select * from Impl where Length = 20")
    assert len(result.rows) == 2
    assert_queries_agree(db, "select * from Impl where Length = 20")


def test_relationship_transmitter_entries_are_pinned_and_follow_writes():
    """A chain through a relationship object is not memoised by
    ``get_member``, so its entries have no known holder: they stay pinned
    to themselves and the downstream walk re-extracts them."""
    db = Database(_uname("conn"))
    db.indexes.min_index_source = 0
    node = db.catalog.define_object_type("NodeP", attributes={"N": ANY})
    conn = db.catalog.define_relationship_type(
        "ConnP", {"A": node, "B": node}, attributes={"Rate": ANY}
    )
    all_of = db.catalog.define_inheritance_type("AllOfConnP", conn, ["Rate"])
    user = db.catalog.define_object_type("UserP")
    user.declare_inheritor_in(all_of)
    ends = [db.create_object(node, N=i) for i in range(2)]
    links = [
        db.create_relationship(conn, {"A": ends[0], "B": ends[1]}, Rate=rate)
        for rate in (1, 2)
    ]
    users = [db.create_object(user, transmitter=links[i % 2]) for i in range(6)]
    result = run_query(db, "select * from UserP where Rate = 1")
    assert result.plan.access_path == "index-eq"
    assert len(result) == 3
    index = db.indexes.value_index("type", user.name, "Rate")
    assert set(index._pinned) == {u.surrogate for u in users}
    links[1].set_attribute("Rate", 1)
    assert len(run_query(db, "select * from UserP where Rate = 1")) == 6
    assert_queries_agree(db, "select * from UserP where Rate = 1")
    assert_queries_agree(db, "select * from UserP where Rate = 2")


def test_schema_change_drops_and_rebuilds_indexes(parts_db):
    run_query(parts_db, "select * from Parts where Serial = 1")
    dropped_before = parts_db.indexes.stats["index.dropped"]
    ObjectType(_uname("Unrelated"))  # any type definition bumps the epoch
    result = run_query(parts_db, "select * from Parts where Serial = 1")
    assert parts_db.indexes.stats["index.dropped"] > dropped_before
    assert result.plan.access_path == "index-eq"
    assert len(result.rows) == 1


def test_small_sources_stay_full_scan():
    db = Database(_uname("small"))
    thing = db.catalog.define_object_type("Thing", attributes={"n": ANY})
    db.create_class("Stuff", thing)
    for i in range(5):  # below the default min_index_source of 16
        db.create_object("Thing", class_name="Stuff", n=i)
    result = run_query(db, "select * from Stuff where n = 3")
    assert result.plan.access_path == "full-scan"
    assert db.indexes.stats["index.built"] == 0
    assert any("below index threshold" in note for note in result.plan.notes)


def test_objects_of_type_served_from_extent_index(parts_db):
    part = parts_db.catalog.type("Part")
    assert_type_index_agrees(parts_db, part)
    # O(result) service still matches the oracle after deletions.
    for obj in parts_db.class_("Parts").members()[:7]:
        obj.delete()
    assert_type_index_agrees(parts_db, part)


def test_database_select_goes_through_planner(parts_db):
    hits_before = parts_db.indexes.stats["index.hits"]
    selected = parts_db.select("Parts", "Category = 'cat_5'")
    assert parts_db.indexes.stats["index.hits"] > hits_before
    parts_db.indexes.auto = False
    oracle = parts_db.select("Parts", "Category = 'cat_5'")
    parts_db.indexes.auto = True
    assert [o.surrogate for o in selected] == [o.surrogate for o in oracle]


# ---------------------------------------------------------------------------
# executor satellites: top-k heap, distinct dedupe
# ---------------------------------------------------------------------------


def test_order_by_limit_uses_heap_and_matches_sort(parts_db):
    limited = run_query(
        parts_db, "select Serial from Parts order by Serial desc limit 7"
    )
    assert limited.plan.order == "top-7 heap desc"
    full = run_query(parts_db, "select Serial from Parts order by Serial desc")
    assert limited.rows == full.rows[:7]


def test_top_k_is_stable_for_duplicate_keys(parts_db):
    # Category has 10 duplicates per value; stability = extent order.
    limited = run_query(
        parts_db, "select * from Parts order by Category limit 12"
    )
    full = run_query(parts_db, "select * from Parts order by Category")
    assert [o.surrogate for o in limited.objects] == [
        o.surrogate for o in full.objects[:12]
    ]


def test_distinct_unhashable_rows_regression():
    db = Database(_uname("distinct"))
    thing = db.catalog.define_object_type("Thing", attributes={"v": ANY})
    db.create_class("Stuff", thing)
    values = [[1, 2], [1, 2], [3], "plain", "plain", [1, 2]]
    for value in values:
        db.create_object("Thing", class_name="Stuff", v=value)
    result = run_query(db, "select distinct v from Stuff")
    assert result.rows == [([1, 2],), ([3],), ("plain",)]


def test_distinct_hashable_equal_to_unhashable():
    # frozenset() == set(): the set-based fast path must not resurrect a
    # row already kept via the unhashable pool.
    db = Database(_uname("distinct2"))
    thing = db.catalog.define_object_type("Thing", attributes={"v": ANY})
    db.create_class("Stuff", thing)
    db.create_object("Thing", class_name="Stuff", v=set())
    db.create_object("Thing", class_name="Stuff", v=frozenset())
    result = run_query(db, "select distinct v from Stuff")
    assert len(result.rows) == 1


# ---------------------------------------------------------------------------
# surfaces: metrics, CLI
# ---------------------------------------------------------------------------


def test_metrics_snapshot_exposes_index_counters():
    from repro.obs.report import snapshot

    db = Database(_uname("obs"), observe=True)
    thing = db.catalog.define_object_type("Thing", attributes={"n": ANY})
    db.create_class("Stuff", thing)
    db.indexes.min_index_source = 0
    for i in range(20):
        db.create_object("Thing", class_name="Stuff", n=i)
    run_query(db, "select * from Stuff where n = 4")
    gauges = snapshot(db, include_events=False)["gauges"]
    for key in ("index.hits", "index.misses", "index.maintenance",
                "index.built", "index.stale_repairs"):
        assert key in gauges
    assert gauges["index.hits"] >= 1
    assert gauges["index.built"] >= 1


def test_cli_query_explain(tmp_path, capsys):
    from repro.cli import main
    from repro.ddl import load_schema
    from repro.ddl.paper import GATE_SCHEMA
    from repro.engine import save

    schema_path = tmp_path / "gates.ddl"
    schema_path.write_text(GATE_SCHEMA)
    db = Database("cli")
    load_schema(GATE_SCHEMA, db.catalog)
    for length in (10, 20, 30):
        iface = db.create_object("GateInterface", Length=length, Width=5)
        iface.subclass("Pins").create(InOut="IN")
    image_path = tmp_path / "image.json"
    save(db, str(image_path))
    assert main([
        "query", str(schema_path), str(image_path),
        "select Length from GateInterface where Length = 20", "--explain",
    ]) == 0
    out = capsys.readouterr().out
    assert "plan: select Length from GateInterface where Length = 20" in out
    assert "source:  type GateInterface" in out
    assert "access:" in out
    assert "estimated=" in out
    assert "(1 row(s))" in out
