"""Tests for materialized per-type views (repro.query.views).

The contract under test is *oracle equivalence*: with value indexes off,
whatever the view engine answers must be identical — rows, objects, or
the raised exception — to the live resolution path
(``run_query(..., views=False)``).  The hypothesis property drives
randomized mutation scripts (attribute writes, binds, unbinds, deletes,
transaction aborts, version revert-and-reject, ``declare_inheritor_in``
rebinds) with the view built *early*, so incremental maintenance — not a
fresh build at query time — is what answers.

Deterministic tests pin the surfaces: the ``view`` access path in
EXPLAIN, the ``query.view.*`` counter family, staleness rebuilds on
schema changes, taint fallback, the REP505 advisory, provenance's
``materialized in`` line, and the parse-cache epoch regression.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY
from repro.core.inheritance import InheritanceRelationshipType
from repro.core.objtype import ObjectType
from repro.engine.database import Database
from repro.core.resolution import naive_get_member, schema_epoch
from repro.errors import ReproError, UnknownAttributeError, VersionError
from repro.query import run_query
from repro.txn.transactions import TransactionManager
from repro.versions.states import StateGuard

_counter = [0]


def _uname(prefix):
    _counter[0] += 1
    return f"{prefix}Vw{_counter[0]}"


def assert_view_queries_agree(db, text):
    """View-routed execution must match the live-resolution oracle exactly —
    rows, columns, objects, or the exception type and message."""
    try:
        oracle = run_query(db, text, views=False)
        oracle_exc = None
    except Exception as exc:  # noqa: BLE001 - re-asserted below
        oracle, oracle_exc = None, exc
    if oracle_exc is not None:
        with pytest.raises(type(oracle_exc)) as caught:
            run_query(db, text)
        assert str(caught.value) == str(oracle_exc)
        return
    viewed = run_query(db, text)
    assert viewed.columns == oracle.columns
    assert viewed.rows == oracle.rows
    if oracle.objects is not None:
        assert [o.surrogate for o in viewed.objects] == [
            o.surrogate for o in oracle.objects
        ]


# ---------------------------------------------------------------------------
# the randomized mutation-script oracle property
# ---------------------------------------------------------------------------

ALPHA_VALUES = (0, 1, 2, 3)
BETA_VALUES = (0, 1, 2, 3, 4, 5)
GAMMA_VALUES = (5, 6, 7)


def _make_world():
    """Base/Mid/Sub types, one class, one view-only db.

    Sub inherits alpha and gamma from Base directly or, through Mid, two
    hops up.  gamma has a declared default (7): a Base without a gamma
    value makes readers gather the default through an UNSET holder cell.
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
    db.indexes.auto = False  # isolate the view path from index routing
    db.views.min_view_source = 0
    for type_ in (base, mid, sub):
        db.catalog.register(type_)
    db.create_class("Things", base)
    return db, base, mid, sub, rel, rel_mid


def assert_view_cells_match(db, objs):
    """Every gathered cell equals the interpretive oracle (label
    convention included), unless the row is tainted for error parity."""
    for obj in objs:
        if obj.deleted:
            continue
        view = db.views._views.get(obj.object_type)
        if view is None or view.schema_epoch != schema_epoch():
            continue
        for name in view.names:
            try:
                expected = naive_get_member(obj, name)
            except UnknownAttributeError:
                expected = name
            except ReproError:
                assert obj.surrogate in view.tainted
                continue
            assert view.cell(obj, name) == expected, (obj, name)


def _battery(db, base, mid, sub):
    for text in (
        "select * from Things where alpha = 2",
        "select alpha, beta from Things where beta > 2",
        "select * from Things where alpha = 1 and beta >= 1",
        "select * from Things where gamma = 7",
        f"select * from {base.name} where alpha = 3",
        f"select * from {sub.name} where alpha = 0",
        f"select * from {sub.name} where alpha > 1",
        f"select * from {sub.name} where gamma + 1 = 8",
        f"select * from {mid.name} where alpha + gamma > 8",
    ):
        assert_view_queries_agree(db, text)


action = st.one_of(
    st.tuples(st.just("create_base"), st.sampled_from(ALPHA_VALUES),
              st.sampled_from(BETA_VALUES)),
    st.tuples(st.just("create_sub"), st.integers(0, 20)),
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
def test_views_match_live_resolution_oracle(actions):
    db, base, mid, sub, rel, rel_mid = _make_world()
    txns = TransactionManager(db)
    guard = StateGuard(db)
    objs = []
    for value in (0, 1, 2):
        objs.append(
            db.create_object(base, class_name="Things", alpha=value, beta=1)
        )
    # Prime the views now so the script below exercises the incremental
    # maintenance path, not a fresh build at query time.
    _battery(db, base, mid, sub)

    def pick(i):
        return objs[i % len(objs)] if objs else None

    for step in actions:
        kind = step[0]
        if kind not in ("create_base", "create_sub", "create_mid") and pick(0) is None:
            continue
        try:
            if kind == "create_base":
                objs.append(
                    db.create_object(
                        base, class_name="Things", alpha=step[1], beta=step[2]
                    )
                )
            elif kind in ("create_sub", "create_mid"):
                transmitter = pick(step[1])
                obj = db.create_object(
                    sub if kind == "create_sub" else mid, class_name="Things"
                )
                if transmitter is not None and transmitter.object_type is base:
                    db.bind(obj, transmitter, rel)
                objs.append(obj)
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
                # Restores the prior cell: UNSET when gamma was never set.
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
                # bumps the schema epoch, dropping every view.
                new_rel = InheritanceRelationshipType(
                    _uname("LateRel"), transmitter_type=base, inheriting=["beta"]
                )
                sub.declare_inheritor_in(new_rel)
                inheritor, transmitter = pick(step[1]), pick(step[2])
                if inheritor.object_type is sub and transmitter.object_type is base:
                    db.bind(inheritor, transmitter, new_rel)
        except ReproError:
            # Illegal scripts (double bind, write-through-link, …) are
            # fine: the engine rejected them before either path ran.
            pass
        # One agreement probe per step catches staleness at the moment it
        # appears, not only at the end.
        assert_view_queries_agree(db, f"select * from {sub.name} where alpha = 1")
        assert_view_queries_agree(db, f"select * from {sub.name} where gamma = 7")
        assert_view_cells_match(db, objs)

    _battery(db, base, mid, sub)
    assert_view_cells_match(db, objs)


# ---------------------------------------------------------------------------
# slotted-storage edge paths: overflow dicts, row recycling
# ---------------------------------------------------------------------------


def _iface_world(n=20, dynamic_sub=False):
    db = Database(_uname("gates"))
    db.indexes.auto = False
    db.views.min_view_source = 0
    iface = db.catalog.define_object_type("Iface", attributes={"Length": ANY})
    all_of = db.catalog.define_inheritance_type("AllOfIface", iface, ["Length"])
    impl = db.catalog.define_object_type("Impl", allow_dynamic=dynamic_sub)
    impl.declare_inheritor_in(all_of)
    interfaces = [db.create_object(iface, Length=i) for i in range(n)]
    impls = [
        db.create_object(impl, transmitter=interfaces[i]) for i in range(n)
    ]
    return db, interfaces, impls


def test_overflow_dict_attributes_do_not_disturb_views():
    """Dynamic attributes live in the per-object overflow dict, outside
    any plan entry: writes to them must neither refresh nor corrupt the
    view, and predicates over them must stay on the live path."""
    db, interfaces, impls = _iface_world(dynamic_sub=True)
    assert_view_queries_agree(db, "select * from Impl where Length = 3")
    refreshes = db.views.stats["query.view.refreshes"]
    impls[3].set_attribute("extra", 99)  # undeclared on Impl -> overflow
    assert impls[3]._overflow and "extra" in impls[3]._overflow
    assert db.views.stats["query.view.refreshes"] == refreshes
    for text in (
        "select * from Impl where extra = 99",
        "select * from Impl where Length = 3",
    ):
        assert_view_queries_agree(db, text)
    # The dynamic name is not a view column, so the view never answers it.
    result = run_query(db, "select * from Impl where extra = 99")
    assert result.plan.access_path == "full-scan"
    # A covered name still routes, reading past the overflow spill.
    result = run_query(db, "select * from Impl where Length = 3")
    assert result.plan.access_path == "view"
    assert len(result.rows) == 1


def test_unbound_local_write_refreshes_view():
    """After an unbind, the inheritor's own (formerly shadowed) slot value
    is what resolves; a subsequent local write must flow into the view."""
    db, interfaces, impls = _iface_world()
    assert_view_queries_agree(db, "select * from Impl where Length = 3")
    impls[3].link_for(db.catalog.inheritance_type("AllOfIface")).unbind()
    impls[3].set_attribute("Length", 99)
    for text in (
        "select * from Impl where Length = 99",
        "select * from Impl where Length = 3",
    ):
        assert_view_queries_agree(db, text)
    result = run_query(db, "select * from Impl where Length = 99")
    assert result.plan.access_path == "view"
    assert len(result.rows) == 1


def test_deleted_row_recycling_keeps_view_consistent():
    """Deleting objects releases store rows to a free list; new objects
    reuse them.  View columns are aligned with store rows, so a recycled
    row's cells must be overwritten for the new occupant."""
    db, interfaces, impls = _iface_world()
    assert_view_queries_agree(db, "select * from Impl where Length >= 0")
    victims = impls[3:9]
    rows = {o._row for o in victims}
    for obj in victims:
        obj.delete()
    fresh = [
        db.create_object(
            db.catalog.type("Impl"), transmitter=interfaces[i + 10]
        )
        for i in range(6)
    ]
    assert {o._row for o in fresh} & rows  # rows actually recycled
    for text in (
        "select * from Impl where Length >= 0",
        "select * from Impl where Length = 13",
        "select * from Impl where Length < 5",
    ):
        assert_view_queries_agree(db, text)
    view = db.views.view_for(db.catalog.type("Impl"))
    assert len(view) == len([o for o in impls if not o.deleted]) + len(fresh)


def test_view_columns_stay_aligned_with_store_rows():
    """Rows live at ``obj._row``: deletion drops them, and a store-recycled
    row is repointed for its new occupant — the pointer columns never grow
    while the store reuses rows."""
    db, interfaces, impls = _iface_world()
    run_query(db, "select * from Impl where Length > 0")
    view = db.views.view_for(db.catalog.type("Impl"))
    rows_before = len(view.src[0])
    freed = [obj._row for obj in impls[:5]]
    for obj in impls[:5]:
        obj.delete()
        assert obj.surrogate not in view.row_of
    recreated = [
        db.create_object(db.catalog.type("Impl"), transmitter=interfaces[i])
        for i in range(5)
    ]
    assert {o._row for o in recreated} == set(freed)  # store reused rows
    for i, obj in enumerate(recreated):
        assert view.row_of[obj.surrogate] == obj._row
        assert view.cell(obj, "Length") == i
    assert len(view.src[0]) == rows_before  # no growth: rows reused
    assert_view_queries_agree(db, "select * from Impl where Length > 0")


def test_view_cells_point_at_the_holder_not_a_copy():
    """A cell is the holder store's column plus the holder's row: a
    transmitter write moves no pointer and the next gather reads it."""
    db, interfaces, impls = _iface_world()
    run_query(db, "select * from Impl where Length > 0")
    view = db.views.view_for(db.catalog.type("Impl"))
    col, row = view.col_of["Length"], impls[4]._row
    column = interfaces[4]._store.columns[interfaces[4]._store.slot_of["Length"]]
    assert view.src[col][row] is column
    assert view.hrow[col][row] == interfaces[4]._row
    refreshes = db.views.stats["query.view.refreshes"]
    interfaces[4].set_attribute("Length", 77)
    assert db.views.stats["query.view.refreshes"] == refreshes
    assert view.cell(impls[4], "Length") == 77
    assert_view_queries_agree(db, "select * from Impl where Length = 77")


def test_compiled_scan_follows_a_row_repointed_off_the_shared_column():
    """While every row points into one holder column the scan gathers from
    it directly; a row repointed elsewhere (here: unbound, so it reads
    its own empty cell) must retire that program."""
    db, interfaces, impls = _iface_world()
    text = "select * from Impl where Length = 0"
    assert_view_queries_agree(db, text)
    view = db.views.view_for(db.catalog.type("Impl"))
    assert view.shared_source(view.col_of["Length"]) is not None
    impls[5].inheritance_links[0].unbind()
    assert view.cell(impls[5], "Length") is impls[5].get_member("Length") is None
    assert run_query(db, text).plan.access_path == "view"
    assert_view_queries_agree(db, text)


def test_forgotten_holder_taints_rows_still_pointing_at_it():
    """Deleting a link object directly emits no unbind event, so the row
    keeps pointing at the old transmitter; once that holder is deleted
    too, its store row is recycled and the row must be refused."""
    db, interfaces, impls = _iface_world()
    text = "select * from Impl where Length = 6"
    assert_view_queries_agree(db, text)
    view = db.views.view_for(db.catalog.type("Impl"))
    impls[6].inheritance_links[0].delete()
    interfaces[6].delete()
    assert impls[6].surrogate in view.tainted
    assert run_query(db, text).plan.access_path == "full-scan"
    assert_view_queries_agree(db, text)


def test_restore_that_empties_a_holder_cell_repoints_to_the_default():
    """A row bound while its holder's cell is set points straight at the
    cell; an abort that restores the cell to UNSET must leave the row
    reading the declared default, exactly like the live path."""
    db = Database(_uname("unset"))
    db.indexes.auto = False
    db.views.min_view_source = 0
    iface = db.catalog.define_object_type(
        "IfaceU", attributes={"Length": AttributeSpec("Length", ANY, default=3)}
    )
    all_of = db.catalog.define_inheritance_type("AllOfIfaceU", iface, ["Length"])
    impl = db.catalog.define_object_type("ImplU")
    impl.declare_inheritor_in(all_of)
    holder = db.create_object(iface)
    db.create_object(impl, transmitter=holder)
    run_query(db, "select * from ImplU where Length = 3")  # builds the view
    view = db.views.view_for(impl)
    txn = TransactionManager(db).begin()
    txn.set(holder, "Length", 9)
    late = db.create_object(impl, transmitter=holder)
    assert view.cell(late, "Length") == 9
    txn.abort()
    assert view.cell(late, "Length") == 3
    for text in ("select * from ImplU where Length = 3",
                 "select * from ImplU where Length = 9"):
        assert_view_queries_agree(db, text)


# ---------------------------------------------------------------------------
# deterministic surfaces
# ---------------------------------------------------------------------------


def test_explain_shows_view_access_path():
    db, _, _ = _iface_world()
    result = run_query(db, "select * from Impl where Length > 10", explain=True)
    text = result.explain()
    assert result.plan.access_path == "view"
    assert "access:  view" in text
    assert any("view: Impl columns [Length]" in note for note in result.plan.notes)


def test_view_disabled_stays_on_live_path():
    db, _, _ = _iface_world()
    result = run_query(db, "select * from Impl where Length > 10", views=False)
    assert result.plan.access_path == "full-scan"
    assert db.views.stats["query.view.hits"] == 0


def test_index_path_takes_precedence_over_view():
    db, _, _ = _iface_world()
    db.indexes.auto = True
    db.indexes.min_index_source = 0
    result = run_query(db, "select * from Impl where Length = 7")
    assert result.plan.access_path == "index-eq"


def test_metrics_snapshot_exposes_view_counters():
    from repro.obs.report import snapshot

    db, interfaces, impls = _iface_world()
    db.enable_observability()
    run_query(db, "select * from Impl where Length > 5")
    interfaces[0].set_attribute("Length", 50)  # moves no pointer
    impls[1].inheritance_links[0].unbind()  # repoints one row
    gauges = snapshot(db, include_events=False)["gauges"]
    for key in ("query.view.hits", "query.view.misses",
                "query.view.refreshes", "query.view.staleness",
                "query.view.views", "query.view.rows", "query.view.tainted"):
        assert key in gauges
    assert gauges["query.view.hits"] >= 1
    assert gauges["query.view.refreshes"] >= 1
    assert gauges["query.view.rows"] >= 20


def test_schema_change_rebuilds_view_and_counts_staleness():
    db, _, _ = _iface_world()
    run_query(db, "select * from Impl where Length > 5")
    assert db.views.stats["query.view.staleness"] == 0
    ObjectType(_uname("Unrelated"))  # any type definition bumps the epoch
    result = run_query(db, "select * from Impl where Length > 5")
    assert result.plan.access_path == "view"
    assert db.views.stats["query.view.staleness"] == 1
    view = db.views.view_for(db.catalog.type("Impl"))
    assert view.staleness == 1


def test_tainted_rows_refuse_view_scans():
    db, _, impls = _iface_world()
    view = db.views.view_for(db.catalog.type("Impl"))
    assert view is not None
    view.tainted.add(impls[0].surrogate)  # simulate an extraction failure
    result = run_query(db, "select * from Impl where Length > 5")
    assert result.plan.access_path == "full-scan"
    assert any("tainted" in note for note in result.plan.notes)
    assert db.views.stats["query.view.misses"] >= 1
    assert_view_queries_agree(db, "select * from Impl where Length > 5")


def test_small_extents_stay_live():
    db = Database(_uname("small"))
    db.indexes.auto = False
    iface = db.catalog.define_object_type("IfaceS", attributes={"L": ANY})
    all_of = db.catalog.define_inheritance_type("AllOfIfaceS", iface, ["L"])
    impl = db.catalog.define_object_type("ImplS")
    impl.declare_inheritor_in(all_of)
    for i in range(5):  # below the default min_view_source of 16
        t = db.create_object(iface, L=i)
        db.create_object(impl, transmitter=t)
    result = run_query(db, "select * from ImplS where L = 3")
    assert result.plan.access_path == "full-scan"
    assert db.views.stats["query.view.hits"] == 0


def test_container_predicates_never_route_to_views():
    db = Database(_uname("cont"))
    db.indexes.auto = False
    db.views.min_view_source = 0
    pin = db.catalog.define_object_type("PinC", attributes={"InOut": ANY})
    iface = db.catalog.define_object_type(
        "IfaceC", attributes={"Length": ANY}, subclasses={"Pins": pin}
    )
    all_of = db.catalog.define_inheritance_type(
        "AllOfIfaceC", iface, ["Length", "Pins"]
    )
    impl = db.catalog.define_object_type("ImplC")
    impl.declare_inheritor_in(all_of)
    for i in range(20):
        t = db.create_object(iface, Length=i)
        t.subclass("Pins").create(InOut="IN")
        db.create_object(impl, transmitter=t)
    # Pins is a container member: not a view column, stays live.
    result = run_query(db, "select * from ImplC where count(Pins) = 1")
    assert result.plan.access_path == "full-scan"
    # Length is attribute-valued: routed.
    result = run_query(db, "select * from ImplC where Length > 10")
    assert result.plan.access_path == "view"
    assert_view_queries_agree(db, "select * from ImplC where count(Pins) = 1")


def test_rep505_advises_on_container_members():
    from repro.analysis import analyze

    src = """
    obj-type PinType = attributes: InOut: string; end PinType;
    obj-type GateInterface = attributes: Length: integer;
      types-of-subclasses: Pins: PinType; end GateInterface;
    inher-rel-type AllOf_GateInterface =
      transmitter: object-of-type GateInterface;
      inheritor: object; inheriting: Length, Pins; end AllOf_GateInterface;
    obj-type GateImplementation = inheritor-in: AllOf_GateInterface;
      attributes: Name: string; end GateImplementation;
    """
    findings = [d for d in analyze(src) if d.code == "REP505"]
    assert len(findings) == 1
    assert findings[0].subject == "GateImplementation"
    assert "Pins" in findings[0].message
    # The attribute-only clean twin stays quiet.
    clean = src.replace("Length, Pins;", "Length;")
    assert not [d for d in analyze(clean) if d.code == "REP505"]


def test_explain_value_reports_view_freshness():
    db, interfaces, impls = _iface_world()
    run_query(db, "select * from Impl where Length > 5")  # builds the view
    prov = db.explain_value(impls[7], "Length")
    assert prov.views == ["type:Impl.Length (fresh)"]
    assert "materialized in: type:Impl.Length (fresh)" in prov.render()
    assert prov.as_dict()["views"] == ["type:Impl.Length (fresh)"]
    # Forge a stale cell: repoint it by hand, no event (the documented gap).
    view = db.views.view_for(db.catalog.type("Impl"))
    col, row = view.col_of["Length"], view.row_of[impls[7].surrogate]
    view.src[col][row], view.hrow[col][row] = [-1], 0
    prov = db.explain_value(impls[7], "Length")
    assert prov.views == ["type:Impl.Length (stale)"]


def test_verify_harness_checks_view_parity():
    from repro.analysis import verify_against_runtime

    src = """
    obj-type Iface = attributes: Length: integer; end Iface;
    inher-rel-type AllOf_Iface = transmitter: object-of-type Iface;
      inheritor: object; inheriting: Length; end AllOf_Iface;
    obj-type Impl = inheritor-in: AllOf_Iface;
      attributes: Name: string; end Impl;
    """
    report = verify_against_runtime(src, strict=True)
    assert report.ok, report.render()
    assert not report.failures


# ---------------------------------------------------------------------------
# parse-cache staleness regression (satellite 1)
# ---------------------------------------------------------------------------


def test_parse_cache_does_not_survive_schema_changes():
    """Identical query text before and after a DDL change must not share
    AST nodes: node identity keys every compiled cache, so a stale parse
    would serve a program compiled against the old schema."""
    db = Database(_uname("epoch"))
    db.indexes.auto = False
    db.views.min_view_source = 0
    base = db.catalog.define_object_type("BaseE", attributes={"alpha": ANY})
    sub = db.catalog.define_object_type("SubE", attributes={"Name": ANY})
    db.create_class("ThingsE", sub)
    transmitters = [db.create_object(base, alpha=i) for i in range(20)]
    subs = [
        db.create_object(sub, class_name="ThingsE", Name=f"s{i}")
        for i in range(20)
    ]
    text = "select * from ThingsE where alpha = 5"
    # Before any inheritance is declared, 'alpha' is an unknown name on
    # SubE: the label convention resolves it to the string "alpha".
    before = run_query(db, text)
    assert len(before.rows) == 0
    # Redefine: declare the inheritance, bind, and re-run the same text.
    rel = db.catalog.define_inheritance_type("AllOfBaseE", base, ["alpha"])
    sub.declare_inheritor_in(rel)
    for obj, transmitter in zip(subs, transmitters):
        db.bind(obj, transmitter, rel)
    after = run_query(db, text)
    assert len(after.rows) == 1
    assert after.objects[0].get_member("alpha") == 5
    assert_view_queries_agree(db, text)


def test_parse_cache_shares_nodes_within_an_epoch():
    from repro.query import parse_query

    first = parse_query("select * from X where alpha = 5")
    second = parse_query("select * from X where alpha = 5")
    assert first is not second  # specs are fresh copies
    assert first.where is second.where  # clause ASTs are shared
    ObjectType(_uname("EpochBump"))
    third = parse_query("select * from X where alpha = 5")
    assert third.where is not first.where


def test_view_programs_are_bounded_by_the_parse_lru():
    """A view program is weakly keyed by its where-node: once the parse
    LRU (256 texts) evicts a text, its program goes with the AST."""
    import gc

    db, interfaces, impls = _iface_world()
    for i in range(1000):
        result = run_query(db, f"select * from Impl where Length + {i} > 5")
        assert result.plan.access_path == "view"
    gc.collect()
    view = db.views.view_for(impls[0].object_type)
    assert 0 < len(view._programs) <= 256


def test_shared_column_break_retires_programs_by_generation():
    """The shared-column break retires compiled view programs by bumping
    the view's generation; unrelated programs are not dropped by hand."""
    db, interfaces, impls = _iface_world()
    text = "select * from Impl where Length + 0 = 3"
    assert_view_queries_agree(db, text)
    view = db.views.view_for(impls[0].object_type)
    node = run_query(db, text).spec.where
    program = view.program_for(node)
    assert view.program_for(node) is program
    generation = view.generation
    impls[5].inheritance_links[0].unbind()  # repoints off the shared column
    assert view.generation == generation + 1
    assert view.program_for(node) is not program
    assert_view_queries_agree(db, text)
