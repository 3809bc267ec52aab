"""Slotted storage and compiled expressions: oracle equivalence.

The storage engine change has two halves with an explicit testing oracle
each:

* **slots vs dicts** — an object's local cells (``local_attributes()``,
  ``_local_value`` / ``_write_cell`` over the type's column store) must
  behave exactly like the raw dict they replaced, through creation,
  mutation, transaction abort, version-guard revert, deletion and
  schema-epoch migration;
* **compiled vs tree walk** — compiled slot programs
  (:mod:`repro.expr.compile`) must agree with ``Node.evaluate`` on values
  *and* on errors, and the batch executor / constraint sweep built on them
  must agree with their interpretive ``compiled=False`` modes.

Hypothesis drives randomized schemas, values and mutation scripts at both
oracles; the deterministic classes pin the epoch-bump migration rules.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import resolution
from repro.core.attributes import AttributeSpec
from repro.core.domains import ANY, INTEGER
from repro.core.slots import UNSET, store_for
from repro.engine import Database
from repro.engine.integrity import sweep_constraints
from repro.errors import (
    ConstraintViolation,
    ExprEvaluationError,
    UnknownAttributeError,
    VersionError,
)
from repro.expr import EvalContext, parse_expression, truthy
from repro.expr.compile import (
    cache_stats,
    compile_info,
    compiled_for,
    invalidate_cache,
)
from repro.query.executor import run_query
from repro.txn.transactions import TransactionManager
from repro.versions import StateGuard

_SEQ = iter(range(10**9))


def fresh_db(constraints=None):
    """A database with one slotted Part type and a Parts class."""
    db = Database(f"storage-{next(_SEQ)}")
    db.indexes.auto = False
    db.catalog.define_object_type(
        "Part",
        attributes={"A": ANY, "B": ANY, "C": ANY},
        constraints=constraints or [],
    )
    db.create_class("Parts", "Part")
    return db


# ---------------------------------------------------------------------------
# deterministic: the raw store API
# ---------------------------------------------------------------------------


class TestRawStore:
    def test_raw_reads_report_stored_cells(self):
        db = fresh_db()
        obj = db.create_object("Part", class_name="Parts", A=1, B="x")
        assert obj._local_value("A") == 1 and obj._local_value("B") == "x"
        assert obj._local_value("C") is None
        assert obj._local_value("C", UNSET) is UNSET
        assert not obj._has_local_value("C")
        assert obj.local_attributes() == {"A": 1, "B": "x"}

    def test_raw_writes_bypass_validation_and_events(self):
        db = fresh_db()
        seen = []
        db.events.subscribe("*", seen.append)
        obj = db.create_object("Part", class_name="Parts", A=1)
        seen.clear()
        epoch = obj._mutation_epoch
        assert obj._write_cell("C", 99) is UNSET
        assert obj.get_member("C") == 99
        assert obj._write_cell("A", UNSET) == 1  # UNSET clears, prior back
        assert not obj._has_local_value("A")
        assert obj._write_cell("A", UNSET) is UNSET
        assert seen == [] and obj._mutation_epoch == epoch

    def test_undeclared_name_goes_to_overflow(self):
        db = fresh_db()
        obj = db.create_object("Part", class_name="Parts", A=1)
        obj._write_cell("Zig", 7)  # no slot — raw writes land in overflow
        assert obj._local_value("Zig") == 7
        assert "Zig" not in store_for(obj.object_type).slot_of
        assert obj._overflow == {"Zig": 7}
        assert obj._write_cell("Zig", UNSET) == 7
        assert obj._overflow == {}

    def test_deleted_object_keeps_last_values(self):
        db = fresh_db()
        obj = db.create_object("Part", class_name="Parts", A=5, B=6)
        row = obj._row
        obj.delete()
        assert obj._row == -1
        # Spilled to overflow: raw reads still report the last local state.
        assert obj.local_attributes() == {"A": 5, "B": 6}
        # The row is recycled and starts clean.
        other = db.create_object("Part", class_name="Parts")
        assert other._row == row
        assert other.local_attributes() == {}

    def test_restore_bumps_epoch_and_emits(self):
        db = fresh_db()
        seen = []
        db.events.subscribe("attribute_restored", seen.append)
        obj = db.create_object("Part", class_name="Parts", A=1)
        epoch = obj._mutation_epoch
        obj._restore_attribute("A", 2)
        obj._restore_attribute("B", UNSET)
        assert obj.local_attributes() == {"A": 2}
        assert obj._mutation_epoch == epoch + 2
        assert [(e.subject, e.attribute) for e in seen] == [
            (obj, "A"), (obj, "B"),
        ]


# ---------------------------------------------------------------------------
# deterministic: schema-epoch migration
# ---------------------------------------------------------------------------


class TestEpochMigration:
    def test_values_survive_unrelated_epoch_bump(self):
        db = fresh_db()
        obj = db.create_object("Part", class_name="Parts", A=1, B=2, C=3)
        resolution.bump_schema_epoch()
        assert obj.get_member("A") == 1
        assert obj.local_attributes() == {"A": 1, "B": 2, "C": 3}

    def test_new_attribute_gets_fresh_column(self):
        db = fresh_db()
        part = db.catalog.object_type("Part")
        obj = db.create_object("Part", class_name="Parts", A=1)
        part.attributes["D"] = AttributeSpec("D", INTEGER, default=42)
        resolution.bump_schema_epoch()
        # The default is visible through the member protocol, raw reads
        # still show only stored values.
        assert obj.get_member("D") == 42
        assert not obj._has_local_value("D")
        obj.set_attribute("D", 7)
        assert obj._local_value("D") == 7 and obj.get_member("A") == 1

    def test_migration_moves_columns_by_name_zero_copy(self):
        db = fresh_db()
        part = db.catalog.object_type("Part")
        db.create_object("Part", class_name="Parts", A=1, B=2)
        store = store_for(part)
        column_a = store.columns[store.slot_of["A"]]
        part.attributes["D"] = AttributeSpec("D", INTEGER)
        resolution.bump_schema_epoch()
        refreshed = store_for(part)
        assert refreshed is store
        # Same column list object — values moved by name without copying.
        assert refreshed.columns[refreshed.slot_of["A"]] is column_a
        assert "D" in refreshed.slot_of

    def test_dropped_attribute_keeps_trailing_column(self):
        db = fresh_db()
        part = db.catalog.object_type("Part")
        obj = db.create_object("Part", class_name="Parts", A=1, C=9)
        del part.attributes["C"]
        resolution.bump_schema_epoch()
        # No longer a member, but the stored value outlives the schema
        # change (dict semantics: the key stayed in the dict).
        with pytest.raises(UnknownAttributeError):
            obj.get_member("C")
        assert obj._local_value("C") == 9

    def test_compiled_programs_recompile_after_bump(self):
        db = fresh_db()
        part = db.catalog.object_type("Part")
        node = parse_expression("A > 10")
        before = compiled_for(node, part)
        assert compiled_for(node, part) is before  # cache hit
        resolution.bump_schema_epoch()
        after = compiled_for(node, part)
        assert after is not before  # epoch invalidated the program
        obj = db.create_object("Part", class_name="Parts", A=11)
        assert after.predicate(obj) is True


# ---------------------------------------------------------------------------
# compiled programs vs the tree-walking interpreter
# ---------------------------------------------------------------------------

#: Expression shapes covering slot reads, arithmetic, comparisons (and
#: their error paths), logic, membership, dynamic names and surrogates.
EXPR_SOURCES = [
    "A = 5",
    "A != B",
    "A > B",
    "A <= C",
    "A + B = C",
    "A * 2 > B - 1",
    "A / B > 1",
    "A % B = 0",
    "-A < B",
    "A > 0 and B > 0",
    "A > 0 or not (B > 0)",
    "A in B",
    "A not in B",
    "Nope = 3",
    "A = Nope",
    "surrogate = A",
]

values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(["x", "y", "5", ""]),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)


def outcome(thunk):
    try:
        return ("value", thunk())
    except ExprEvaluationError as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.fixture(scope="module")
def oracle_db():
    db = fresh_db()
    obj = db.create_object("Part", class_name="Parts")
    return db, obj


class TestCompiledMatchesInterpreter:
    @settings(max_examples=150, deadline=None)
    @given(
        source=st.sampled_from(EXPR_SOURCES),
        a=values, b=values, c=values,
        unset=st.sets(st.sampled_from(["A", "B", "C"]), max_size=2),
    )
    def test_expression_oracle(self, oracle_db, source, a, b, c, unset):
        db, obj = oracle_db
        for name, value in (("A", a), ("B", b), ("C", c)):
            obj._write_cell(name, UNSET if name in unset else value)
        node = parse_expression(source)
        program = compiled_for(node, obj.object_type)
        walked = outcome(lambda: node.evaluate(EvalContext(obj)))
        compiled = outcome(lambda: program.expression(obj))
        assert compiled == walked
        if walked[0] == "value":
            assert program.predicate(obj) == truthy(walked[1])
            # The batch scan agrees with the per-object predicate (or
            # bails to it, which the executor treats identically).
            scan = program.scan([obj])
            if scan is not None:
                scanned, matched = scan
                assert scanned == 1
                assert (obj in matched) == truthy(walked[1])

    def test_compile_info_reasons(self, oracle_db):
        db, obj = oracle_db
        part = obj.object_type
        assert compile_info(parse_expression("A > 10"), part).fast
        info = compile_info(parse_expression("Nope = 3"), part)
        assert "dynamic-name" in info.kinds()
        info = compile_info(parse_expression("count(Items) = 2"), part)
        assert "aggregate" in info.kinds()

    def test_cache_hits_for_repeated_query_text(self, oracle_db):
        db, obj = oracle_db
        run_query(db, "select * from Parts where A = 5")
        before = cache_stats()["expr.compiled"]
        run_query(db, "select * from Parts where A = 5")
        assert cache_stats()["expr.compiled"] == before

    def test_repeated_select_text_compiles_once(self, oracle_db, monkeypatch):
        from repro.expr import compile as compile_module

        db, obj = oracle_db
        builds = []
        build = compile_module._build
        monkeypatch.setattr(
            compile_module, "_build", lambda *args: builds.append(args) or build(*args)
        )
        assert db.select("Parts", "A = 6 or B = 7") == []
        builds.clear()
        db.select("Parts", "A = 6 or B = 7")
        assert builds == []  # one parse, one program: both reused


class TestProgramLifetime:
    """Compiled programs live exactly as long as their parsed AST, so the
    parse LRU is the only bound on how many are kept."""

    def test_programs_die_with_their_ast(self):
        db = fresh_db()
        node = parse_expression("A > 1 and B < 2")
        compiled_for(node, db.catalog.type("Part"))
        gc.collect()
        kept = cache_stats()["expr.compiled"]
        del node
        gc.collect()
        assert cache_stats()["expr.compiled"] == kept - 1

    def test_repeated_select_keeps_a_bounded_number_of_programs(self):
        db = fresh_db()
        for i in range(20):
            db.create_object("Part", class_name="Parts", A=i)
        gc.collect()
        before = cache_stats()["expr.compiled"]
        for _ in range(2000):
            assert len(db.select("Parts", "A = 5")) == 1
        gc.collect()
        assert cache_stats()["expr.compiled"] - before <= 1

    def test_invalidate_cache_drops_every_program(self):
        db = fresh_db()
        node = parse_expression("A = 1")
        first = compiled_for(node, db.catalog.type("Part"))
        invalidate_cache()
        assert cache_stats()["expr.compiled"] == 0
        assert compiled_for(node, db.catalog.type("Part")) is not first


# ---------------------------------------------------------------------------
# randomized mutation scripts: slots behave like the old dicts
# ---------------------------------------------------------------------------

mutation_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 4),
                  st.sampled_from(["A", "B", "C"]), values),
        st.tuples(st.just("txn-commit"), st.integers(0, 4),
                  st.sampled_from(["A", "B", "C"]), values),
        st.tuples(st.just("txn-abort"), st.integers(0, 4),
                  st.sampled_from(["A", "B", "C"]), values),
        st.tuples(st.just("delete"), st.integers(0, 4)),
        st.tuples(st.just("frozen-write"), st.integers(0, 4),
                  st.sampled_from(["A", "B", "C"]), values),
    ),
    max_size=12,
)


class TestMutationScripts:
    @settings(max_examples=40, deadline=None)
    @given(ops=mutation_ops, query=st.sampled_from(
        ["A > 0", "A = B", "B != C", "A in B"]))
    def test_script_matches_shadow_dicts(self, ops, query):
        db = fresh_db()
        txns = TransactionManager(db)
        guard = StateGuard(db)
        objects = [
            db.create_object("Part", class_name="Parts", A=i) for i in range(5)
        ]
        shadow = [{"A": i} for i in range(5)]
        alive = [True] * 5
        frozen = [False] * 5

        for op in ops:
            kind, index = op[0], op[1]
            obj = objects[index]
            if kind == "delete":
                if alive[index]:
                    obj.delete()
                    alive[index] = False
                continue
            if not alive[index]:
                continue
            name, value = op[2], op[3]
            if kind == "set" and not frozen[index]:
                obj.set_attribute(name, value)
                shadow[index][name] = value
            elif kind == "txn-commit" and not frozen[index]:
                with txns.begin() as txn:
                    txn.set(obj, name, value)
                shadow[index][name] = value
            elif kind == "txn-abort" and not frozen[index]:
                txn = txns.begin()
                txn.set(obj, name, value)
                txn.abort()  # undo restores the previous slot state
            elif kind == "frozen-write":
                if not frozen[index]:
                    guard.freeze(obj)
                    frozen[index] = True
                with pytest.raises(VersionError):
                    obj.set_attribute(name, value)  # guard reverts the write

        for obj, expect, live in zip(objects, shadow, alive):
            if live:
                assert obj.local_attributes() == expect

        fast = outcome(lambda: run_query(
            db, f"select * from Parts where {query}", compiled=True))
        slow = outcome(lambda: run_query(
            db, f"select * from Parts where {query}", compiled=False))
        if fast[0] == "value":
            assert slow[0] == "value"
            assert [o.surrogate for o in fast[1].objects] == [
                o.surrogate for o in slow[1].objects
            ]
        else:
            assert fast == slow


# ---------------------------------------------------------------------------
# executor + sweep equivalence
# ---------------------------------------------------------------------------


class TestExecutorOracle:
    @settings(max_examples=30, deadline=None)
    @given(weights=st.lists(values, min_size=0, max_size=20),
           text=st.sampled_from([
               "select * from Parts where A > 5",
               "select A, B from Parts where A != B order by A limit 4",
               "select distinct A from Parts",
               "select * from Parts where A in B order by A desc limit 3",
           ]))
    def test_compiled_equals_interpreted(self, weights, text):
        db = fresh_db()
        for i, w in enumerate(weights):
            db.create_object("Part", class_name="Parts", A=w, B=i % 3)
        fast = outcome(lambda: run_query(db, text, compiled=True))
        slow = outcome(lambda: run_query(db, text, compiled=False))
        if fast[0] == "value":
            assert slow[0] == "value"
            assert fast[1].rows == slow[1].rows or [
                r for r in fast[1].rows
            ] == [r for r in slow[1].rows]
        else:
            assert fast == slow


class TestSweepOracle:
    def _violation_keys(self, violations):
        return [(v.subject.surrogate, v.detail) for v in violations]

    @settings(max_examples=30, deadline=None)
    @given(weights=st.lists(
        st.one_of(st.integers(-5, 5), st.sampled_from(["x", None])),
        min_size=0, max_size=15,
    ))
    def test_sweep_matches_naive(self, weights):
        db = fresh_db(constraints=["A >= 0", "A <= 10"])
        for w in weights:
            obj = db.create_object("Part", class_name="Parts")
            obj._write_cell("A", w)  # raw write skips creation-time checking
        compiled = sweep_constraints(db, compiled=True)
        naive = sweep_constraints(db, compiled=False)
        assert self._violation_keys(compiled) == self._violation_keys(naive)
        for violation in compiled:
            assert violation.kind == "constraint"
            assert violation.code == "REP006"

    def test_clean_sweep_is_empty(self):
        db = fresh_db(constraints=["A >= 0"])
        for i in range(20):
            db.create_object("Part", class_name="Parts", A=i)
        assert sweep_constraints(db, compiled=True) == []
        assert sweep_constraints(db, compiled=False) == []

    def test_constraint_holds_uses_compiled_path(self):
        db = fresh_db(constraints=["A >= 0"])
        obj = db.create_object("Part", class_name="Parts", A=1)
        constraint = obj.object_type.constraints[0]
        assert constraint.holds(obj) is True
        assert constraint.naive_holds(obj) is True
        obj._write_cell("A", -1)
        assert constraint.holds(obj) is False
        assert constraint.naive_holds(obj) is False


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


class TestInterning:
    def test_parsed_identifiers_are_interned(self):
        left = parse_expression("Weight > 3")
        right = parse_expression("Weight < 9")
        assert left.left.identifier is right.left.identifier

    def test_catalog_exposes_shared_pool(self):
        db1, db2 = fresh_db(), fresh_db()
        assert db1.catalog.interning is db2.catalog.interning
        stats = db1.catalog.interning.stats()
        assert stats["interning.names"] > 0

    def test_store_keys_are_interned(self):
        db = fresh_db()
        part = db.catalog.object_type("Part")
        store = store_for(part)
        probe = parse_expression("A = 1").left.identifier
        assert any(key is probe for key in store.slot_of)
