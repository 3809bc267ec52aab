"""E15 — indexed query engine: value indexes vs. full scans.

A parts library at 10k/50k objects, three access patterns:

* selective equality (``Category`` holds ~1% of the extent per value),
  through ``run_query`` and through ``Database.select`` with one text;
* range + top-k (``Serial >= high-water order by Serial desc limit 10``);
* the same queries forced through the full scan (``indexes.auto = False``)
  as the baseline the planner must beat;
* the maintenance tax: one attribute update with value indexes attached.

The acceptance shape: at 50k the indexed equality beats the scan by ≥10×
and the indexed range+top-k by ≥5×; updates stay O(indexes touched).
"""

import pytest

from repro.core.domains import ANY
from repro.engine import Database

SIZES = [10_000, 50_000]

_cache = {}


def parts_db(n):
    """A cached n-part library with warmed value indexes."""
    if n not in _cache:
        db = Database(f"e15-{n}")
        db.catalog.define_object_type(
            "Part",
            attributes={"Serial": ANY, "Weight": ANY, "Category": ANY},
        )
        db.create_class("Parts", "Part")
        categories = n // 100  # ~1% of the extent per category value
        for i in range(n):
            db.create_object(
                "Part",
                class_name="Parts",
                Serial=i,
                Weight=i % 97,
                Category=f"cat_{i % categories}",
            )
        # Warm the Category and Serial indexes so the benchmark measures
        # steady-state lookups, not the one-off build.
        db.query("select * from Parts where Category = 'cat_0'")
        db.query("select * from Parts where Serial >= 0 and Serial < 1")
        db.query("select * from Parts where Weight = -1")
        _cache[n] = db
    return _cache[n]


def run_with(db, text, auto):
    manager = db.indexes
    previous = manager.auto
    manager.auto = auto
    try:
        return db.query(text)
    finally:
        manager.auto = previous


class TestSelectiveEquality:
    @pytest.mark.parametrize("n", SIZES)
    def test_eq_indexed(self, benchmark, n):
        db = parts_db(n)
        result = benchmark(
            run_with, db, "select * from Parts where Category = 'cat_3'", True
        )
        assert len(result) == 100
        assert result.plan.access_path == "index-eq"

    @pytest.mark.parametrize("n", SIZES)
    def test_eq_full_scan(self, benchmark, n):
        db = parts_db(n)
        result = benchmark(
            run_with, db, "select * from Parts where Category = 'cat_3'", False
        )
        assert len(result) == 100
        assert result.plan.access_path == "full-scan"


    @pytest.mark.parametrize("n", SIZES)
    def test_select_eq_repeat(self, benchmark, n):
        """``Database.select`` with one where text, repeated: the text
        parses once and its program is reused (the executor's where stage)."""
        db = parts_db(n)
        result = benchmark(db.select, "Parts", "Category = 'cat_3'")
        assert len(result) == 100


class TestRangeTopK:
    @pytest.mark.parametrize("n", SIZES)
    def test_range_topk_indexed(self, benchmark, n):
        db = parts_db(n)
        text = (
            f"select Serial from Parts where Serial >= {n - n // 100} "
            "order by Serial desc limit 10"
        )
        result = benchmark(run_with, db, text, True)
        assert result.scalars() == list(range(n - 1, n - 11, -1))
        assert result.plan.access_path == "index-range"
        assert result.plan.order == "top-10 heap desc"

    @pytest.mark.parametrize("n", SIZES)
    def test_range_topk_full_scan(self, benchmark, n):
        db = parts_db(n)
        text = (
            f"select Serial from Parts where Serial >= {n - n // 100} "
            "order by Serial desc limit 10"
        )
        result = benchmark(run_with, db, text, False)
        assert result.scalars() == list(range(n - 1, n - 11, -1))
        assert result.plan.access_path == "full-scan"


class TestMaintenance:
    @pytest.mark.parametrize("n", SIZES)
    def test_update_with_indexes(self, benchmark, n):
        """The write-path tax: each update refreshes the attribute's index."""
        db = parts_db(n)
        obj = db.class_("Parts").members()[0]
        counter = iter(range(10**9))

        def run():
            obj.set_attribute("Weight", next(counter))

        benchmark(run)
        obj.set_attribute("Weight", 0)


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    sizes = [2_000] if suite.quick else SIZES
    for n in sizes:

        @suite.case(f"eq_indexed[{n}]")
        def eq_indexed_case(n=n):
            db = parts_db(n)
            query = "select * from Parts where Category = 'cat_3'"
            return lambda: run_with(db, query, True)

        @suite.case(f"eq_full_scan[{n}]")
        def eq_scan_case(n=n):
            db = parts_db(n)
            query = "select * from Parts where Category = 'cat_3'"
            return lambda: run_with(db, query, False)

        @suite.case(f"select_eq_repeat[{n}]")
        def select_eq_repeat_case(n=n):
            db = parts_db(n)
            return lambda: db.select("Parts", "Category = 'cat_3'")

        @suite.case(f"range_topk_indexed[{n}]")
        def range_indexed_case(n=n):
            db = parts_db(n)
            query = (
                f"select Serial from Parts where Serial >= {n - n // 100} "
                "order by Serial desc limit 10"
            )
            return lambda: run_with(db, query, True)

        @suite.case(f"range_topk_full_scan[{n}]")
        def range_scan_case(n=n):
            db = parts_db(n)
            query = (
                f"select Serial from Parts where Serial >= {n - n // 100} "
                "order by Serial desc limit 10"
            )
            return lambda: run_with(db, query, False)

        @suite.case(f"update_with_indexes[{n}]")
        def update_case(n=n):
            db = parts_db(n)
            obj = db.class_("Parts").members()[0]
            counter = iter(range(10**9))
            return lambda: obj.set_attribute("Weight", next(counter))
