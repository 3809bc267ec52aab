"""End-to-end runs of the benchmark at quick scale.

* A smoke run of each workload prints every metric BENCHMARK.json names,
  with its unit, and reports no wrong result.
* Two traced runs on one seed give identical counts.
* Without the engine's sources the benchmark exits non-zero and prints
  no result.

Run from the repository root::

    python3 -m pytest cadbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _is_count(name):
    """Count metrics, which must repeat exactly for a seed."""
    return (name.endswith(".calls_per_op") or name.endswith("_per_write")
            or name in ("query.parse.hit_ratio", "expr.compiled_programs",
                        "core.resolution.plans_compiled",
                        "query.rows_examined_per_row_returned",
                        "txn.locks.conflicts_per_txn",
                        "txn.abort.undo_entries_per_abort",
                        "obs.audit.records_per_op",
                        "e2e.image_bytes_per_object", "e2e.refused_ratio",
                        "e2e.error_ratio"))


def bench(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, os.path.join("cadbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--scale", "quick"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        line = result(bench(workload, 5, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        got = {name: metric["unit"] for name, metric in line["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}
        if trace == 0:
            assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_on_one_seed_give_identical_counts(workload):
    first = result(bench(workload, 9, 1))
    second = result(bench(workload, 9, 1))
    assert first["attempted"] == second["attempted"]
    counts = [name for name in first["metrics"] if _is_count(name)]
    assert len(counts) > 30
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_self_times_add_up_to_the_op_latency():
    metrics = result(bench("library_edit", 4, 1))["metrics"]
    parts = sum(m["value"] for name, m in metrics.items()
                if name.endswith(".self_us_per_op"))
    assert parts == pytest.approx(metrics["trace.mean_op_us"]["value"], rel=1e-6)


def test_library_edit_write_time_sits_in_view_and_index_upkeep():
    metrics = result(bench("library_edit", 4, 1))["metrics"]
    upkeep = (metrics["query.views.refresh.self_us_per_op"]["value"]
              + metrics["query.indexes.maintain.self_us_per_op"]["value"])
    assert metrics["query.views.cells_refreshed_per_write"]["value"] > 1
    assert upkeep > metrics["core.set_attribute.self_us_per_op"]["value"]
    assert upkeep > metrics["engine.events.emit.self_us_per_op"]["value"]


def test_design_session_never_enters_the_query_layer():
    metrics = result(bench("design_session", 4, 1))["metrics"]
    for name, metric in metrics.items():
        if name.startswith("query.") and name.endswith(".calls_per_op"):
            assert metric["value"] == 0, name
    assert metrics["txn.locks.acquire.calls_per_op"]["value"] > 0
    assert metrics["engine.persistence.write.calls_per_op"]["value"] > 0


def test_without_the_engine_it_exits_nonzero_and_prints_no_result():
    # A directory holding only BENCHMARK.json and the benchmark's files,
    # kept inside the checkout's ignored build directory.
    bare = os.path.join(ROOT, ".bench_build", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "cadbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("library_edit", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
