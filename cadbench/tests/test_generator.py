"""Generator tests: seeded scripts are byte-identical for a seed, differ
across seeds, and have the shape workloads.json and BENCHMARK.json declare.

Run from the repository root::

    python3 -m pytest cadbench/tests -q
"""

import json
import os
import statistics
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("library_edit", "catalog_query", "design_session")


def load(name):
    with open(name) as f:
        return json.load(f)


DECLARED = load(os.path.join(BENCH, "workloads.json"))["workloads"]
BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))


def script(workload, seed, n=3000, scale="quick"):
    spec = gen.SPECS[workload](seed, scale)
    return gen.script_bytes(gen.op_stream(workload, seed, spec), n)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = script(workload, 7)
    assert first == script(workload, 7)
    assert first != script(workload, 8)
    spec = json.dumps(gen.SPECS[workload](7, "quick"), sort_keys=True)
    assert spec == json.dumps(gen.SPECS[workload](7, "quick"), sort_keys=True)


def prefix(workload, seed=3, n=40_000):
    spec = gen.SPECS[workload](seed, "full")
    stream = gen.op_stream(workload, seed, spec)
    return spec, [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload,mix", [
    ("library_edit", gen.LIBRARY_MIX), ("catalog_query", gen.CATALOG_MIX)])
def test_op_mix_matches_declaration(workload, mix):
    assert DECLARED[workload]["mix"] == mix
    _, ops = prefix(workload)
    measured = gen.shares(ops)
    assert set(measured) == set(mix)
    for kind, share in mix.items():
        assert measured[kind] == pytest.approx(share, abs=0.01), kind


def test_design_task_mix_matches_declaration():
    declared = DECLARED["design_session"]
    assert declared["task_mix"] == gen.DESIGN_TASKS
    _, ops = prefix("design_session")
    tasks = [op[0] for op in ops if op[0] in ("txn_begin", "version", "merge", "expand")]
    share = {kind: tasks.count(kind) / len(tasks) for kind in set(tasks)}
    assert share["txn_begin"] == pytest.approx(gen.DESIGN_TASKS["txn"], abs=0.01)
    assert share["expand"] == pytest.approx(gen.DESIGN_TASKS["expand"], abs=0.01)
    versions = share["version"] + share["merge"]
    assert versions == pytest.approx(gen.DESIGN_TASKS["version"], abs=0.01)
    assert share["merge"] / versions == pytest.approx(gen.DESIGN_MERGE_SHARE, abs=0.02)
    checkpoints = sum(op[0] == "checkpoint" for op in ops)
    steps = len(ops) - checkpoints
    assert checkpoints == steps // declared["checkpoint_every_ops"]
    begins = [op for op in ops if op[0] == "txn_begin"]
    exclusive = sum(op[3] == "X" for op in begins) / len(begins)
    assert exclusive == pytest.approx(gen.DESIGN_X_SHARE, abs=0.02)
    ends = [op for op in ops if op[0] == "txn_end"]
    aborted = sum(bool(op[3]) for op in ends) / len(ends)
    assert aborted == pytest.approx(gen.DESIGN_ABORT_SHARE, abs=0.02)


def test_library_fanout_is_heavy_tailed_as_declared():
    declared = DECLARED["library_edit"]["sizes"]
    spec, _ = prefix("library_edit", n=1)
    fanouts = spec["fanouts"]
    assert len(fanouts) == declared["interfaces"]
    assert len(spec["impl_iface"]) == declared["implementations"]
    stated = declared["fanout"]
    assert statistics.mean(fanouts) == stated["mean"]
    assert statistics.median(fanouts) == stated["median"]
    assert min(fanouts) == stated["min"] and max(fanouts) == stated["max"]
    ordered = sorted(fanouts)
    assert ordered[int(0.9 * len(ordered))] == stated["p90"]
    assert ordered[int(0.99 * len(ordered))] == stated["p99"]
    weights = gen.Zipf(len(fanouts)).weights
    weighted = sum(w * f for w, f in zip(weights, fanouts))
    assert weighted == pytest.approx(stated["zipf_weighted_mean_per_write"], abs=0.05)
    # The shape is fixed: another seed draws values, not fan-outs.
    assert gen.library_spec(99)["fanouts"] == fanouts


def test_catalog_fanout_and_texts_as_declared():
    declared = DECLARED["catalog_query"]["sizes"]
    spec, ops = prefix("catalog_query")
    counts = {}
    for iface in spec["impl_iface"]:
        counts[iface] = counts.get(iface, 0) + 1
    assert set(counts.values()) == {declared["fanout"]["value"]}
    assert len(counts) == declared["interfaces"]
    texts = {name: len(set(pool)) for name, pool in spec["texts"].items()}
    assert texts == declared["texts_per_template"]
    assert sum(texts.values()) == declared["distinct_query_texts"]
    assert declared["distinct_query_texts"] > gen.PARSE_LRU_SIZE
    used = {op[1] for op in ops if op[0] == "query"}
    assert len(used) > gen.PARSE_LRU_SIZE
    template_of = {text: name for name, pool in spec["texts"].items() for text in pool}
    queries = [template_of[op[1]] for op in ops if op[0] == "query"]
    for name, (_, share, _) in gen.CATALOG_TEMPLATES.items():
        assert DECLARED["catalog_query"]["query_template_shares"][name] == share
        assert queries.count(name) / len(queries) == pytest.approx(share, abs=0.01)


def test_library_texts_fit_the_parse_lru():
    declared = DECLARED["library_edit"]["sizes"]
    _, ops = prefix("library_edit")
    used = {op[1] for op in ops if op[0] == "query"}
    assert used <= set(gen.LIBRARY_QUERIES)
    assert len(gen.LIBRARY_QUERIES) == declared["distinct_query_texts"]
    assert declared["distinct_query_texts"] <= gen.PARSE_LRU_SIZE


def test_design_sizes_as_declared():
    declared = DECLARED["design_session"]["sizes"]
    spec = gen.design_spec(3)
    assert len(spec["trees"]) == declared["composite_trees"]
    assert len(spec["nodes"]) == declared["tree"]["implementations"]
    assert spec["size"]["depth"] == declared["tree"]["depth"]
    assert len(spec["graphs"]) == declared["version_graphs"]
    assert spec["size"]["tick_every"] == DECLARED["design_session"][
        "flight_recorder_tick_every_ops"]


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == (
        run.per_layer_metrics())
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for name, targets in load(os.path.join(BENCH, "workloads.json"))[
            "per_layer_targets"].items():
        assert name in run.spans.SPAN_NAMES
        for _, workload in targets:
            assert workload in WORKLOADS
    for workload in WORKLOADS:
        assert DECLARED[workload]["rate_items_per_s"] == run.RATES["full"][workload]
