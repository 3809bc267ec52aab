"""End-to-end CAD-session benchmark.

Usage (from the root of a checkout)::

    python3 cadbench/run.py --workload library_edit --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for sizes, mixes and why each exists):
``library_edit``, ``catalog_query``, ``design_session``.

A run executes ``--seconds`` times the workload's nominal rate of op
stream items (``RATES``), so every run on a seed does the same work and
takes about ``--seconds`` of measured time on the reference machine.
Times are scaled to that machine by a calibration kernel timed throughout
the run (``worker.Speed``): the benchmark shares a machine whose speed
drifts, and the scaling keeps that drift out of the figures.

``--trace 0`` sets up the workload three times, each in a fresh
interpreter, reports the median set-up time, and runs the op stream in
the last of them: the end-to-end metrics.  ``--trace 1`` runs the first
half of the same stream twice, plain and with the per-layer wrappers of
``spans.py`` installed: the per-layer metrics, including the tracing
overhead.  Every
process is a fresh interpreter because the engine's parse LRU,
compiled-program cache, intern pools and resolution counters are
process-global.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong result
(an oracle mismatch or an unexpected exception) makes ``correct`` false
and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("library_edit", "catalog_query", "design_session")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

#: Op-stream items per second of a run on the reference machine (see
#: worker.Speed), per scale.  A run executes ``seconds * rate`` items,
#: rounded up to whole rounds, so every run does the same work.
RATES = {
    "full": {"library_edit": 900, "catalog_query": 140, "design_session": 160},
    "quick": {"library_edit": 4000, "catalog_query": 2500, "design_session": 1500},
}


def budget(workload: str, scale: str, seconds: float) -> int:
    """Items of the op stream one run executes.  Rounds are 100 items, or
    one checkpoint period (steps plus the checkpoint) for design_session."""
    if workload == "design_session":
        size = gen.SCALES[scale][workload]["checkpoint_every"] + 1
    else:
        size = 100
    rounds = max(1, math.ceil(seconds * RATES[scale][workload] / size))
    return rounds * size


#: Seconds a child process may take before it is killed.
CHILD_TIMEOUT = 170

#: Gated metrics: each exists, non-zero, on every workload.  Latency
#: classes that some workload lacks, or samples too thinly for a stable
#: median, are reported as ``CLASS_METRICS`` instead.
END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p95_us", "us"),
    ("write_p50_us", "us"), ("read_p50_us", "us"), ("rss_peak_mb", "MB"),
]

#: Per-class latencies and ratios, printed with their sample counts and
#: reported as per-layer metrics (0 where a workload has no such op).
#: ``op_p50_us`` falls between op classes, where it swings with noise.
CLASS_METRICS = [
    ("op_p50_us", "us"), ("op_p99_us", "us"), ("write_p95_us", "us"), ("write_p99_us", "us"),
    ("read_p95_us", "us"), ("read_p99_us", "us"),
    ("query_p50_ms", "ms"), ("query_p95_ms", "ms"),
    ("txn_p50_ms", "ms"), ("txn_p95_ms", "ms"),
    ("checkpoint_s", "s"), ("image_bytes_per_object", "bytes"),
    ("refused_ratio", "ratio"), ("error_ratio", "ratio"),
]

RATIOS = [
    ("query.views.cells_refreshed_per_write", "count"),
    ("query.indexes.entries_refreshed_per_write", "count"),
    ("query.parse.hit_ratio", "ratio"),
    ("expr.compiled_programs", "count"),
    ("query.rows_examined_per_row_returned", "ratio"),
    ("core.resolution.plans_compiled", "count"),
    ("txn.locks.conflicts_per_txn", "ratio"),
    ("txn.abort.undo_entries_per_abort", "count"),
    ("obs.audit.records_per_op", "count"),
    ("runtime.gc.collections_per_kop", "count"),
    ("engine.persistence.load.setup_ms", "ms"),
]


def per_layer_metrics() -> List[tuple]:
    """Every per-layer metric name with its unit, in report order."""
    out: List[tuple] = []
    for name in spans.SPAN_NAMES:
        if name in spans.SETUP_SPANS:
            continue
        out.append((f"{name}.calls_per_op", "count"))
        if name in spans.TIMED_SPANS:
            out.append((f"{name}.self_us_per_op", "us"))
    out += [("bench.self_us_per_op", "us"), ("trace.mean_op_us", "us"),
            ("trace.overhead_ratio", "ratio"), ("bench.speed_factor", "ratio")]
    out += RATIOS
    out += [(f"e2e.{name}", unit) for name, unit in CLASS_METRICS]
    return out


class ChildError(RuntimeError):
    pass


def child(root: str, rundir: str, mode: str, args: argparse.Namespace,
          extra: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run one worker in a fresh interpreter; its last stdout line is JSON."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--rundir", rundir] + (extra or [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # String hashing decides set iteration order; pin it so counts repeat.
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise ChildError(f"worker {mode} exited with {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(lines: List[tuple]) -> None:
    for name, value, unit, note in lines:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")


def run_plain(root: str, rundir: str, args: argparse.Namespace):
    setups = [child(root, rundir, "setup", args)["setup_s"] for _ in range(SETUPS - 1)]
    result = child(root, rundir, "measure", args, ["--ops", str(args.ops)])
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    samples = result["samples"]
    metrics: Dict[str, Dict[str, Any]] = {}
    lines = []
    for name, unit in END_TO_END + CLASS_METRICS:
        if name not in result:
            continue
        cls = name.split("_")[0]
        note = f"n={samples[cls]}" if cls in samples else ""
        if name == "setup_s":
            note = f"median of {SETUPS}"
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": result[name], "unit": unit}
        else:
            note = (note + " (class metric, not gated)").strip()
        lines.append((name, result[name], unit, note))
    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops in "
          f"{result['measured_s']:.2f} s measured ({result['oracle_s']:.2f} s of "
          f"oracle checks excluded); times scaled by speed factor "
          f"{result['speed_factor']:.3f} (probes "
          f"{'/'.join(f'{t * 1e3:.3f}' for t in result['speed_probes'])} ms)")
    report(lines)
    return result, metrics


def run_traced(root: str, rundir: str, args: argparse.Namespace):
    ops = args.ops
    extra = ["--ops", str(ops)]
    plain = child(root, rundir, "measure", args, extra)
    traced = child(root, rundir, "measure", args, extra + ["--trace", "1"])
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
    for name, _ in CLASS_METRICS:
        layers[f"e2e.{name}"] = plain.get(name, 0.0)
    metrics = {}
    lines = []
    for name, unit in per_layer_metrics():
        value = float(layers.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        if value:
            lines.append((name, value, unit, ""))
    print(f"{args.workload} seed={args.seed}: {ops} op-stream items, "
          f"samples {plain['samples']} (zero-valued metrics omitted below)")
    report(lines)
    traced["failed"] += plain["failed"]
    traced["failures"] = plain["failures"] + traced["failures"]
    return traced, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=sorted(RATES),
                        help="input size: full (the benchmark) or quick (tests)")
    args = parser.parse_args(argv)
    # A traced run measures the stream twice; half the length each keeps
    # it within the time of a plain run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    args.ops = budget(args.workload, args.scale, seconds)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="cadbench-", dir=build)
    try:
        if args.workload == "design_session":
            child(root, rundir, "image", args)
        if args.trace:
            result, metrics = run_traced(root, rundir, args)
        else:
            result, metrics = run_plain(root, rundir, args)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for failure in result["failures"]:
        print(f"  wrong result: {failure}")
    correct = result["failed"] == 0
    print(f"  error_ratio {result['failed']}/{result['attempted']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
