"""Seeded input generators for the CAD-session benchmark.

Pure data: nothing here imports the engine.  Each workload has a *spec*
(the database to build, as plain numbers) and an *op stream* (an endless,
deterministic iterator of operation tuples).  The same seed always yields
the same spec and the same stream; ``script_bytes`` serialises a prefix of
a stream so the tests can compare scripts byte for byte.

Shape versus draw: the parts of a workload that decide its cost profile —
the fan-out multiset, which Zipf rank gets which fan-out, the share of
each query template, where in its range each text rank's constant lies —
are fixed for the workload.  The seed
draws everything else: attribute values, query constants, which objects
each operation touches and the order of operations.  Without that split
one seed could put a fan-out-500 interface on the hottest Zipf rank and
another a fan-out-2 one, and the benchmark would measure the draw rather
than the engine.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from typing import Any, Dict, Iterator, List, Sequence, Tuple

Op = Tuple[Any, ...]

#: The parse LRU of ``repro.query.parser`` holds this many texts.
PARSE_LRU_SIZE = 256

#: Fixed seed for the workload *shape* (see the module docstring).
SHAPE_SEED = 0x5EED

SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "library_edit": {"interfaces": 400, "implementations": 20_000,
                         "fanout_cap": 500},
        "catalog_query": {"interfaces": 600, "fanout": 50},
        "design_session": {"trees": 30, "depth": 4, "branching": 3,
                           "graphs": 12, "designers": 4,
                           "checkpoint_every": 600, "tick_every": 50},
    },
    "quick": {
        "library_edit": {"interfaces": 40, "implementations": 1_000,
                         "fanout_cap": 100},
        "catalog_query": {"interfaces": 60, "fanout": 20},
        "design_session": {"trees": 6, "depth": 2, "branching": 3,
                           "graphs": 4, "designers": 4,
                           "checkpoint_every": 150, "tick_every": 25},
    },
}

#: Declared op mixes (shares of generated ops).  The generator test checks
#: the measured shares against these; workloads.json repeats them.
LIBRARY_MIX = {"if_write": 0.60, "impl_write": 0.14, "ack": 0.06,
               "rebind": 0.03, "inspect": 0.16, "query": 0.01}
CATALOG_MIX = {"query": 0.55, "select": 0.15, "inspect_row": 0.20,
               "tb_write": 0.10}
#: Per designer *task* (a transaction spans three steps: lock, work, end).
DESIGN_TASKS = {"txn": 0.55, "version": 0.20, "expand": 0.25}
DESIGN_MERGE_SHARE = 0.10       # of version tasks, when a merge is possible
DESIGN_ABORT_SHARE = 0.10       # of transactions
DESIGN_X_SHARE = 0.30           # of transactions lock their tree exclusively


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


class Systematic:
    """Draws indexes with the given weights, in blocks of ``block`` draws
    in which each index appears floor or ceil of ``weight * block`` times
    (systematic sampling with a random offset), shuffled by the seed.

    Independent draws would let one seed hit the costliest Zipf rank or
    op kind noticeably more often than another; within every block the
    shares here are as declared, and only the order and the tail ranks
    that get their one draw vary with the seed.
    """

    def __init__(self, weights: Sequence[float], block: int = 100):
        total = sum(weights)
        self.weights = [w / total for w in weights]
        self.cumulative = list(itertools.accumulate(self.weights))
        self.block = block
        self.queue: List[int] = []

    def draw(self, rng: random.Random) -> int:
        if not self.queue:
            offset = rng.random()
            previous = 0
            for index, cumulative in enumerate(self.cumulative):
                upto = int(cumulative * self.block + offset)
                self.queue.extend([index] * (upto - previous))
                previous = upto
            rng.shuffle(self.queue)
        return self.queue.pop()


class Zipf(Systematic):
    """Rank sampler with weight 1/r**s over ``n`` ranks (rank 0 hottest)."""

    def __init__(self, n: int, s: float = 1.0):
        super().__init__([1.0 / (rank + 1) ** s for rank in range(n)],
                         block=max(100, n))


def _picker(rng: random.Random, mix: Dict[str, float]):
    kinds = list(mix)
    sampler = Systematic([mix[kind] for kind in kinds])

    def pick() -> str:
        return kinds[sampler.draw(rng)]

    return pick


def heavy_tailed_fanouts(n: int, total: int, cap: int, alpha: float = 1.5) -> List[int]:
    """``n`` fan-outs from Pareto quantiles, scaled so they sum to about
    ``total`` and capped at ``cap`` (at least 1 each).  Seed-independent."""
    raw = [1.0 / (1.0 - (i + 0.5) / n) ** (1.0 / alpha) for i in range(n)]

    def scaled(factor: float) -> List[int]:
        return [max(1, min(cap, round(value * factor))) for value in raw]

    low, high = 0.01, float(total)
    for _ in range(60):
        mid = (low + high) / 2
        if sum(scaled(mid)) < total:
            low = mid
        else:
            high = mid
    return scaled(high)


def spread_pool(rng: random.Random, values: Sequence[int], size: int) -> List[int]:
    """``size`` distinct constants, one from each of ``size`` equal cells of
    ``values``.  Which cell a Zipf rank gets is fixed (the shape); the seed
    picks the constant inside the cell.  A range query's cost follows its
    constant, so this keeps the cost of each rank the same for every seed."""
    step = len(values) / size
    cells = list(range(size))
    random.Random(SHAPE_SEED).shuffle(cells)
    out = []
    for cell in cells:
        low, high = int(cell * step), int((cell + 1) * step)
        out.append(values[low + rng.randrange(high - low)])
    return out


def script_bytes(ops: Iterator[Op], n: int) -> bytes:
    """The first ``n`` ops of a stream, serialised (the byte-identity check)."""
    return json.dumps(list(itertools.islice(ops, n)), separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# library_edit
# ---------------------------------------------------------------------------

LIBRARY_QUERIES = (
    # Length equality and ranges: the value index on inherited Length.
    [f"select * from Impls where Length = {k}" for k in (12, 27, 41, 58, 73, 96)]
    + [f"select * from Impls where Length > {k} and Length < {k + 4}"
       for k in (20, 45, 70, 85)]
    # Non-sargable over inherited members: the materialised view.
    + [f"select * from Impls where Length + Width > {k}" for k in (120, 130, 135, 140)]
    # Top-k over an index range.
    + [f"select * from Impls where Length > {k} order by TimeBehavior limit 10"
       for k in (90, 95)]
)


def library_spec(seed: int, scale: str = "full") -> Dict[str, Any]:
    """Interfaces with heavy-tailed fan-out and the implementations bound
    to them.  Zipf rank ``r`` writes to interface ``r`` (creation order)."""
    size = SCALES[scale]["library_edit"]
    n_if = size["interfaces"]
    fanouts = heavy_tailed_fanouts(n_if, size["implementations"], size["fanout_cap"])
    order = list(range(n_if))
    random.Random(SHAPE_SEED).shuffle(order)
    fanout_of_rank = [fanouts[i] for i in order]
    rng = random.Random(seed)
    interfaces = [
        {"Length": rng.randrange(10, 100), "Width": rng.randrange(5, 50),
         "pins": rng.randrange(2, 5)}
        for _ in range(n_if)
    ]
    impl_iface = [i for i in range(n_if) for _ in range(fanout_of_rank[i])]
    rng.shuffle(impl_iface)
    time_behavior = [rng.randrange(1, 200) for _ in impl_iface]
    return {"interfaces": interfaces, "impl_iface": impl_iface,
            "time_behavior": time_behavior, "fanouts": fanout_of_rank}


def library_ops(seed: int, spec: Dict[str, Any]) -> Iterator[Op]:
    rng = random.Random(seed * 1_000_003 + 1)
    n_if = len(spec["interfaces"])
    impl_iface = list(spec["impl_iface"])
    members: List[List[int]] = [[] for _ in range(n_if)]
    for impl, iface in enumerate(impl_iface):
        members[iface].append(impl)
    zipf_if = Zipf(n_if)
    zipf_query = Zipf(len(LIBRARY_QUERIES))
    query_order = list(range(len(LIBRARY_QUERIES)))
    random.Random(SHAPE_SEED).shuffle(query_order)
    pick = _picker(rng, LIBRARY_MIX)
    n_impl = len(impl_iface)
    while True:
        kind = pick()
        if kind == "if_write":
            iface = zipf_if.draw(rng)
            if rng.random() < 0.5:
                yield ("if_write", iface, "Length", rng.randrange(10, 100))
            else:
                yield ("if_write", iface, "Width", rng.randrange(5, 50))
        elif kind == "impl_write":
            yield ("impl_write", rng.randrange(n_impl), rng.randrange(1, 200))
        elif kind == "ack":
            # Acknowledge where records pile up: an inheritor of a hot
            # interface.
            iface = zipf_if.draw(rng)
            while not members[iface]:
                iface = zipf_if.draw(rng)
            yield ("ack", rng.choice(members[iface]))
        elif kind == "rebind":
            impl = rng.randrange(n_impl)
            target = rng.randrange(n_if)
            if target == impl_iface[impl]:
                target = (target + 1) % n_if
            members[impl_iface[impl]].remove(impl)
            members[target].append(impl)
            impl_iface[impl] = target
            yield ("rebind", impl, target)
        elif kind == "inspect":
            yield ("inspect", rng.randrange(n_impl))
        else:
            yield ("query", LIBRARY_QUERIES[query_order[zipf_query.draw(rng)]])


# ---------------------------------------------------------------------------
# catalog_query
# ---------------------------------------------------------------------------

#: Query templates, by the access path they are written to take, with
#: the share of ``query`` ops each gets and the size of its text pool.
#: Shares are fixed; within a pool the text is Zipf-drawn, and the
#: constants in the pool are the seed's.
CATALOG_TEMPLATES = {
    "index_eq_stored": ("select * from Impls where TimeBehavior = {a}", 0.35, 850),
    "index_eq_inherited": ("select * from Impls where Length = {a}", 0.25, 400),
    "index_range_stored": ("select * from Impls where TimeBehavior > {a} "
                           "and TimeBehavior < {b}", 0.15, 400),
    "top_k": ("select * from Impls where TimeBehavior > {a} "
              "order by TimeBehavior limit 10", 0.15, 200),
    "view_scan": ("select * from Impls where Length + Width > {a}", 0.10, 150),
}
CATALOG_TB_RANGE = (1, 2001)
CATALOG_LENGTH_RANGE = (10, 510)
CATALOG_WIDTH_RANGE = (5, 55)
#: Constant ranges per template (the pool is a seeded sample of these).
_CATALOG_CONSTANTS = {
    "index_eq_stored": range(*CATALOG_TB_RANGE),
    "index_eq_inherited": range(*CATALOG_LENGTH_RANGE),
    "index_range_stored": range(1, 1990),
    "top_k": range(1600, 1960),
    "view_scan": range(400, 560),
}


def catalog_spec(seed: int, scale: str = "full") -> Dict[str, Any]:
    size = SCALES[scale]["catalog_query"]
    rng = random.Random(seed)
    n_if = size["interfaces"]
    interfaces = [
        {"Length": rng.randrange(*CATALOG_LENGTH_RANGE),
         "Width": rng.randrange(*CATALOG_WIDTH_RANGE), "pins": rng.randrange(2, 5)}
        for _ in range(n_if)
    ]
    impl_iface = [i for i in range(n_if) for _ in range(size["fanout"])]
    rng.shuffle(impl_iface)
    time_behavior = [rng.randrange(*CATALOG_TB_RANGE) for _ in impl_iface]
    texts = {
        name: [template.format(a=a, b=a + 8)
               for a in spread_pool(rng, _CATALOG_CONSTANTS[name], pool)]
        for name, (template, _, pool) in CATALOG_TEMPLATES.items()
    }
    return {"interfaces": interfaces, "impl_iface": impl_iface,
            "time_behavior": time_behavior, "texts": texts}


def catalog_ops(seed: int, spec: Dict[str, Any]) -> Iterator[Op]:
    rng = random.Random(seed * 1_000_003 + 2)
    texts = spec["texts"]
    zipfs = {name: Zipf(len(pool)) for name, pool in texts.items()}
    template = _picker(rng, {name: share for name, (_, share, _) in
                             CATALOG_TEMPLATES.items()})
    n_impl = len(spec["impl_iface"])
    lo, hi = CATALOG_TB_RANGE
    pick = _picker(rng, CATALOG_MIX)
    while True:
        kind = pick()
        if kind == "query":
            name = template()
            yield ("query", texts[name][zipfs[name].draw(rng)])
        elif kind == "select":
            if rng.random() < 0.5:
                yield ("select", f"TimeBehavior = {rng.randrange(lo, hi)}")
            else:
                yield ("select", f"Length = {rng.randrange(*CATALOG_LENGTH_RANGE)}")
        elif kind == "inspect_row":
            yield ("inspect_row", rng.randrange(1 << 30))
        else:
            yield ("tb_write", rng.randrange(n_impl), rng.randrange(lo, hi))


# ---------------------------------------------------------------------------
# design_session
# ---------------------------------------------------------------------------


def tree_nodes(depth: int, branching: int) -> List[Tuple[int, ...]]:
    """Node paths of one composite tree, root ``()`` first (preorder)."""
    nodes: List[Tuple[int, ...]] = []

    def visit(path: Tuple[int, ...]) -> None:
        nodes.append(path)
        if len(path) < depth:
            for k in range(branching):
                visit(path + (k,))

    visit(())
    return nodes


def design_spec(seed: int, scale: str = "full") -> Dict[str, Any]:
    size = SCALES[scale]["design_session"]
    rng = random.Random(seed)
    nodes = tree_nodes(size["depth"], size["branching"])
    trees = [
        {"nodes": [
            {"Length": rng.randrange(10, 100), "Width": rng.randrange(5, 50),
             "TimeBehavior": rng.randrange(1, 200), "pins": rng.randrange(2, 4)}
            for _ in nodes]}
        for _ in range(size["trees"])
    ]
    graphs = [
        {"Length": rng.randrange(10, 100), "Width": rng.randrange(5, 50),
         "TimeBehavior": rng.randrange(1, 200)}
        for _ in range(size["graphs"])
    ]
    return {"trees": trees, "graphs": graphs, "size": dict(size),
            "nodes": [list(path) for path in nodes]}


def design_ops(seed: int, spec: Dict[str, Any]) -> Iterator[Op]:
    """Designer steps, round-robin over the designers.

    A transaction task takes three steps of its designer (``txn_begin``
    locks the expansion, ``txn_work`` makes its get/set calls,
    ``txn_end`` commits or aborts); version and expand tasks take one.
    Every ``checkpoint_every`` steps a ``checkpoint`` step is inserted.
    Object addresses are ``(tree, path)`` with ``path`` a child-index
    tuple from the tree's root implementation; ``txn_work`` targets the
    root implementation and its direct SubGates slots.
    """
    size = spec["size"]
    n_trees = size["trees"]
    designers = size["designers"]
    branching = size["branching"]
    rng = random.Random(seed * 1_000_003 + 3)
    zipf_tree = Zipf(n_trees)
    zipf_graph = Zipf(len(spec["graphs"]))
    # Version-graph topology as the generator knows it: parents per version.
    parents: List[List[int]] = [[-1] for _ in spec["graphs"]]
    pending: List[List[Op]] = [[] for _ in range(designers)]
    value = itertools.count(1000)
    pick = _picker(rng, DESIGN_TASKS)

    def new_task(designer: int) -> List[Op]:
        kind = pick()
        if kind == "txn":
            tree = zipf_tree.draw(rng)
            exclusive = rng.random() < DESIGN_X_SHARE
            calls: List[Op] = []
            for _ in range(rng.randrange(3, 9)):
                slot = rng.randrange(branching)
                if exclusive and rng.random() < 0.5:
                    if rng.random() < 0.5:
                        calls.append(("set", (), "TimeBehavior", next(value)))
                    else:
                        calls.append(("set", (slot,), "GateLocation",
                                      {"X": next(value), "Y": slot}))
                elif rng.random() < 0.5:
                    calls.append(("get", (slot,), "Length"))
                else:
                    calls.append(("get", (), "TimeBehavior"))
            abort = exclusive and rng.random() < DESIGN_ABORT_SHARE / DESIGN_X_SHARE
            return [("txn_begin", designer, tree, "X" if exclusive else "S"),
                    ("txn_work", designer, tree, calls),
                    ("txn_end", designer, tree, abort)]
        if kind == "version":
            graph = zipf_graph.draw(rng)
            versions = parents[graph]
            if rng.random() < DESIGN_MERGE_SHARE:
                children: Dict[int, List[int]] = {}
                for child, parent in enumerate(versions):
                    children.setdefault(parent, []).append(child)
                bases = [b for b, kids in children.items() if b >= 0 and len(kids) >= 2]
                if bases:
                    base = rng.choice(bases)
                    left, right = rng.sample(children[base], 2)
                    versions.append(left)
                    return [("merge", designer, graph, base, left, right)]
            # Mostly extend the newest version; sometimes branch an
            # alternative off an older one.
            if rng.random() < 0.7:
                base = len(versions) - 1
            else:
                base = rng.randrange(len(versions))
            versions.append(base)
            return [("version", designer, graph, base, next(value))]
        return [("expand", designer, zipf_tree.draw(rng))]

    step = 0
    for designer in itertools.cycle(range(designers)):
        if not pending[designer]:
            pending[designer] = new_task(designer)
        yield pending[designer].pop(0)
        step += 1
        if step % size["checkpoint_every"] == 0:
            yield ("checkpoint",)


SPECS = {"library_edit": library_spec, "catalog_query": catalog_spec,
         "design_session": design_spec}
STREAMS = {"library_edit": library_ops, "catalog_query": catalog_ops,
           "design_session": design_ops}


def op_stream(workload: str, seed: int, spec: Dict[str, Any]) -> Iterator[Op]:
    return STREAMS[workload](seed, spec)


def shares(ops: Sequence[Op]) -> Dict[str, float]:
    """Measured share of each op kind in a generated prefix."""
    counts: Dict[str, int] = {}
    for op in ops:
        counts[op[0]] = counts.get(op[0], 0) + 1
    return {kind: count / len(ops) for kind, count in sorted(counts.items())}
