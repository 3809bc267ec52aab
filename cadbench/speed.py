"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its machine; see :class:`Speed` for how reported
times are scaled to a reference machine.
"""

from __future__ import annotations

import gc
import mmap
import random
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class _Cell:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.links: List["_Cell"] = []


def _kernel(n: int = 2000) -> int:
    """Fixed in-cache work: allocation, dict and attribute traffic like the
    engine's hot paths."""
    table: Dict[int, int] = {}
    cells: List[_Cell] = []
    for i in range(n):
        cell = _Cell(i % 211, i)
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0) + cell.value
        if i > 7:
            cell.links.append(cells[i - 7])
    total = 0
    for cell in cells:
        for other in cell.links:
            total += table[other.key] - cell.value
    return total


class _Node:
    __slots__ = ("value", "next")


#: Objects in the calibration arena: about 6 MB of nodes, well outside
#: the per-core caches.
ARENA_NODES = 200_000


def arena(size: int = ARENA_NODES) -> _Node:
    """A ring of small objects in shuffled order, for a pointer chase."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].value = here
        nodes[here].next = nodes[there]
    return nodes[0]


def _walk(start: _Node, steps: int = 10_000) -> int:
    node, total = start, 0
    for _ in range(steps):
        total += node.value
        node = node.next
    return total


def _fault(pages: int = 256) -> int:
    """Map fresh memory and touch every page: the cost of heap growth."""
    with mmap.mmap(-1, pages * mmap.PAGESIZE) as block:
        for offset in range(0, len(block), mmap.PAGESIZE):
            block[offset] = 1
        return len(block)


class Speed:
    """How fast this machine runs right now, against three fixed probes.

    The benchmark shares its machine, and its CPU speed, memory latency
    and page-fault cost drift by tens of per cent within minutes, not
    always together.  Three probes are timed about every
    ``CALIBRATE_EVERY_S`` during set-up and the measured loop (their time
    is excluded from both): an in-cache kernel, a pointer chase through
    the arena and a fresh mapping touched page by page.  A time is
    multiplied by the geometric mean over the probes of ``reference /
    trimmed mean probe time`` — taken over the ``SEGMENT_S`` window the
    time was measured in, or over the whole run — i.e. scaled to a
    machine on which the probes take ``REFERENCE_S``.  A slower engine
    still reads slower; a busier machine much less so.
    """

    CALIBRATE_EVERY_S = 0.1
    SEGMENT_S = 2.0
    #: Probe times (kernel, walk, fault) on the reference machine, GC off.
    REFERENCE_S = (0.0015, 0.003, 0.001)

    def __init__(self, arena: _Node) -> None:
        self.arena = arena
        self.samples: Tuple[List[float], ...] = ([], [], [])
        self.times: List[float] = []
        self.spent = 0.0
        self.last = perf_counter()

    def sample(self, times: int = 1) -> None:
        # Collections stay off inside the probes: a collection there would
        # charge the engine's heap to the machine's speed.  The kernel
        # frees all it allocates, so it leaves no GC debt behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                started = perf_counter()
                _kernel()  # warms the caches; only the second run counts
                marks = [perf_counter()]
                _kernel()
                marks.append(perf_counter())
                _walk(self.arena)
                marks.append(perf_counter())
                _fault()
                marks.append(perf_counter())
                for probe, samples in enumerate(self.samples):
                    samples.append(marks[probe + 1] - marks[probe])
                self.last = marks[-1]
                self.times.append(self.last)
                self.spent += self.last - started
        finally:
            if enabled:
                gc.enable()

    def maybe(self) -> None:
        if perf_counter() - self.last >= self.CALIBRATE_EVERY_S:
            self.sample()

    def means(self, which: Optional[Sequence[int]] = None) -> List[float]:
        """Trimmed mean time of each probe, over the samples ``which``."""
        if which is None:
            which = range(len(self.times))
        out = []
        for values in self.samples:
            ordered = sorted(values[i] for i in which)
            trim = len(ordered) // 10
            out.append(statistics.fmean(ordered[trim:len(ordered) - trim]))
        return out

    def factor(self, which: Optional[Sequence[int]] = None) -> float:
        product = 1.0
        for reference, mean in zip(self.REFERENCE_S, self.means(which)):
            product *= reference / mean
        return product ** (1 / len(self.REFERENCE_S))

    def local(self) -> Callable[[float], float]:
        """``factor_at(t)``: the factor of the window holding time ``t``
        (the whole-run factor where a window has under 5 samples)."""
        whole = self.factor()
        first = self.times[0]
        windows: Dict[int, List[int]] = {}
        for index, t in enumerate(self.times):
            windows.setdefault(int((t - first) // self.SEGMENT_S), []).append(index)
        factors = {key: self.factor(which) for key, which in windows.items()
                   if len(which) >= 5}

        def factor_at(t: float) -> float:
            return factors.get(int((t - first) // self.SEGMENT_S), whole)

        return factor_at
