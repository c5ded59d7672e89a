"""A fixed clique count that measures how fast the host runs right now.

The benchmark's host is shared: the same op can take 1.6x longer for a
minute or more while other tenants load it, which swamps any run-to-run
comparison of raw wall times.  So each reported time is scaled by
``REFERENCE_S / kernel time``, i.e. given in seconds of a host on which
the kernel takes ``REFERENCE_S``.  The kernel is timed in the measuring
process itself, between ops, so it sees the slow-downs the ops see.

The kernel lists and sorts the maximal cliques of a fixed pseudo-random
graph with its own Bron-Kerbosch search: set intersections, sorting,
recursion through generators and tuple churn, the work the package's hot
loops do, so it slows down under the same kinds of contention (an
integer loop tracked the ops worse).  It shares no code with
ringline, so no change to the package moves it, and its speed does not
depend on the heap the package leaves behind (the same in a fresh
process and next to a T(4) line and its 122 880 cliques).  Raw times are
kept and printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's time on a lightly loaded 2-vCPU x86-64 VM, CPython 3.11.
REFERENCE_S = 0.015
# One kernel sample (~15-20 ms) per this much measured time: ~7% of a run.
SPACING_S = 0.25


def _graph(n: int = 58, seed: int = 12345) -> list[frozenset[int]]:
    """A fixed pseudo-random graph of edge density 1/2 (a 31-bit LCG)."""
    state = seed
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            if state >> 16 & 1:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return [frozenset(a) for a in adjacency]


_GRAPH = _graph()


def _maximal(neighbours, clique, cand, excl):
    if not cand and not excl:
        yield tuple(sorted(clique))
        return
    pivot = max(sorted(cand | excl), key=lambda u: len(cand & neighbours[u]))
    for v in sorted(cand - neighbours[pivot]):
        yield from _maximal(neighbours, clique + [v], cand & neighbours[v], excl & neighbours[v])
        cand.remove(v)
        excl.add(v)


def kernel() -> int:
    """Number of the graph's maximal cliques; never changes."""
    found = sorted(_maximal(_GRAPH, [], set(range(len(_GRAPH))), set()))
    return len(found)


def kernel_s() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Speedometer:
    """Kernel samples spread evenly over one process's measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        """One kernel sample per ``SPACING_S`` gone by since the last call.

        A long op is followed by as many samples as the time it took, so
        the median weighs the host's speed over time, not over ops.
        """
        due = max(1, round((time.perf_counter() - self._last) / SPACING_S))
        self.samples.extend(kernel_s() for _ in range(due))
        self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to get reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
