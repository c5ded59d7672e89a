"""One exact maximum-clique search: bounded Bron-Kerbosch with Tomita
pivoting (Tomita, Tanaka & Takahashi, TCS 363, 2006) on int bitmasks, run
on the false-twin quotient of the graph.

False twins are vertices with equal open neighbourhoods (equal rows).
They are never adjacent, since a vertex is not its own neighbour, so a
clique takes at most one vertex per twin class, and any member of a class
serves as well as another.  The maximum cliques of the graph are
therefore the choices of one vertex per class of the quotient's maximum
cliques: their number is the sum over quotient cliques of the product of
the class sizes, and the least one is the least tuple of class minima
(putting each vertex's class minimum in its place keeps a maximum clique
and lowers its sorted tuple component-wise).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

Clique = tuple[tuple[int, ...], ...]


def maximum_cliques(neighbours: Sequence[int]) -> tuple[int, list[Clique]]:
    """Return ``(size, cliques)``: every maximum clique of the twin quotient.

    Bit j of ``neighbours[i]`` joins vertices i and j (undirected, no
    loops).  A clique is a sorted tuple of twin classes, a class a sorted
    tuple of vertices; the list is sorted, so ``cliques[0]``'s class minima
    are the least maximum clique.  ``expand`` lists the graph's cliques.
    On the quotient the pivot is the least vertex with the most candidate
    neighbours, and a branch stops once its clique plus its candidates is
    smaller than the best size so far, so every tie is still listed.
    Recursion depth is the clique size.
    """
    twins: dict[int, list[int]] = {}
    for v, row in enumerate(neighbours):
        twins.setdefault(row, []).append(v)
    classes = [tuple(members) for members in twins.values()]
    rows = list(neighbours)  # a graph without twins is its own quotient
    if len(classes) < len(rows):
        reps = [members[0] for members in classes]
        rows = [sum(1 << d for d, r in enumerate(reps) if row >> r & 1) for row in twins]
    best, found = 0, []

    def search(clique: list[int], cand: int, excl: int) -> None:
        nonlocal best, found
        if not cand:
            if not excl and len(clique) >= best:
                if len(clique) > best:
                    best, found = len(clique), []
                found.append(tuple(classes[c] for c in sorted(clique)))
            return
        if len(clique) + cand.bit_count() < best:
            return
        pivot, most, rest = 0, -1, cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            shared = (cand & rows[u]).bit_count()
            if shared > most:
                pivot, most = u, shared
        rest = cand & ~rows[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            clique.append(v)
            search(clique, cand & rows[v], excl & rows[v])
            clique.pop()
            cand ^= low
            excl |= low

    if rows:
        search([], (1 << len(rows)) - 1, 0)
    return best, sorted(found)


def expand(cliques: Sequence[Clique]) -> list[tuple[int, ...]]:
    """Every clique of the graph behind quotient ``cliques``, sorted."""
    return sorted(tuple(sorted(choice)) for clique in cliques for choice in product(*clique))
