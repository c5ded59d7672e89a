"""One exact maximum-clique search: bounded Bron-Kerbosch with Tomita
pivoting (Tomita, Tanaka & Takahashi, TCS 363, 2006) on int bitmasks."""

from __future__ import annotations

from collections.abc import Sequence


def maximum_cliques(neighbours: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Return ``(size, cliques)``: every clique of maximum size, sorted.

    Bit j of ``neighbours[i]`` joins vertices i and j (undirected, no
    loops).  The pivot is the least vertex with the most candidate
    neighbours.  A branch stops once its clique plus its candidates is
    smaller than the best size so far, so every tie is still listed.
    Recursion depth is the clique size.
    """
    best, found = 0, []

    def expand(clique: list[int], cand: int, excl: int) -> None:
        nonlocal best, found
        if not cand:
            if not excl and len(clique) >= best:
                if len(clique) > best:
                    best, found = len(clique), []
                found.append(tuple(sorted(clique)))
            return
        if len(clique) + cand.bit_count() < best:
            return
        pivot, most, rest = 0, -1, cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            shared = (cand & neighbours[u]).bit_count()
            if shared > most:
                pivot, most = u, shared
        rest = cand & ~neighbours[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            clique.append(v)
            expand(clique, cand & neighbours[v], excl & neighbours[v])
            clique.pop()
            cand ^= low
            excl |= low

    if neighbours:
        expand([], (1 << len(neighbours)) - 1, 0)
    return best, sorted(found)
