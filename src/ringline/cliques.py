"""One exact maximum-clique search: weighted branch and bound with a greedy
colouring bound, on int bitmasks, run on the twin quotient of the graph.

Two kinds of twin are merged before the search.  False twins are vertices
with equal open neighbourhoods (equal rows).  They are never adjacent,
since a vertex is not its own neighbour, so a clique takes at most one
vertex per false-twin class, and any member serves as well as another:
the class becomes one part, chosen from.  True twins are vertices with
equal closed neighbourhoods (``row | 1 << v``).  A maximal clique holding
one holds them all, since it lies in their common closed neighbourhood:
the class becomes one vertex whose weight is its size, and each member is
a part of its own.  No vertex has nontrivial twins of both kinds: were u
a false twin of v and w a true twin of v, then w is in N(v) = N(u), so u
is in N[w] = N[v], and u would be adjacent to v.

So the maximum cliques of the graph are the choices of one vertex per
part of the quotient's maximum-weight cliques: their size is the number
of parts, their number is the sum over quotient cliques of the product of
the part sizes, and the least one is the least tuple of part minima
(putting each chosen vertex's part minimum in its place keeps a maximum
clique and lowers its sorted tuple component-wise).

The search colours its candidates greedily, in a fixed vertex order,
into independent sets (Tomita & Seki, DMTCS 2003, LNCS 2731).  A clique
takes at most one vertex per colour, so a vertex's bound is the sum of
the heaviest weights of the colours before its own plus the heaviest
weight so far in its own colour (weighted as in Östergård, Nordic J.
Computing 8, 2001).  It branches in reverse colour order.  All weights
are positive, so a clique that is not maximal weighs less than one that
holds it: a branch whose candidates run out is a clique to record, and
no set of excluded vertices is kept.

One kernel has two switches.  The leaf action: list every tie, pruning
a branch that cannot reach the best weight, or (``maximum_size``) keep
only the best weight, pruning one that cannot beat it.  The root point:
``cliques_through``, or ``maximum_size`` given a root, starts at the
quotient vertex holding one vertex, its neighbours the candidates, and so
searches only the cliques through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from operator import itemgetter

Clique = tuple[tuple[int, ...], ...]


def maximum_cliques(neighbours: Sequence[int]) -> tuple[int, list[Clique]]:
    """Return ``(size, cliques)``: every maximum clique of the twin quotient.

    Bit j of ``neighbours[i]`` joins vertices i and j (undirected, no
    loops).  A clique is a sorted tuple of parts, a part a sorted tuple of
    vertices: a false-twin class, of which a clique of the graph takes any
    one vertex, or a single vertex, so ``len(clique)`` is the size.  A
    true-twin class lies wholly inside or wholly outside each clique.  The
    list is sorted, so ``cliques[0]``'s part minima are the least maximum
    clique.  ``expand`` lists the graph's cliques.  Recursion depth is at
    most the clique size.
    """
    return _search(neighbours, None, True)


def maximum_size(neighbours: Sequence[int], root: int | None = None) -> int:
    """The size of a maximum clique (through vertex ``root`` unless it is None), found without listing the ties."""
    return _search(neighbours, root, False)[0]


def cliques_through(neighbours: Sequence[int], root: int) -> tuple[int, list[Clique]]:
    """As ``maximum_cliques``, for the largest cliques through vertex ``root``, each taking it from its part."""
    return _search(neighbours, root, True)


def _search(neighbours: Sequence[int], root: int | None, ties: bool) -> tuple[int, list[Clique]]:
    """The heaviest quotient cliques, through ``root``'s vertex unless it is None: all if ``ties``, else one."""
    if not neighbours:
        return 0, []
    false: dict[int, list[int]] = {}
    for v, row in enumerate(neighbours):
        false.setdefault(row, []).append(v)
    true: dict[int, list[tuple[int, ...]]] = {}
    for row, members in false.items():
        true.setdefault(row | 1 << members[0], []).append(tuple(members))
    groups = list(true.values())  # the quotient's vertices, each a list of parts
    weight = list(map(len, groups))
    reps, width = [group[0][0] for group in groups], len(neighbours)
    # Quotient row g: bit d set when rep g is adjacent to rep d, read off
    # the binary text of rep g's row.
    pick = itemgetter(*[width - 1 - r for r in reversed(reps)])
    rows = [int("".join(pick(f"{neighbours[r]:0{width}b}")), 2) for r in reps]
    apart = [~(row | 1 << g) for g, row in enumerate(rows)]
    strict = int(not ties)  # a branch must beat the best weight, not just reach it

    def search(size: int, clique: list[tuple[int, ...]], cand: int) -> None:
        nonlocal best, found
        order, base, uncoloured = [], 0, cand
        while uncoloured:
            avail, heaviest = uncoloured, 0
            while avail:
                low = avail & -avail
                g = low.bit_length() - 1
                avail &= apart[g]
                uncoloured ^= low
                if weight[g] > heaviest:
                    heaviest = weight[g]
                order.append((g, base + heaviest))
            base += heaviest
        for g, bound in reversed(order):
            if size + bound < best + strict:
                return
            cand ^= 1 << g
            total, below = size + weight[g], cand & rows[g]
            if below:
                search(total, clique + groups[g], below)
            elif total >= best + strict:
                if total > best:
                    best, found = total, []
                found.append(tuple(sorted(clique + groups[g])))

    if root is None:
        size, clique, cand = 0, [], (1 << len(groups)) - 1
    else:
        g = next(g for g, group in enumerate(groups) if any(root in part for part in group))
        size, clique, cand = weight[g], groups[g], rows[g]
    best, found = (0, []) if cand else (size, [tuple(sorted(clique))])
    search(size, clique, cand)
    return best, sorted(found)


def expand(cliques: Sequence[Clique]) -> list[tuple[int, ...]]:
    """Every clique of the graph behind quotient ``cliques``, sorted."""
    return sorted(tuple(sorted(choice)) for clique in cliques for choice in product(*clique))
