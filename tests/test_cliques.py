import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringline.cliques import cliques_through, expand, maximum_cliques, maximum_size
from ringline.line import mask_indices


def adjacency_from_edges(n, edges):
    neighbours = [0] * n
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    return neighbours


def listed(adjacency):
    size, cliques = maximum_cliques(adjacency)
    return size, expand(cliques)


def test_triangle_with_pendant():
    adjacency = adjacency_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert listed(adjacency) == (3, [(0, 1, 2)])


def test_empty_graph():
    assert maximum_cliques([]) == (0, [])
    assert expand([]) == []


def test_edgeless_graph_gives_singletons():
    adjacency = [0] * 5
    # all five vertices are twins: one quotient clique of one class
    assert maximum_cliques(adjacency) == (1, [((0, 1, 2, 3, 4),)])
    assert listed(adjacency) == (1, [(v,) for v in range(5)])


def test_complete_graph():
    n = 7
    adjacency = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    # all seven vertices are true twins: one vertex of weight 7, each
    # member a part of its own
    assert maximum_cliques(adjacency) == (n, [tuple((v,) for v in range(n))])
    assert listed(adjacency) == (n, [tuple(range(n))])


def test_two_disjoint_maximum_cliques():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    adjacency = adjacency_from_edges(6, edges)
    assert listed(adjacency) == (3, [(0, 1, 2), (3, 4, 5)])


def test_complete_multipartite_graph_is_one_quotient_clique():
    # parts {0, 3}, {1, 4, 5}, {2}: each part is a twin class
    part = [0, 1, 2, 0, 1, 1]
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if part[i] != part[j]]
    size, cliques = maximum_cliques(adjacency_from_edges(6, edges))
    assert (size, cliques) == (3, [((0, 3), (1, 4, 5), (2,))])
    assert expand(cliques) == sorted(tuple(sorted(c)) for c in [
        (0, 1, 2), (0, 4, 2), (0, 5, 2), (3, 1, 2), (3, 4, 2), (3, 5, 2),
    ])


def random_graph(rng, n, density):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def plant_twins(n, edges, originals, closed):
    """The edges of the graph plus one copy of each vertex in ``originals``
    (numbered from n on): a false twin of it (same neighbours, not adjacent
    to it), or with ``closed`` a true twin (adjacent to it, same closed
    neighbourhood)."""
    twin_of = list(range(n)) + list(originals)
    neighbours = {v: {b for a, b in edges if a == v} | {a for a, b in edges if b == v} for v in range(n)}
    return [
        (i, j)
        for i in range(len(twin_of))
        for j in range(i + 1, len(twin_of))
        if twin_of[j] in neighbours[twin_of[i]] or (closed and twin_of[i] == twin_of[j])
    ]


def with_twins(rng, n, edges, copies, closed):
    """``plant_twins`` on ``copies`` random vertices, with the labels shuffled."""
    planted = plant_twins(n, edges, [rng.randrange(n) for _ in range(copies)], closed)
    label = list(range(n + copies))
    rng.shuffle(label)
    return n + copies, [(label[a], label[b]) for a, b in planted]


def with_false_twins(rng, n, edges, copies):
    return with_twins(rng, n, edges, copies, closed=False)


def with_true_twins(rng, n, edges, copies):
    return with_twins(rng, n, edges, copies, closed=True)


def twin_classes(adjacency, closed):
    """The vertices grouped by equal open rows, or with ``closed`` equal closed rows."""
    groups = {}
    for v, row in enumerate(adjacency):
        groups.setdefault(row | closed << v, []).append(v)
    return [tuple(members) for members in groups.values()]


def check_through(adjacency, root):
    """``cliques_through`` against networkx's largest cliques of the closed
    neighbourhood of ``root`` that hold ``root``."""
    hood = adjacency[root] | 1 << root
    inside = [mask_indices(row & hood) if hood >> v & 1 else [] for v, row in enumerate(adjacency)]
    nx_size, nx_best = oracles.nx_maximum_cliques(inside)
    nx_best = {c for c in nx_best if root in c}
    size, cliques = cliques_through(adjacency, root)
    chosen = [[(root,) if root in part else part for part in clique] for clique in cliques]
    assert size == nx_size
    assert {frozenset(c) for c in expand(chosen)} == nx_best
    assert sum(math.prod(len(part) for part in clique if root not in part) for clique in cliques) == len(nx_best)
    assert min(tuple(sorted(c)) for c in nx_best) == min(tuple(sorted(map(min, clique))) for clique in chosen)


def check_against_networkx(adjacency):
    size, cliques = maximum_cliques(adjacency)
    nx_size, nx_best = oracles.nx_maximum_cliques([mask_indices(row) for row in adjacency])
    listing = expand(cliques)
    assert size == maximum_size(adjacency) == nx_size
    check_through(adjacency, len(adjacency) // 2)
    assert {frozenset(c) for c in listing} == nx_best
    assert listing == sorted(listing) and all(list(c) == sorted(c) for c in listing)
    assert sum(math.prod(map(len, clique)) for clique in cliques) == len(nx_best)
    assert tuple(cls[0] for cls in cliques[0]) == min(tuple(sorted(c)) for c in nx_best)
    # every part is a whole false-twin class (a true twin has no false
    # twin, so its part is a single vertex), and each true-twin class lies
    # wholly inside or wholly outside each clique
    parts = {part for clique in cliques for part in clique}
    assert parts <= set(twin_classes(adjacency, closed=False))
    true_classes = [set(cls) for cls in twin_classes(adjacency, closed=True)]
    for clique in cliques:
        assert list(clique) == sorted(clique)
        members = {v for part in clique for v in part}
        assert all(cls <= members or not cls & members for cls in true_classes)


def test_random_graphs_against_networkx():
    # 80 vertices: rows wider than one machine word
    for seed, n in ((3, 30), (11, 30), (42, 30), (7, 80)):
        rng = random.Random(seed)
        check_against_networkx(adjacency_from_edges(n, random_graph(rng, n, 0.4)))


def test_random_graphs_with_false_twins_against_networkx():
    rng = random.Random(2006)
    for _ in range(60):
        n = rng.randrange(1, 16)
        edges = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
        total, twinned = with_false_twins(rng, n, edges, rng.randrange(0, 2 * n + 1))
        check_against_networkx(adjacency_from_edges(total, twinned))


def test_random_graphs_with_true_twins_against_networkx():
    rng = random.Random(2003)
    for _ in range(60):
        n = rng.randrange(1, 16)
        edges = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
        total, twinned = with_true_twins(rng, n, edges, rng.randrange(0, 2 * n + 1))
        check_against_networkx(adjacency_from_edges(total, twinned))


def test_random_graphs_with_both_twin_kinds_against_networkx():
    rng = random.Random(2001)
    for _ in range(60):
        n = rng.randrange(1, 12)
        edges = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
        n, edges = with_false_twins(rng, n, edges, rng.randrange(0, n + 1))
        total, twinned = with_true_twins(rng, n, edges, rng.randrange(0, n + 1))
        check_against_networkx(adjacency_from_edges(total, twinned))


@st.composite
def relabelled_twinned_graphs(draw):
    """A graph of up to 8 vertices with up to 3 false and then 3 true twins
    planted, and a permutation of its vertices."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    false = draw(st.lists(st.integers(0, n - 1), max_size=3))
    edges, n = plant_twins(n, edges, false, closed=False), n + len(false)
    true = draw(st.lists(st.integers(0, n - 1), max_size=3))
    edges, n = plant_twins(n, edges, true, closed=True), n + len(true)
    return n, edges, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(relabelled_twinned_graphs())
def test_kernel_is_invariant_under_relabelling(graph):
    n, edges, label = graph
    answers = []
    for relabelled in (edges, [(label[a], label[b]) for a, b in edges]):
        adjacency = adjacency_from_edges(n, relabelled)
        size, cliques = maximum_cliques(adjacency)
        nx_size, nx_best = oracles.nx_maximum_cliques([mask_indices(row) for row in adjacency])
        assert tuple(part[0] for part in cliques[0]) == min(tuple(sorted(c)) for c in nx_best)
        assert maximum_size(adjacency) == nx_size
        for root in range(n):
            check_through(adjacency, root)
        answers.append((size, len(cliques), sum(math.prod(map(len, clique)) for clique in cliques)))
    assert answers[0] == answers[1]
