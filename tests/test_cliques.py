import math
import random

import oracles
from ringline.cliques import expand, maximum_cliques
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


def with_false_twins(rng, n, edges, copies):
    """The graph plus ``copies`` extra vertices, each a false twin of a random
    vertex (same neighbours, not adjacent to it), with the labels shuffled."""
    twin_of = list(range(n)) + [rng.randrange(n) for _ in range(copies)]
    neighbours = {v: {b for a, b in edges if a == v} | {a for a, b in edges if b == v} for v in range(n)}
    total = n + copies
    label = list(range(total))
    rng.shuffle(label)
    twinned = [
        (label[i], label[j])
        for i in range(total)
        for j in range(i + 1, total)
        if twin_of[j] in neighbours[twin_of[i]]
    ]
    return total, twinned


def check_against_networkx(adjacency):
    size, cliques = maximum_cliques(adjacency)
    nx_size, nx_best = oracles.nx_maximum_cliques([mask_indices(row) for row in adjacency])
    listing = expand(cliques)
    assert size == nx_size
    assert {frozenset(c) for c in listing} == nx_best
    assert listing == sorted(listing) and all(list(c) == sorted(c) for c in listing)
    assert sum(math.prod(map(len, clique)) for clique in cliques) == len(nx_best)
    assert tuple(cls[0] for cls in cliques[0]) == min(tuple(sorted(c)) for c in nx_best)
    # twin classes: vertices with equal rows, never split, never adjacent
    classes = [cls for clique in cliques for cls in clique]
    for cls in classes:
        assert len({adjacency[v] for v in cls}) == 1
        assert list(cls) == sorted(cls)
    by_row = {}
    for v, row in enumerate(adjacency):
        by_row.setdefault(row, []).append(v)
    assert set(classes) <= {tuple(members) for members in by_row.values()}


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
