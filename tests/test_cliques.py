import random

import oracles
from ringline.cliques import maximum_cliques
from ringline.line import mask_indices


def adjacency_from_edges(n, edges):
    neighbours = [0] * n
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    return neighbours


def test_triangle_with_pendant():
    adjacency = adjacency_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    size, best = maximum_cliques(adjacency)
    assert size == 3 and best == [(0, 1, 2)]


def test_empty_graph():
    assert maximum_cliques([]) == (0, [])


def test_edgeless_graph_gives_singletons():
    adjacency = [0] * 5
    size, best = maximum_cliques(adjacency)
    assert size == 1
    assert best == [(v,) for v in range(5)]


def test_complete_graph():
    n = 7
    adjacency = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    size, best = maximum_cliques(adjacency)
    assert size == n and best == [tuple(range(n))]


def test_two_disjoint_maximum_cliques():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    adjacency = adjacency_from_edges(6, edges)
    size, best = maximum_cliques(adjacency)
    assert size == 3 and best == [(0, 1, 2), (3, 4, 5)]


def test_random_graphs_against_networkx():
    # 80 vertices: rows wider than one machine word
    for seed, n in ((3, 30), (11, 30), (42, 30), (7, 80)):
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        adjacency = adjacency_from_edges(n, edges)
        size, best = maximum_cliques(adjacency)
        nx_size, nx_best = oracles.nx_maximum_cliques([mask_indices(row) for row in adjacency])
        assert size == nx_size
        assert {frozenset(c) for c in best} == nx_best
        assert best == sorted(best) and all(list(c) == sorted(c) for c in best)
