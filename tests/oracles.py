"""Brute-force reference computations used only by the tests.

Everything here works straight off raw Cayley tables (lists of lists) so
that checks do not share code paths with the package being tested.
"""

from itertools import combinations, permutations, product


def axiom_failure(add, mul):
    """First broken ring axiom as (name, witness), or None if all hold."""
    n = len(add)
    for i in range(n):
        if add[0][i] != i or add[i][0] != i:
            return "additive_identity", (i,)
        if mul[1][i] != i or mul[i][1] != i:
            return "multiplicative_identity", (i,)
    for a, b in product(range(n), repeat=2):
        if add[a][b] != add[b][a]:
            return "additive_commutativity", (a, b)
    for a in range(n):
        if all(add[a][b] != 0 for b in range(n)):
            return "additive_inverse", (a,)
    for a, b, c in product(range(n), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return "additive_associativity", (a, b, c)
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return "multiplicative_associativity", (a, b, c)
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return "left_distributivity", (a, b, c)
        if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
            return "right_distributivity", (a, b, c)
    return None


def brute_units(mul):
    n = len(mul)
    return {
        x
        for x in range(n)
        if any(mul[x][y] == 1 and mul[y][x] == 1 for y in range(n))
    }


def is_two_sided_ideal(add, mul, subset):
    if 0 not in subset:
        return False
    for x in subset:
        for y in subset:
            if add[x][y] not in subset:
                return False
        for r in range(len(add)):
            if mul[r][x] not in subset or mul[x][r] not in subset:
                return False
    return True


def all_ideals_by_subsets(add, mul):
    """Every two-sided ideal, found by scanning all subsets (order <= 10)."""
    n = len(add)
    assert n <= 10, "subset scan only meant for tiny rings"
    rest = [x for x in range(1, n)]
    found = set()
    for size in range(n):
        for extra in combinations(rest, size):
            subset = frozenset((0,) + extra)
            if is_two_sided_ideal(add, mul, subset):
                found.add(subset)
    return found


def brute_isomorphism(add_a, mul_a, add_b, mul_b):
    """Least table-preserving bijection a -> b, or None.

    An isomorphism fixes 0 and 1, so it tries the (n-2)! permutations of
    the other elements in lexicographic order.
    """
    n = len(add_a)
    if n != len(add_b):
        return None
    for rest in permutations(range(2, n)):
        image = (0, 1) + rest
        if all(
            image[add_a[x][y]] == add_b[image[x]][image[y]]
            and image[mul_a[x][y]] == mul_b[image[x]][image[y]]
            for x in range(n)
            for y in range(n)
        ):
            return image
    return None


def brute_unimodular(add, mul, vector):
    r1, r2 = vector
    n = len(add)
    return any(
        add[mul[r1][x1]][mul[r2][x2]] == 1 for x1 in range(n) for x2 in range(n)
    )


def brute_orbit(mul, vector):
    r1, r2 = vector
    return frozenset((mul[a][r1], mul[a][r2]) for a in range(len(mul)))


def brute_generators(mul, vector):
    """Sorted vectors w of orbit(v) with orbit(w) == orbit(v)."""
    orbit = brute_orbit(mul, vector)
    return sorted(w for w in orbit if brute_orbit(mul, w) == orbit)


def brute_line_sectors(add, mul):
    """(unimodular orbit sets, non-unimodular orbit sets) from raw tables.

    A free orbit counts as unimodular when one of its regenerating vectors
    satisfies the right-combination identity.
    """
    n = len(mul)
    free = {}
    for v in product(range(n), repeat=2):
        orbit = brute_orbit(mul, v)
        if len(orbit) == n:
            free.setdefault(orbit, set()).add(v)
    uni, non = set(), set()
    for orbit in free:
        regenerators = [w for w in orbit if brute_orbit(mul, w) == orbit]
        if any(brute_unimodular(add, mul, w) for w in regenerators):
            uni.add(orbit)
        else:
            non.add(orbit)
    return uni, non


def nx_maximum_cliques(adjacency):
    """(size, set of maximum cliques) via networkx, as frozensets of vertices."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(len(adjacency)))
    for i, nbrs in enumerate(adjacency):
        graph.add_edges_from((i, j) for j in nbrs if j > i)
    best = 0
    cliques = set()
    for clique in nx.find_cliques(graph):
        if len(clique) > best:
            best = len(clique)
            cliques = {frozenset(clique)}
        elif len(clique) == best:
            cliques.add(frozenset(clique))
    return best, cliques
