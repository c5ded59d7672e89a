"""Brute-force reference computations used only by the tests.

Everything here works straight off raw Cayley tables (lists of lists) so
that checks do not share code paths with the package being tested.
"""

import json
import math
import random
import re
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


def relabelled(add, mul, seed):
    """The tables under a random relabelling of the elements that fixes 0 and 1."""
    n = len(add)
    rest = list(range(2, n))
    random.Random(seed).shuffle(rest)
    perm = [0, 1] + rest
    tables = []
    for table in (add, mul):
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[perm[a]][perm[b]] = perm[table[a][b]]
        tables.append(out)
    return tables


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


def incidence(orbits):
    """Each vector lying on some orbit, mapped to the mask of those orbits (bit i: on the i-th)."""
    masks = {}
    for index, orbit in enumerate(orbits):
        for v in orbit:
            masks[v] = masks.get(v, 0) | 1 << index
    return masks


def point_for(line, vector):
    """The point of ``line`` equal to the submodule ``vector`` generates.

    A lookup, not an oracle: it reads the package's canonical generator.
    """
    from ringline import cyclic_submodule

    generator = cyclic_submodule(line.ring, vector).generator
    for point in line.points:
        if point.generator == generator:
            return point
    raise KeyError(f"vector {vector} does not generate a free submodule of this line")


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


def export_documents(label, order, sector, orbits):
    """The co-residence export of ``orbits``, by format, from one global pair sort and ``json.dumps``.

    Every pair of vectors inside one orbit is an edge; a vector's weight is
    the number of orbits through it.
    """
    weights = {}
    edges = set()
    for orbit in orbits:
        for v in orbit:
            weights[v] = weights.get(v, 0) + 1
        edges.update(combinations(sorted(orbit), 2))
    edges = sorted(edges)
    vertices = sorted(weights)
    ident = {v: f"{v[0]}{v[1]}" if order <= 10 else f"{v[0]}_{v[1]}" for v in vertices}
    name = f"{label} {sector}".replace('"', '\\"')
    dot = [f'graph "{name}" {{']
    dot += [f'  "{ident[v]}" [weight={weights[v]}];' for v in vertices]
    dot += [f'  "{ident[a]}" -- "{ident[b]}";' for a, b in edges]
    dot.append("}")
    doc = {
        "schema": "ringline.graph/1",
        "ring": label,
        "sector": sector,
        "vertices": [{"id": ident[v], "vector": list(v), "weight": weights[v]} for v in vertices],
        "edges": [[ident[a], ident[b]] for a, b in edges],
    }
    return {"dot": "\n".join(dot) + "\n", "json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}


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


def relation_adjacency(points, kind):
    """Adjacency sets of the distant or neighbour relation on points.

    Straight from orbit-set intersections: two points are distant when
    their orbits share only the zero vector (one element).
    """
    sets = [frozenset(p.orbit) for p in points]
    distant = kind == "distant"
    return [
        frozenset(j for j, b in enumerate(sets) if j != i and (len(a & b) == 1) == distant)
        for i, a in enumerate(sets)
    ]


def distant_twin_classes(points):
    """The points grouped by their distant partners, as generator sets."""
    groups = {}
    for point, partners in zip(points, relation_adjacency(points, "distant")):
        groups.setdefault(partners, set()).add(point.generator)
    return {frozenset(group) for group in groups.values()}


def radical_image_cliques(ring, fields):
    """Unimodular-sector clique sizes and counts predicted from R/J.

    ``fields`` lists the orders q of the residue fields, R/J = prod GF(q),
    with J brute-forced (x in J iff 1 + r*x is a unit for every r).  The
    unimodular points map onto prod P(GF(q)), each image with |J| points
    over it (the fibre).  Two points are distant when their images differ
    in every coordinate and neighbour when they agree in one.  So a
    maximum distant set has m = min q + 1 points, with distinct values in
    each coordinate and any lift; a maximum neighbour set is the preimage
    of one value in a coordinate with q minimal.  ``fibres`` is the number
    of images and the fibre size.
    """
    add, mul = ring.add_table, ring.mul_table
    n = len(mul)
    units = brute_units(mul)
    fibre = sum(1 for x in range(n) if all(add[1][mul[r][x]] in units for r in range(n)))
    assert n == fibre * math.prod(fields), (ring.label, fields)
    m = min(fields) + 1
    points = fibre * math.prod(q + 1 for q in fields)
    distant = math.prod(math.perm(q + 1, m) for q in fields) // math.factorial(m) * fibre ** m
    neighbour = sum(q + 1 for q in fields if q + 1 == m)
    return {
        "unimodular": points,
        "fibres": (math.prod(q + 1 for q in fields), fibre),
        "distant": (m, distant),
        "neighbour": (points // m, neighbour),
    }


def _digit_ops(family, q):
    """Addition and multiplication of Z(q) or GF(q) labels: residues, except
    that GF(4) labels are bit masks of polynomials over GF(2) reduced mod
    x^2 + x + 1."""
    if family == "Z" or q != 4:
        return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)

    def mul(a, b):
        p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return p ^ 0b111 if p & 4 else p

    return (lambda a, b: a ^ b), mul


def _power_list(q, mul):
    """0, 1, then the powers of the least primitive element of GF(q)."""
    for g in range(1, q):
        powers = [1]
        while mul(powers[-1], g) != 1:
            powers.append(mul(powers[-1], g))
        if len(powers) == q - 1:
            return [0] + powers
    raise AssertionError(f"GF({q}) has no primitive element")


def _tables(n, decode, encode, add, mul):
    """Raw tables of two operations on the elements decode(0..n-1)."""
    elements = [decode(i) for i in range(n)]
    return (
        [[encode(add(x, y)) for y in elements] for x in elements],
        [[encode(mul(x, y)) for y in elements] for x in elements],
    )


def _identity_to_one(add, mul):
    """Relabel by the transposition of label 1 and the identity's label."""
    n = len(mul)
    e = next(x for x in range(n) if all(mul[x][y] == y == mul[y][x] for y in range(n)))
    s = list(range(n))
    s[1], s[e] = e, 1
    return (
        [[s[add[s[i]][s[j]]] for j in range(n)] for i in range(n)],
        [[s[mul[s[i]][s[j]]] for j in range(n)] for i in range(n)],
    )


def matrix_gf2_tables():
    """(add, mul) of M2(GF(2)), [[a, b], [c, d]] at the bits abcd, identity swapped to 1.

    A row (r1, r2) of this ring can have 1 in r1*R + r2*R but not in
    R*r1 + R*r2, so it tells right ideals from left ones.
    """

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a & e ^ b & g, a & f ^ b & h, c & e ^ d & g, c & f ^ d & h)

    raw = _tables(
        16, lambda i: (i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1), lambda x: x[0] << 3 | x[1] << 2 | x[2] << 1 | x[3],
        lambda x, y: tuple(u ^ v for u, v in zip(x, y)), mul,
    )
    return _identity_to_one(*raw)


def named_tables(spec):
    """(add, mul) of a named ring spec, labelled as the README documents.

    Z(n) and GF(p) are residues and GF(4) bit masks; D(q) puts (a, b) at
    a*q + b; T(q) puts digits (a, b, c) at pos(a)*q^2 + pos(b)*q + pos(c)
    with pos listing 0, 1, then primitive powers; a product puts (i, j) at
    i*|S| + j, folded left to right.  Each construction then swaps the
    identity's label with 1.
    """
    tables = None
    for term in spec.split("*"):
        family, q = re.fullmatch(r"\s*(Z|GF|T|D)\((\d+)\)\s*", term).groups()
        q = int(q)
        fadd, fmul = _digit_ops(family, q)
        if family in ("Z", "GF"):
            raw = _tables(q, lambda i: i, lambda x: x, fadd, fmul)
        elif family == "D":
            raw = _tables(
                q * q, lambda i: divmod(i, q), lambda x: x[0] * q + x[1],
                lambda x, y: (fadd(x[0], y[0]), fadd(x[1], y[1])),
                lambda x, y: (fmul(x[0], y[0]), fadd(fmul(x[0], y[1]), fmul(x[1], y[0]))),
            )
        else:
            pos = _power_list(q, fmul)
            raw = _tables(
                q ** 3,
                lambda i: (pos[i // (q * q)], pos[i // q % q], pos[i % q]),
                lambda x: pos.index(x[0]) * q * q + pos.index(x[1]) * q + pos.index(x[2]),
                lambda x, y: (fadd(x[0], y[0]), fadd(x[1], y[1]), fadd(x[2], y[2])),
                lambda x, y: (fmul(x[0], y[0]), fadd(fmul(x[0], y[1]), fmul(x[1], y[2])), fmul(x[2], y[2])),
            )
        factor = _identity_to_one(*raw)
        if tables is None:
            tables = factor
            continue
        (ladd, lmul), (radd, rmul), m = tables, factor, len(factor[0])
        tables = _identity_to_one(*_tables(
            len(ladd) * m, lambda i: divmod(i, m), lambda x: x[0] * m + x[1],
            lambda x, y: (ladd[x[0]][y[0]], radd[x[1]][y[1]]),
            lambda x, y: (lmul[x[0]][y[0]], rmul[x[1]][y[1]]),
        ))
    return tables
