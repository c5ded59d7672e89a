import importlib
import random
from collections import Counter

import pytest

import golden
import oracles
from ringline import (
    DEFAULT_CATALOG,
    EmptyStructure,
    IncidenceStructure,
    OrderTooLarge,
    TooLarge,
    VectorClass,
    compute_line,
    condensate_distant_analysis,
    condense,
    construct,
    identify_condensate,
    reference_structure,
    structures_isomorphic,
    validate_tables,
)


def test_ternion_condensate_classes(ternion_line):
    structure = condense(ternion_line)
    members = [set(vc.members) for vc in structure.vertices]
    assert members[0] == golden.CONDENSATE_UNIVERSAL
    assert {frozenset(m) for m in members[1:]} == {
        frozenset(q) for q in golden.CONDENSATE_PRIVATE
    }
    assert all(len(m) == 4 for m in members)
    # universal class lies on every point, each private class on one
    assert structure.vertices[0].signature == {0, 1, 2}
    assert all(len(vc.signature) == 1 for vc in structure.vertices[1:])
    assert len(structure.edges) == 3
    assert all(len(edge) == 2 and 0 in edge for edge in structure.edges)


def test_condensate_classes_partition_covered_vectors(ternion_line, catalog_lines, gf3_t2_line):
    for line in (ternion_line, catalog_lines["GF(2)*T(2)"], gf3_t2_line):
        structure = condense(line)
        covered = {v for p in line.nonunimodular_points for v in p.orbit}
        seen = [v for vc in structure.vertices for v in vc.members]
        assert len(seen) == len(set(seen)) == len(covered)
        assert set(seen) == covered
        assert len(structure.edges) == len(line.nonunimodular_points)


def test_empty_condensate(catalog_lines):
    structure = condense(catalog_lines["GF(2)"])
    assert structure.is_empty
    # with no vertices and no edges, the search itself gives the empty witness
    witness = structures_isomorphic(structure, structure)
    assert witness is not None and witness.check()
    assert (witness.vertex_map, witness.edge_map) == ((), ())


def test_gf3_ternion_condensate_shape(gf3_t2_line):
    structure = condense(gf3_t2_line)
    assert len(structure.edges) == 12
    sizes = sorted(len(vc.members) for vc in structure.vertices)
    assert len(structure.vertices) == 20
    assert sizes == [4] * 4 + [8] * 16
    assert all(len(edge) == 4 for edge in structure.edges)


def _brute_reference_shape(ring):
    """(class count, sorted edge sizes, sorted class sizes) from brute-force orbits."""
    add, mul = [list(r) for r in ring.add_table], [list(r) for r in ring.mul_table]
    orbits = list(oracles.brute_line_sectors(add, mul)[0])
    signature = {}
    for i, orbit in enumerate(orbits):
        for v in orbit:
            signature.setdefault(v, set()).add(i)
    classes = Counter(frozenset(s) for s in signature.values())
    edge_sizes = sorted(sum(1 for c in classes if i in c) for i in range(len(orbits)))
    return len(classes), edge_sizes, sorted(classes.values())


def test_reference_structures(catalog):
    # a reference line is condensed like a condensate: one vertex per set of
    # unimodular points holding the same vectors
    for spec in DEFAULT_CATALOG:
        ref = reference_structure(spec)
        shape = (
            len(ref.vertices),
            sorted(len(e) for e in ref.edges),
            sorted(len(vc.members) for vc in ref.vertices),
        )
        assert shape == _brute_reference_shape(catalog[spec]), spec
    gf2 = reference_structure("GF(2)")
    assert len(gf2.vertices) == 4
    assert all(len(vc.members) == 1 for vc in gf2.vertices)
    assert len(gf2.edges) == 3 and all(len(e) == 2 for e in gf2.edges)
    # Z(4): the zero class, one class of two unimodular vectors per point, and
    # {(2,0)}, {(0,2)}, {(2,2)} on two points each
    z4 = reference_structure("Z(4)")
    assert len(z4.vertices) == 10
    assert len(z4.edges) == 6 and all(len(e) == 3 for e in z4.edges)
    # Z(6) = GF(2) x GF(3): 4 x 5 classes, each point holding 2 x 2 of them
    z6 = reference_structure("Z(6)")
    assert len(z6.vertices) == 20
    assert len(z6.edges) == 12 and all(len(e) == 4 for e in z6.edges)


def test_vertex_signatures_match_brute_force_orbits(catalog_lines, gf3_t2_line, amphibian16):
    # a vertex's signature is the set of edges whose brute-force orbit holds
    # its vectors, and the set of edges that list the vertex
    cases = [
        (reference_structure(spec), catalog_lines[spec], catalog_lines[spec].unimodular_points)
        for spec in DEFAULT_CATALOG
    ]
    for line in (catalog_lines["T(2)"], catalog_lines["GF(2)*T(2)"], gf3_t2_line, compute_line(amphibian16)):
        cases.append((condense(line), line, line.nonunimodular_points))
    for structure, line, points in cases:
        mul = [list(row) for row in line.ring.mul_table]
        orbits = [oracles.brute_orbit(mul, p.generator) for p in points]
        assert len(structure.edges) == len(orbits)
        for i, vc in enumerate(structure.vertices):
            assert vc.signature == {e for e, edge in enumerate(structure.edges) if i in edge}
            for v in vc.members:
                assert vc.signature == {e for e, orbit in enumerate(orbits) if v in orbit}, structure.label


def test_reference_structure_order_bound():
    with pytest.raises(OrderTooLarge):
        reference_structure("GF(3)*T(2)")


def test_condensate_isomorphisms(ternion_line, catalog_lines, gf3_t2_line):
    t2 = condense(ternion_line)
    witness = structures_isomorphic(t2, reference_structure("GF(2)"))
    assert witness is not None and witness.check()
    assert structures_isomorphic(t2, reference_structure("Z(4)")) is None
    product = condense(catalog_lines["GF(2)*T(2)"])
    assert structures_isomorphic(product, reference_structure("GF(2)*GF(2)")) is not None
    big = condense(gf3_t2_line)
    for spec in ("Z(6)", "GF(2)*GF(3)"):
        witness = structures_isomorphic(big, reference_structure(spec))
        assert witness is not None and witness.check()
    assert structures_isomorphic(big, reference_structure("GF(2)*GF(2)")) is None


def test_isomorphism_reflexive_symmetric(ternion_line):
    t2 = condense(ternion_line)
    refs = [t2] + [reference_structure(s) for s in ("GF(2)", "Z(4)", "D(2)", "Z(6)")]
    for a in refs:
        assert structures_isomorphic(a, a) is not None
    for a in refs:
        for b in refs:
            assert (structures_isomorphic(a, b) is None) == (
                structures_isomorphic(b, a) is None
            )


def test_z4_and_dual_number_lines_are_isomorphic_structures():
    # distinct rings, same incidence shape
    assert structures_isomorphic(
        reference_structure("Z(4)"), reference_structure("D(2)")
    ) is not None


def _permuted(structure, seed):
    rng = random.Random(seed)
    vperm = list(range(len(structure.vertices)))
    rng.shuffle(vperm)  # vperm[i] is the new index of old vertex i
    eperm = list(range(len(structure.edges)))
    rng.shuffle(eperm)
    new_edges = [None] * len(eperm)
    for old, new in enumerate(eperm):
        new_edges[new] = tuple(sorted(vperm[v] for v in structure.edges[old]))
    members = [None] * len(vperm)
    for old, new in enumerate(vperm):
        members[new] = structure.vertices[old].members
    rebuilt = tuple(
        VectorClass(
            members=member_list,
            signature=frozenset(i for i, e in enumerate(new_edges) if idx in e),
        )
        for idx, member_list in enumerate(members)
    )
    return IncidenceStructure(
        label=structure.label, vertices=rebuilt, edges=tuple(new_edges)
    )


def test_isomorphism_invariant_under_relabeling(ternion_line):
    t2 = condense(ternion_line)
    z4 = reference_structure("Z(4)")
    for seed in (7, 19, 23):
        assert structures_isomorphic(t2, _permuted(t2, seed)) is not None
        shuffled = _permuted(z4, seed)
        assert structures_isomorphic(z4, shuffled) is not None
        assert structures_isomorphic(t2, shuffled) is None


def test_isomorphism_distinguishes_unequal_structures():
    # same counts, different incidence: a 3-edge fan vs a 3-edge path
    def build(edges, n):
        vertices = tuple(
            VectorClass(
                members=((v, 0),),
                signature=frozenset(i for i, e in enumerate(edges) if v in e),
            )
            for v in range(n)
        )
        return IncidenceStructure(label="synthetic", vertices=vertices, edges=edges)

    fan = build(((0, 1), (0, 2), (0, 3)), 4)
    path = build(((0, 1), (1, 2), (2, 3)), 4)
    assert structures_isomorphic(fan, path) is None

    # K3,3 and the triangular prism, each graph vertex an edge on the graph
    # edges at it: every edge has the same size, degree profile and meeting
    # sizes, so only the exhaustive search tells the bipartite graph apart
    def from_graph(graph_edges):
        return build(tuple(tuple(k for k, e in enumerate(graph_edges) if v in e) for v in range(6)), 9)

    k33 = from_graph(tuple((u, v) for u in range(3) for v in range(3, 6)))
    prism = from_graph(((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))
    assert structures_isomorphic(k33, prism) is None
    assert structures_isomorphic(prism, k33) is None
    assert structures_isomorphic(k33, k33).check()


def test_isomorphism_is_exact(ternion_line):
    # a class of the condensate split into two vertices on the same edges is
    # a different structure: matching compares signature quotients as given
    t2 = condense(ternion_line)
    first, *rest = t2.vertices
    halves = (first.members[:1], first.members[1:])
    vertices = tuple(VectorClass(members, first.signature) for members in halves) + tuple(rest)
    edges = tuple(tuple(sorted(({0, 1} if 0 in e else set()) | {v + 1 for v in e if v})) for e in t2.edges)
    split = IncidenceStructure(label="split", vertices=vertices, edges=edges)
    assert len(split.vertices) == len(t2.vertices) + 1
    assert structures_isomorphic(split, t2) is None
    assert structures_isomorphic(t2, split) is None
    # so is the condensate with a vertex on no edge
    lone = VectorClass(members=((9, 9),), signature=frozenset())
    extra = IncidenceStructure(label="extra", vertices=t2.vertices + (lone,), edges=t2.edges)
    assert structures_isomorphic(extra, t2) is None
    assert structures_isomorphic(t2, extra) is None
    # the witness holds the compared structures themselves
    reference = reference_structure("GF(2)")
    witness = structures_isomorphic(t2, reference)
    assert witness is not None and witness.check()
    assert witness.a is t2 and witness.b is reference
    # a witness with two vertex images swapped does not preserve incidence
    swapped = list(witness.vertex_map)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not witness._replace(vertex_map=tuple(swapped)).check()


def test_witness_maps_must_be_permutations(ternion_line):
    # the incidence check reads only the images of a's vertices and edges, so
    # a map with one more, repeated image passes it; it is still no bijection
    witness = structures_isomorphic(condense(ternion_line), reference_structure("GF(2)"))
    assert witness is not None and witness.check()
    vertex_map, edge_map = witness.vertex_map, witness.edge_map
    assert not witness._replace(vertex_map=vertex_map + vertex_map[:1]).check()
    assert not witness._replace(edge_map=edge_map + edge_map[:1]).check()


def _from_signatures(signatures, edge_count):
    """A structure with one vertex per signature, the vertex on exactly those edges."""
    vertices = tuple(
        VectorClass(members=((v, 1),), signature=frozenset(sig)) for v, sig in enumerate(signatures)
    )
    edges = tuple(tuple(v for v, sig in enumerate(signatures) if e in sig) for e in range(edge_count))
    return IncidenceStructure(label="synthetic", vertices=vertices, edges=edges)


def test_leaf_rejects_an_edge_map_that_preserves_every_meet(monkeypatch):
    # equal edge invariants and pairwise meets: only the vertex signatures
    # at a full edge map tell these two apart
    a = _from_signatures(({0}, {0, 1}, {0, 2, 4}, {1}, {1, 3, 4}, {2, 3}), 5)
    b = _from_signatures(({0}, {0, 1, 4}, {0, 2}, {1}, {1, 3}, {2, 3, 4}), 5)
    condense_module = importlib.import_module("ringline.condense")
    original = condense_module._signature_bijection
    rejected = []

    def counted(x, y, edge_map):
        vertex_map = original(x, y, edge_map)
        rejected.append(vertex_map is None)
        return vertex_map

    monkeypatch.setattr(condense_module, "_signature_bijection", counted)
    for x, y in ((a, b), (b, a)):
        rejected.clear()
        assert structures_isomorphic(x, y) is None
        assert rejected == [True, True]
    for x in (a, b):
        assert structures_isomorphic(x, x).check()


def test_structure_size_bound():
    # P(GF(2)^4) = P(GF(2))^4: 3^4 points, 4^4 distinct vector signatures
    big = reference_structure("GF(2)*GF(2)*GF(2)*GF(2)")
    assert (len(big.vertices), len(big.edges)) == (256, 81)
    with pytest.raises(TooLarge):
        structures_isomorphic(big, big)
    # the bound needs equal sizes: 201 classes, each alone on its own edge,
    # cannot match 4 classes
    vertices = tuple(
        VectorClass(members=((v, 0),), signature=frozenset({v})) for v in range(201)
    )
    edges = tuple((v,) for v in range(201))
    single = IncidenceStructure(label="single", vertices=vertices, edges=edges)
    assert structures_isomorphic(single, reference_structure("GF(2)")) is None


def test_one_moved_incidence_is_not_isomorphic():
    # every edge of P(GF(2) x GF(7)) lists 2 x 2 of its 4 x 9 classes; moving
    # one class to an edge that lacks it gives edge sizes 3 and 5, so the
    # structures differ, and the edge invariants say so without a search
    ref = reference_structure("GF(2)*GF(7)")
    assert len(ref.vertices) == 36 and all(len(e) == 4 for e in ref.edges)
    edges = [set(e) for e in ref.edges]
    # a class (0, w) on the 3 points over one GF(7) point; a class on one
    # point would merge with the target edge's own class
    moved = next(v for v in sorted(edges[0]) if len(ref.vertices[v].signature) == 3)
    target = next(i for i, e in enumerate(edges) if moved not in e)
    edges[0].discard(moved)
    edges[target].add(moved)
    edges = tuple(tuple(sorted(e)) for e in edges)
    vertices = tuple(
        VectorClass(vc.members, frozenset(i for i, e in enumerate(edges) if v in e))
        for v, vc in enumerate(ref.vertices)
    )
    assert len({vc.signature for vc in vertices}) == 36  # no classes merge
    mutated = IncidenceStructure(label="moved", vertices=vertices, edges=edges)
    assert sorted(map(len, edges)) != sorted(map(len, ref.edges))
    assert structures_isomorphic(ref, mutated) is None
    assert structures_isomorphic(mutated, ref) is None


class _CountedRows(tuple):
    """A meet matrix that counts the rows read from it by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def test_one_added_incidence_is_refused_before_the_search(monkeypatch):
    # GF(5)*T(2)'s condensate (28 classes, 18 edges) matches P(GF(2) x
    # GF(5)).  Adding one class of degree 1 to an edge that lacks it keeps
    # the counts, and the signatures distinct.  The edge invariants must
    # refuse the copy both ways before the search reads a meet row (without
    # them the search takes 0.1-0.2 s here), while relabelled copies match.
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    condensate = condense(compute_line(construct("GF(5)*T(2)")))
    reference = reference_structure("GF(2)*GF(5)")
    assert (len(condensate.vertices), len(condensate.edges)) == (28, 18)
    assert structures_isomorphic(condensate, reference).check()
    edges = [set(e) for e in condensate.edges]
    added = next(v for v, vc in enumerate(condensate.vertices) if len(vc.signature) == 1 and v not in edges[0])
    edges[0].add(added)
    edges = tuple(tuple(sorted(e)) for e in edges)
    vertices = tuple(
        VectorClass(vc.members, frozenset(i for i, e in enumerate(edges) if v in e))
        for v, vc in enumerate(condensate.vertices)
    )
    assert len({vc.signature for vc in vertices}) == 28
    changed = IncidenceStructure(label="changed", vertices=vertices, edges=edges)
    rows = vars(changed)["meets"] = _CountedRows(changed.meets)  # where the cached property keeps it
    assert structures_isomorphic(changed, reference) is None
    assert structures_isomorphic(reference, changed) is None
    assert rows.reads == 0
    for seed in (3, 11):
        relabelled = _permuted(condensate, seed)
        assert structures_isomorphic(relabelled, reference).check()
        assert structures_isomorphic(reference, relabelled).check()


def test_identify_condensate(ternion_line, catalog_lines, gf3_t2_line):
    assert identify_condensate(ternion_line).matches == ("GF(2)",)
    assert identify_condensate(catalog_lines["GF(2)*T(2)"]).matches == ("GF(2)*GF(2)",)
    result = identify_condensate(gf3_t2_line)
    assert result.status == "matched"
    assert result.matches == ("Z(6)", "GF(2)*GF(3)")
    empty = identify_condensate(catalog_lines["Z(4)"])
    assert empty.status == "empty" and empty.matches == ()


def test_identify_with_custom_catalog(ternion_line):
    result = identify_condensate(ternion_line, catalog=("Z(4)", "D(2)"))
    assert result.status == "no catalog match"
    # order-16 references are condensed, so they stay under the size bound
    catalog = ("GF(4)*GF(4)", "Z(16)", "GF(2)*GF(2)*GF(4)", "GF(2)")
    assert identify_condensate(ternion_line, catalog=catalog).matches == ("GF(2)",)


# R x T(2) with R commutative condenses onto the line over R x GF(2), and
# T(q) onto the line over GF(q); Z(4) x GF(2) and D(2) x GF(2) have
# isomorphic lines
RELABELLED_MATCHES = {
    "T(2)": ("GF(2)",),
    "GF(2)*T(2)": ("GF(2)*GF(2)",),
    "GF(3)*T(2)": ("Z(6)", "GF(2)*GF(3)"),
    "T(3)": ("GF(3)",),
    "GF(4)*T(2)": ("GF(2)*GF(4)",),
    "Z(4)*T(2)": ("Z(4)*GF(2)", "D(2)*GF(2)"),
    "D(2)*T(2)": ("Z(4)*GF(2)", "D(2)*GF(2)"),
}


def test_identification_does_not_depend_on_labels():
    catalog = DEFAULT_CATALOG + ("GF(3)", "GF(4)", "GF(2)*GF(4)", "Z(4)*GF(2)", "D(2)*GF(2)")
    for spec, expected in RELABELLED_MATCHES.items():
        ring = construct(spec)
        for seed in (1, 2, 3):
            relabelled = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
            result = identify_condensate(compute_line(relabelled), catalog=catalog)
            assert result.matches == expected, (spec, seed)


def test_condensate_distant_sizes(ternion_line, catalog_lines, gf3_t2_line):
    for line in (ternion_line, catalog_lines["GF(2)*T(2)"], gf3_t2_line):
        assert condensate_distant_analysis(condense(line)) == 3
    assert condensate_distant_analysis(reference_structure("GF(2)")) == 3
    with pytest.raises(EmptyStructure):
        condensate_distant_analysis(condense(catalog_lines["GF(2)"]))


def test_distant_analysis_needs_the_zero_class():
    # no vertex of a synthetic structure holds the zero vector (0, 0)
    structure = _from_signatures(({0, 1}, {0}, {1}), 2)
    with pytest.raises(EmptyStructure, match="zero vector"):
        condensate_distant_analysis(structure)


def test_condensate_distant_size_matches_networkx(catalog_lines, gf3_t2_line, amphibian16):
    # condensed points are distant when their class sets share only the
    # class holding the zero vector; the graph is built from the edges alone
    lines = [*catalog_lines.values(), gf3_t2_line, compute_line(amphibian16)]
    checked = 0
    for line in lines:
        structure = condense(line)
        if structure.is_empty:
            continue
        zero = next(i for i, vc in enumerate(structure.vertices) if (0, 0) in vc.members)
        edges = [set(e) - {zero} for e in structure.edges]
        adjacency = [
            [j for j, other in enumerate(edges) if j != i and not edge & other] for i, edge in enumerate(edges)
        ]
        assert condensate_distant_analysis(structure) == oracles.nx_maximum_cliques(adjacency)[0], line.ring.label
        checked += 1
    assert checked == 4  # T(2), GF(2)*T(2), GF(3)*T(2), amphibian16


def test_unimodular_to_nonunimodular_ratio_is_six(ternion_line, catalog_lines, gf3_t2_line):
    for line in (ternion_line, catalog_lines["GF(2)*T(2)"], gf3_t2_line):
        assert len(line.unimodular_points) == 6 * len(line.nonunimodular_points)


def test_amphibian16_breaks_the_pattern(amphibian16):
    # order-16, 12 zero divisors, but its condensate is not a catalog line,
    # its sector ratio is 4, and its condensed distant size collapses to 1
    line = compute_line(amphibian16)
    assert (len(line.unimodular_points), len(line.nonunimodular_points)) == (36, 9)
    result = identify_condensate(line)
    assert result.status == "no catalog match"
    structure = result.condensate
    sizes = sorted(len(vc.members) for vc in structure.vertices)
    assert sizes == [1] * 16 + [4] * 12
    assert condensate_distant_analysis(structure) == 1
    from ringline import cross_sector_check, max_distant_cliques

    assert cross_sector_check(line) == (True, None)
    assert all(len(c) == 3 for c in max_distant_cliques(line, "unimodular"))
