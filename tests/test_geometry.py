import json
from collections import Counter, defaultdict
from itertools import combinations
from math import prod
from types import SimpleNamespace

import pytest

import golden
import oracles
import ringline.cliques
import ringline.geometry
from ringline import (
    SECTORS,
    BadInput,
    CyclicSubmodule,
    NoAnswer,
    ProjectiveLine,
    compute_line,
    construct,
    cross_sector_check,
    cyclic_submodule,
    export_graph,
    max_distant_cliques,
    max_neighbour_cliques,
    private_vectors,
    product,
    relation,
    sector_points,
    unimodular_partition,
    validate_tables,
)
from ringline.cli import build_line_report, render_line_report
from ringline.cliques import cliques_through, expand, maximum_size
from ringline.geometry import sector_clique_size, sector_cliques, sector_incidence


def test_relation_examples(ternion_line):
    p10 = oracles.point_for(ternion_line, (1, 0))
    p11 = oracles.point_for(ternion_line, (1, 1))
    p16 = oracles.point_for(ternion_line, (1, 6))
    n46 = oracles.point_for(ternion_line, (4, 6))
    n47 = oracles.point_for(ternion_line, (4, 7))
    assert relation(p10, p11) == "distant"
    assert relation(p10, p16) == "neighbour"
    assert relation(n46, n47) == "neighbour"
    with pytest.raises(BadInput, match=r"^relation of point R\(1, 0\) with itself \(pass allow_same=True"):
        relation(p10, p10)
    assert relation(p10, p10, allow_same=True) == "neighbour"


def test_relation_refuses_points_over_two_rings_and_non_free_submodules(catalog_lines):
    # codes of one ring name other vectors over another, and only a free
    # submodule's unit multiples lie on it alone; raises, so python -O checks them too
    t10 = oracles.point_for(catalog_lines["T(2)"], (1, 0))
    z10 = oracles.point_for(catalog_lines["Z(4)"], (1, 0))
    with pytest.raises(BadInput, match=r"^R\(1, 0\) over T\(2\) and R\(1, 0\) over Z\(4\): not one ring$"):
        relation(t10, z10)
    with pytest.raises(BadInput, match=r"^R\(1, 0\) over Z\(4\) and R\(1, 0\) over T\(2\): not one ring$"):
        relation(z10, t10, allow_same=True)
    torsion = cyclic_submodule(z10.ring, (2, 0))  # {(0, 0), (2, 0)}, inside R(1, 0)
    assert not torsion.free
    for p, q in ((torsion, z10), (z10, torsion)):
        with pytest.raises(BadInput, match=r"^R\(2, 0\) is not free, so it is no point of a line$"):
            relation(p, q)


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("spec", ["T(2)", "Z(4)*T(2)", "GF(3)*T(2)", "Z(4)*Z(4)", "D(3)*GF(2)"])
def test_relation_knows_a_point_from_any_of_its_generators(spec, seed, monkeypatch):
    # q is p exactly when the two have one canonical generator, whichever
    # generator of p builds q
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    for p in compute_line(ring).points:
        for g in p.generators:
            q = cyclic_submodule(ring, g)
            with pytest.raises(BadInput, match=r"^relation of point R\(.+ with itself \(pass allow_same=True"):
                relation(p, q)
            assert relation(p, q, allow_same=True) == "neighbour"


def test_relation_is_symmetric_and_total(catalog_lines):
    for line in catalog_lines.values():
        for p, q in combinations(line.points, 2):
            forward = relation(p, q)
            assert forward in ("distant", "neighbour")
            assert forward == relation(q, p)


def test_relation_matches_golden_orbit_intersections(ternion_line):
    by_orbit = {frozenset(p.orbit): p for p in ternion_line.points}
    entries = [(frozenset(orbit), sector) for sector, _, orbit in golden.points()]
    for (oa, _), (ob, _) in combinations(entries, 2):
        expected = "distant" if len(oa & ob) == 1 else "neighbour"
        assert relation(by_orbit[oa], by_orbit[ob]) == expected


def _generators(cliques):
    return {frozenset(p.generator for p in c) for c in cliques}


def test_ternion_max_distant_cliques(ternion_line):
    cliques = max_distant_cliques(ternion_line, "unimodular")
    assert all(len(c) == 3 for c in cliques)
    assert len(cliques) == 48
    assert frozenset({(1, 0), (1, 1), (0, 1)}) in _generators(cliques)
    # narrated completion: after R(1,0) and R(1,1), only two third points work
    thirds = sorted(
        next(iter(c - {(1, 0), (1, 1)}))
        for c in _generators(cliques)
        if {(1, 0), (1, 1)} <= c
    )
    assert thirds == [(0, 1), (6, 1)]


def test_ternion_max_neighbour_cliques(ternion_line):
    cliques = max_neighbour_cliques(ternion_line, "unimodular")
    assert all(len(c) == 6 for c in cliques)
    colour = {frozenset(cls) for cls in golden.COLOUR_CLASSES}
    assert colour <= _generators(cliques)


def test_nonunimodular_sector_cliques(ternion_line):
    distant = max_distant_cliques(ternion_line, "nonunimodular")
    assert all(len(c) == 1 for c in distant) and len(distant) == 3
    neighbour = max_neighbour_cliques(ternion_line, "nonunimodular")
    assert len(neighbour) == 1 and len(neighbour[0]) == 3


def test_whole_line_cliques(ternion_line):
    distant = max_distant_cliques(ternion_line, "whole")
    assert all(len(c) == 3 for c in distant) and len(distant) == 48
    neighbour = max_neighbour_cliques(ternion_line, "whole")
    # each unimodular neighbour class extends by the whole other sector
    assert all(len(c) == 9 for c in neighbour)


def test_field_line_cliques(catalog_lines):
    line = catalog_lines["GF(2)"]
    distant = max_distant_cliques(line, "unimodular")
    assert len(distant) == 1 and len(distant[0]) == 3
    neighbour = max_neighbour_cliques(line, "unimodular")
    assert all(len(c) == 1 for c in neighbour) and len(neighbour) == 3
    with pytest.raises(NoAnswer, match=r"^the nonunimodular sector of GF\(2\) is empty$"):
        max_distant_cliques(line, "nonunimodular")


def test_z4_neighbour_cliques_by_brute_force(catalog_lines):
    line = catalog_lines["Z(4)"]
    points = line.unimodular_points
    # exhaustive scan over all subsets of the six points
    neighbour_sets = []
    for size in range(1, 7):
        for subset in combinations(range(6), size):
            if all(
                len(set(points[i].orbit) & set(points[j].orbit)) > 1
                for i, j in combinations(subset, 2)
            ):
                neighbour_sets.append(set(subset))
    best = max(len(s) for s in neighbour_sets)
    expected = {frozenset(s) for s in neighbour_sets if len(s) == best}
    cliques = max_neighbour_cliques(line, "unimodular")
    got = {frozenset(points.index(p) for p in c) for c in cliques}
    assert best == 2 and got == expected and len(got) == 3


def test_cliques_against_networkx(ternion_line, catalog_lines):
    for line, sector in (
        (ternion_line, "unimodular"),
        (ternion_line, "whole"),
        (catalog_lines["GF(2)*T(2)"], "unimodular"),
    ):
        points = sector_points(line, sector)
        for kind, ours in (
            ("neighbour", max_neighbour_cliques(line, sector)),
            ("distant", max_distant_cliques(line, sector)),
        ):
            size, expected = oracles.nx_maximum_cliques(oracles.relation_adjacency(points, kind))
            got = {frozenset(points.index(p) for p in c) for c in ours}
            assert size == len(ours[0])
            assert got == expected


@pytest.mark.parametrize("spec, fields", [
    ("T(2)", [2, 2]),
    ("T(3)", [3, 3]),
    ("T(4)", [4, 4]),
    ("GF(3)*T(2)", [3, 2, 2]),
    ("GF(7)*T(2)", [7, 2, 2]),
    ("T(2)*T(2)", [2, 2, 2, 2]),
    ("Z(4)", [2]),
    ("D(3)", [3]),
    ("GF(2)*GF(3)", [2, 3]),
])
def test_unimodular_cliques_match_the_radical_image(spec, fields, monkeypatch):
    # networkx is too slow on these; the counts follow from R/J instead
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)
    expected = oracles.radical_image_cliques(ring, fields)
    line = compute_line(ring)
    assert len(line.unimodular_points) == expected["unimodular"]
    for kind, search in (("distant", max_distant_cliques), ("neighbour", max_neighbour_cliques)):
        cliques = search(line, "unimodular")
        assert (len(cliques[0]), len(cliques)) == expected[kind], kind
    # the distant twin classes are the fibres over P(R/J), and the kernel's
    # classes (point indices) are these
    fibres = oracles.distant_twin_classes(line.unimodular_points)
    assert (len(fibres), {len(f) for f in fibres}) == (expected["fibres"][0], {expected["fibres"][1]})
    points = line.unimodular_points
    classes = {
        frozenset(points[i].generator for i in cls)
        for clique in sector_cliques(line, "unimodular", "distant")
        for cls in clique
    }
    assert classes == fibres


def kernel_calls(monkeypatch) -> list[tuple[int | None, bool]]:
    """The (root, ties) of every search the clique kernel runs from now on."""
    calls, kernel = [], ringline.cliques._search

    def counted(rows, root, ties):
        calls.append((root, ties))
        return kernel(rows, root, ties)

    monkeypatch.setattr(ringline.cliques, "_search", counted)
    return calls


@pytest.mark.parametrize("spec, seed", [
    ("T(2)", None),
    ("GF(3)*T(2)", None),
    ("T(3)", None),
    ("GF(7)*T(2)", None),
    ("T(4)", None),
    ("T(2)*T(2)", None),
    ("GF(3)*T(2)", 3),
    ("T(3)", 1),
    ("T(2)*T(2)", 2),
])
def test_cliques_through_point_0_give_every_count_and_the_least_clique(spec, seed, monkeypatch):
    # GL2(R) acts transitively on the unimodular points and keeps both
    # relations, so each point lies on as many maximum cliques as point 0,
    # and the least maximum clique holds point 0
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    line = compute_line(ring)
    points = line.unimodular_points
    calls = kernel_calls(monkeypatch)
    for kind in ("distant", "neighbour"):
        listed = expand(sector_cliques(line, "unimodular", kind))
        size, through = cliques_through(sector_incidence(line, "unimodular").rows(kind), 0)
        assert size == len(listed[0]) == sector_clique_size(line, kind)
        assert tuple(part[0] for part in through[0]) == listed[0]
        count = sum(prod(map(len, clique[1:])) for clique in through)
        assert count == sum(1 for clique in listed if clique[0] == 0)
        assert len(points) * count == len(listed) * size
        if kind == "distant" and spec != "T(2)*T(2)":  # its vector classes overlap: no partition
            del calls[:]
            part = unimodular_partition(line)
            assert calls == [(0, True)]  # one search, through point 0
            assert part.anchors == tuple(points[i] for i in listed[0])
            assert part.anchor_sets_checked == len(listed)


LADDER = ("T(2)", "GF(3)*T(2)", "T(3)", "GF(7)*T(2)", "T(4)", "T(2)*T(2)")


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("spec", LADDER)
def test_unimodular_sizes_through_point_0_are_the_whole_sector_sizes(spec, seed, monkeypatch):
    # sector_clique_size searches the unimodular sector through point 0
    # only; the whole-sector size-only search must give the same size
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    line = compute_line(ring)
    calls = kernel_calls(monkeypatch)
    sizes = {kind: sector_clique_size(line, kind) for kind in ("distant", "neighbour")}
    assert calls == [(0, False), (0, False)]  # one size-only search per relation, through point 0
    for kind in sizes:
        assert sizes[kind] == maximum_size(sector_incidence(line, "unimodular").rows(kind)), kind


# The 26 specs the partition was first checked on, then M2(GF(2)) and its
# products with MATRIX_FACTORS, whose R/J has a matrix factor; named and
# relabelled with seeds 1 and 2, the partition stands in 69 cases and is
# refuted in 24.
CERTIFIED = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)", "D(2)", "D(3)",
    "T(2)", "T(3)", "T(4)", "GF(2)*GF(2)", "GF(2)*GF(3)", "GF(2)*T(2)", "GF(3)*T(2)", "GF(4)*T(2)",
    "GF(5)*T(2)", "GF(7)*T(2)", "Z(4)*T(2)", "D(2)*T(2)", "T(2)*T(2)", "Z(4)*Z(4)",
)
MATRIX_FACTORS = ("GF(2)", "GF(3)", "GF(4)", "Z(4)")


def test_standing_partition_certifies_both_unimodular_sizes(monkeypatch):
    # The theorem in unimodular_partition's docstring: on every finite ring
    # the maximum unimodular distant size times the neighbour size is |U|,
    # pinned against the kernel, refuted partitions and matrix factors of
    # R/J included; the report's two sizes are the kernel's.  A standing
    # partition of k classes of b points gives k and b.  About 0.5 s on a
    # 2-vCPU host, construction included.
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    m2 = validate_tables(*oracles.matrix_gf2_tables(), label="M2(GF(2))")
    outcomes = Counter()
    for named in (*map(construct, CERTIFIED), m2, *(product(m2, construct(spec)) for spec in MATRIX_FACTORS)):
        for seed in (None, 1, 2):
            ring = named if seed is None else validate_tables(*oracles.relabelled(named.add_table, named.mul_table, seed))
            case = (named.label, seed)
            report = build_line_report(ring)
            line = report.line
            kernel = {kind: sector_clique_size(line, kind) for kind in ("distant", "neighbour")}
            assert kernel["distant"] * kernel["neighbour"] == len(line.unimodular_points), case
            assert report.max_distant["unimodular"] == kernel["distant"], case
            assert report.max_neighbour["unimodular"] == kernel["neighbour"], case
            sizes = report.partition_class_sizes
            if sizes is None:
                assert report.partition_failure is not None, case
                outcomes["refuted"] += 1
                continue
            assert (len(sizes), set(sizes)) == (kernel["distant"], {kernel["neighbour"]}), case
            outcomes["standing"] += 1
    assert outcomes == {"standing": 69, "refuted": 24}


def test_matrix_ring_line_is_twin_free_with_the_classical_cliques():
    # Over M2(GF(2)) the points are the 35 lines of PG(3,2), distant when
    # skew: the maximum distant cliques are the 56 spreads, the maximum
    # neighbour cliques the 15 stars and 15 planes of 7 lines.  No two
    # points are twins of either kind, so the search runs on the colouring
    # bound alone.
    ring = validate_tables(*oracles.matrix_gf2_tables(), label="M2(GF(2))")
    line = compute_line(ring)
    assert (len(line.unimodular_points), len(line.nonunimodular_points)) == (35, 0)
    graph = sector_incidence(line, "unimodular").graph
    for kind, rows, size, count in (
        ("distant", graph.distant(), 5, 56),
        ("neighbour", graph.neighbours, 7, 30),
    ):
        assert len(set(rows)) == len({row | 1 << v for v, row in enumerate(rows)}) == 35
        cliques = sector_cliques(line, "unimodular", kind)
        assert (len(cliques[0]), len(cliques)) == (size, count)
        nx_size, nx_best = oracles.nx_maximum_cliques(oracles.relation_adjacency(line.unimodular_points, kind))
        assert (nx_size, {frozenset(c) for c in expand(cliques)}) == (size, nx_best)
    lines = render_line_report(build_line_report(ring)).splitlines()
    assert "partition: n/a (point R(0, 1) lies in two maximal vector classes)" in lines
    assert "condensate: empty" in lines


def test_ternion_partition(ternion_line):
    part = unimodular_partition(ternion_line)
    assert part.class_sizes == (6, 6, 6)
    assert [p.generator for p in part.anchors] == [(0, 1), (1, 0), (1, 1)]
    assert part.anchor_sets_checked == 48
    got = {frozenset(p.generator for p in cls) for cls in part.classes}
    assert got == {frozenset(cls) for cls in golden.COLOUR_CLASSES}
    # each class contains its anchor
    for anchor, cls in zip(part.anchors, part.classes):
        assert anchor in cls


def test_partition_classes_are_maximum_neighbour_cliques(ternion_line):
    part = unimodular_partition(ternion_line)
    cliques = _generators(max_neighbour_cliques(ternion_line, "unimodular"))
    for cls in part.classes:
        assert frozenset(p.generator for p in cls) in cliques


def test_ternion_distant_degree_regularity(ternion_line):
    part = unimodular_partition(ternion_line)
    class_of = {}
    for index, cls in enumerate(part.classes):
        for p in cls:
            class_of[p.generator] = index
    points = ternion_line.unimodular_points
    adjacency = oracles.relation_adjacency(points, "distant")
    for i, point in enumerate(points):
        partners = [points[j].generator for j in adjacency[i]]
        assert len(partners) == 8
        per_class = [0, 0, 0]
        for gen in partners:
            per_class[class_of[gen]] += 1
        assert per_class[class_of[point.generator]] == 0
        assert sorted(per_class) == [0, 4, 4]


def test_field_partition_is_singletons(catalog_lines):
    part = unimodular_partition(catalog_lines["GF(2)"])
    assert part.class_sizes == (1, 1, 1)


def test_z4_partition(catalog_lines):
    part = unimodular_partition(catalog_lines["Z(4)"])
    assert part.class_sizes == (2, 2, 2)


def test_gf3_field_line_partition_has_four_singleton_classes(catalog_lines):
    part = unimodular_partition(catalog_lines["GF(3)"])
    assert part.class_sizes == (1, 1, 1, 1)
    assert len(part.anchors) == 4


def test_gf3_ternion_partition(gf3_t2_line):
    part = unimodular_partition(gf3_t2_line)
    assert part.class_sizes == (24, 24, 24)
    assert part.anchor_sets_checked == 1152


def test_klein_product_line_has_no_partition(catalog_lines):
    with pytest.raises(NoAnswer, match=r"^point R\(0, 1\) lies in two maximal vector classes$"):
        unimodular_partition(catalog_lines["GF(2)*GF(2)"])


def fake(generator, orbit, unimodular=True):
    """A point whose orbit and generators are seeded by hand, as if already read."""
    point = CyclicSubmodule(generator=generator, free=True, unimodular=unimodular, ring=None)
    vars(point).update(orbit=tuple(sorted(orbit)), generators=(generator,))
    return point


def fake_line(unimodular_points, nonunimodular_points):
    """A line whose two sectors are seeded by hand, as if already read.

    Its stand-in ring has only the zero-divisor multiples the shared-vector
    index reads, made so that each point's Z*v is its orbit without its
    generator, the zero first.  Code r1*8 + r2 stands for (r1, r2); each
    point has its own second component, which alone picks its row.
    """
    multiples = {}
    for point in unimodular_points + nonunimodular_points:
        assert point.generator[1] not in multiples
        multiples[point.generator[1]] = tuple(8 * a + b for a, b in point.orbit if (a, b) not in point.generators)
    width = max(map(len, multiples.values()))
    ring = SimpleNamespace(
        label="fake",
        zero_divisor_multiples=(defaultdict(lambda: (0,) * width), multiples),
    )
    line = ProjectiveLine(ring=ring)
    vars(line).update(unimodular_points=unimodular_points, nonunimodular_points=nonunimodular_points)
    return line


def test_partition_rejects_point_in_no_class():
    # three pairwise-distant points plus one sharing a vector with two of
    # them cannot be split by most-shared vectors
    zero = (0, 0)
    points = (
        fake((1, 1), {zero, (1, 1), (5, 5)}),
        fake((2, 2), {zero, (2, 2), (5, 5)}),
        fake((3, 3), {zero, (3, 3), (6, 6)}),
        fake((4, 4), {zero, (4, 4), (7, 7)}),
    )
    line = fake_line(points, ())
    with pytest.raises(NoAnswer, match=r"^point R\(3, 3\) lies in no maximal vector class$"):
        unimodular_partition(line)


def test_cross_sector(ternion_line, catalog_lines, gf3_t2_line):
    assert cross_sector_check(ternion_line) == (True, None)
    assert cross_sector_check(catalog_lines["GF(2)*T(2)"]) == (True, None)
    assert cross_sector_check(gf3_t2_line) == (True, None)
    with pytest.raises(NoAnswer, match=r"^GF\(2\): both sectors must be non-empty for the cross check$"):
        cross_sector_check(catalog_lines["GF(2)"])
    # the witness is the first non-unimodular point with a distant
    # unimodular point, and the first such unimodular point
    zero = (0, 0)
    uni = (
        fake((1, 1), {zero, (1, 1), (2, 2)}),
        fake((1, 3), {zero, (1, 3), (2, 6)}),
        fake((1, 5), {zero, (1, 5), (2, 7)}),
    )
    non = (
        fake((4, 4), {zero, (4, 4), (2, 2), (2, 6), (2, 7)}, unimodular=False),
        fake((4, 6), {zero, (2, 6), (4, 6)}, unimodular=False),
    )
    line = fake_line(uni, non)
    assert cross_sector_check(line) == (False, (non[1], uni[0]))


# Rings with non-unimodular points, then four without: named and relabelled
# with seed 2, 26 cases have a non-unimodular sector and 8 have none.
PROOF_SWEEP = (
    "T(2)", "GF(3)*T(2)", "T(3)", "GF(7)*T(2)", "T(4)", "T(2)*T(2)", "T(5)", "D(2)*T(2)", "Z(4)*T(2)",
    "GF(2)*T(2)", "GF(4)*T(2)", "GF(5)*T(2)", "amphibian16", "Z(8)", "Z(4)*Z(4)", "D(3)*GF(2)", "M2(GF(2))",
)


def test_a_point_with_a_distant_partner_is_unimodular(amphibian16, monkeypatch):
    # The proof in cross_sector_check's docstring: the non-unimodular sector
    # is one neighbour clique, neighbour to every point, so the report's
    # non-unimodular sizes 1 and |N|, its cross verdict and its whole-line
    # sizes, omega_d(U) and omega_n(U) + |N|, are the listed cliques' and the
    # cross check's.  About 0.25 s on a 2-vCPU host.
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "128")  # T(5) has order 125
    outcomes = Counter()
    for spec in PROOF_SWEEP:
        if spec == "amphibian16":
            named = amphibian16
        elif spec == "M2(GF(2))":
            named = validate_tables(*oracles.matrix_gf2_tables(), label=spec)
        else:
            named = construct(spec)
        for seed in (None, 2):
            ring = named if seed is None else validate_tables(*oracles.relabelled(named.add_table, named.mul_table, seed))
            report = build_line_report(ring)
            line, n = report.line, len(report.line.nonunimodular_points)
            distant, neighbour = (sector_clique_size(line, kind) for kind in ("distant", "neighbour"))
            assert report.max_distant == {
                "unimodular": distant, "nonunimodular": 1 if n else None, "whole": distant}, (spec, seed)
            assert report.max_neighbour == {
                "unimodular": neighbour, "nonunimodular": n or None, "whole": neighbour + n}, (spec, seed)
            if not n:
                assert report.cross_sector_all_neighbour is None, (spec, seed)
                outcomes["empty"] += 1
                continue
            assert {len(c) for c in max_distant_cliques(line, "nonunimodular")} == {1}, (spec, seed)
            assert [len(c) for c in max_neighbour_cliques(line, "nonunimodular")] == [n], (spec, seed)
            assert cross_sector_check(line) == (True, None), (spec, seed)
            assert report.cross_sector_all_neighbour is True, (spec, seed)
            outcomes["nonempty"] += 1
    assert outcomes == {"nonempty": 26, "empty": 8}


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize(
    "spec", ["T(2)", "T(3)", "T(4)", "GF(3)*T(2)", "T(2)*T(2)", "Z(4)*Z(4)", "D(3)*GF(2)", "GF(7)", "amphibian16"]
)
def test_points_share_only_zero_divisor_multiples(spec, seed, amphibian16, monkeypatch):
    # a free vector lies on its own point alone, so the shared-vector index
    # (the nonzero Z*v of every point) is the full incidence without the
    # generators and the zero vector, and the code index is the full incidence
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = amphibian16 if spec == "amphibian16" else construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    n = ring.order
    mul = [list(row) for row in ring.mul_table]
    line = compute_line(ring)
    for sector in SECTORS:
        data = sector_incidence(line, sector)
        full = oracles.incidence(oracles.brute_orbit(mul, p.generator) for p in data.points)
        codes = {a * n + b: mask for (a, b), mask in full.items()}
        assert data.masks == codes, sector
        generators = {a * n + b for point in data.points for a, b in point.generators}
        assert data.shared == {code: mask for code, mask in codes.items() if code not in generators and code}, sector
        assert {code for code, mask in codes.items() if mask & (mask - 1) and code} <= data.shared.keys(), sector
        assert all(codes[code].bit_count() == 1 for code in generators), sector
        if sector != "whole":  # the rows read off ``shared``; test_cliques_against_networkx covers the whole
            rows = oracles.relation_adjacency(data.points, "neighbour")
            assert data.graph.neighbours == tuple(sum(1 << j for j in row) for row in rows), sector


@pytest.fixture(scope="module")
def report_rings(catalog, amphibian16):
    rings = {spec: construct(spec) for spec in ("GF(3)*T(2)", "T(3)")}
    rings["GF(2)*T(2)"], rings["amphibian16"] = catalog["GF(2)*T(2)"], amphibian16
    ring = rings["GF(3)*T(2)"]
    rings["GF(3)*T(2) relabelled"] = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, 5))
    return rings


def test_report_stages_equal_their_brute_force_forms(report_rings):
    # the stages that read the line's cached sector incidence, against
    # pairwise relations and fully listed cliques
    partitioned = 0
    for name, ring in report_rings.items():
        report = build_line_report(ring)
        line = report.line
        first = next(
            ((nu, u) for nu in line.nonunimodular_points for u in line.unimodular_points
             if relation(nu, u) == "distant"),
            None,
        )
        assert cross_sector_check(line) == (first is None, first), name
        try:
            part = unimodular_partition(line)
        except NoAnswer as exc:
            assert report.partition_class_sizes is report.partition_anchor_sets is None, name
            assert report.partition_failure == str(exc), name
            continue
        assert report.partition_anchor_sets == len(max_distant_cliques(line, "unimodular")), name
        assert report.partition_class_sizes == part.class_sizes, name
        assert report.partition_failure is None, name
        # the report reads both unimodular sizes off the standing partition
        distant = len(max_distant_cliques(line, "unimodular")[0])
        neighbour = len(max_neighbour_cliques(line, "unimodular")[0])
        assert report.max_distant["unimodular"] == distant == len(part.classes), name
        assert report.max_neighbour["unimodular"] == neighbour == part.class_sizes[0], name
        # the report's anchors: class minima of the least quotient clique
        assert part.anchors == max_distant_cliques(line, "unimodular")[0], name
        assert all(a in cls for a, cls in zip(part.anchors, part.classes)), name
        through = Counter(v for p in line.unimodular_points for v in p.orbit if v != (0, 0))
        best = max(through.values())
        shared = {
            frozenset(p for p in line.unimodular_points if v in p.orbit)
            for v, k in through.items() if k == best
        }
        assert shared == {frozenset(cls) for cls in part.classes}, name
        partitioned += 1
    assert partitioned >= 3


def test_private_vectors(ternion_line):
    uni = private_vectors(ternion_line, "unimodular")
    assert len(uni) == 18
    for point in ternion_line.unimodular_points:
        assert uni[point.generator] == point.generators
    non = private_vectors(ternion_line, "nonunimodular")
    for point in ternion_line.nonunimodular_points:
        mine = non[point.generator]
        assert len(mine) == 4
        assert set(point.generators) < set(mine)


@pytest.mark.parametrize("seed", [None, 3])
def test_private_vectors_are_the_vectors_on_one_point(seed, catalog, amphibian16):
    # point i's private vectors are the brute-force orbit vectors whose
    # point mask is bit i alone, ascending
    for name, ring in {**catalog, "amphibian16": amphibian16}.items():
        if seed is not None:
            ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
        mul = [list(row) for row in ring.mul_table]
        line = compute_line(ring)
        for sector in SECTORS:
            points = sector_points(line, sector)
            if not points:
                with pytest.raises(NoAnswer, match=r"sector of .* is empty$"):
                    private_vectors(line, sector)
                continue
            full = oracles.incidence(oracles.brute_orbit(mul, p.generator) for p in points)
            expected = {
                p.generator: tuple(sorted(v for v, mask in full.items() if mask == 1 << i))
                for i, p in enumerate(points)
            }
            assert private_vectors(line, sector) == expected, (name, seed, sector)


def test_private_vectors_of_an_empty_sector(catalog_lines):
    with pytest.raises(NoAnswer, match=r"^the nonunimodular sector of GF\(2\) is empty$"):
        private_vectors(catalog_lines["GF(2)"], "nonunimodular")


def test_export_dot(ternion_line):
    doc = export_graph(ternion_line, "unimodular", "dot")
    assert doc.startswith('graph "')
    assert doc.count("[weight=") == 58
    assert '"00" [weight=18];' in doc
    assert '"60" [weight=6];' in doc
    non = export_graph(ternion_line, "nonunimodular", "dot")
    assert non.count("[weight=") == 16
    assert non.count("[weight=3]") == 4  # the four common vectors
    whole = export_graph(ternion_line, "whole", "dot")
    assert whole.count("[weight=") == 64


def test_export_weights_match_golden_membership(ternion_line):
    doc = json.loads(export_graph(ternion_line, "unimodular", "json"))
    weights = {tuple(v["vector"]): v["weight"] for v in doc["vertices"]}
    counts = {}
    for sector, _, orbit in golden.points():
        if sector != "unimodular":
            continue
        for v in orbit:
            counts[v] = counts.get(v, 0) + 1
    assert weights == counts


def test_export_json_and_edges(ternion_line):
    doc = json.loads(export_graph(ternion_line, "nonunimodular", "json"))
    assert doc["schema"] == "ringline.graph/1"
    ids = {v["id"] for v in doc["vertices"]}
    assert len(ids) == 16
    for a, b in doc["edges"]:
        assert a in ids and b in ids
    # co-residence: every pair inside one orbit is an edge
    point_orbits = [set(map(tuple, p.orbit)) for p in ternion_line.nonunimodular_points]
    expected = set()
    for orbit in point_orbits:
        expected.update(
            tuple(sorted(pair)) for pair in combinations(sorted(orbit), 2)
        )
    got = {tuple(sorted(((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))))
           for a, b in doc["edges"]}
    assert got == expected


def test_export_empty_sector(catalog_lines):
    doc = export_graph(catalog_lines["GF(2)"], "nonunimodular", "dot")
    assert doc.count("[weight=") == 0
    parsed = json.loads(export_graph(catalog_lines["GF(2)"], "nonunimodular", "json"))
    assert parsed["vertices"] == [] and parsed["edges"] == []


@pytest.fixture(scope="module")
def export_lines():
    """An empty sector (GF(2)), ``a_b`` ids (Z(12)), order 40, many vectors
    shared by several points in both sectors (Z(4)*Z(4)), a relabelled
    GF(4)*T(2), and a relabelled T(3) whose label needs escaping in DOT and
    JSON."""
    rings = [construct(spec) for spec in ("T(2)", "GF(2)", "Z(12)", "GF(5)*T(2)", "Z(4)*Z(4)")]
    for spec, seed, label in (("GF(4)*T(2)", 3, "GF(4)*T(2) relabelled"), ("T(3)", 5, 'T(3) "relabelled"')):
        ring = construct(spec)
        rings.append(validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed), label=label))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RINGLINE_MAX_ORDER", "64")
        return [compute_line(ring) for ring in rings]


@pytest.fixture(scope="module")
def exports(export_lines):
    """Per line of ``export_lines`` and sector: its points' orbits, its JSON export parsed, and that document's graph."""
    import networkx as nx

    cases = []
    for line in export_lines:
        for sector in SECTORS:
            doc = json.loads(export_graph(line, sector, "json"))
            graph = nx.Graph(doc["edges"])
            graph.add_nodes_from(v["id"] for v in doc["vertices"])
            orbits = [p.orbit for p in sector_points(line, sector)]
            cases.append(SimpleNamespace(line=line, sector=sector, orbits=orbits, doc=doc, graph=graph))
    return cases


def test_export_equals_the_sorting_oracle(exports, export_lines):
    for case in exports:
        ring = case.line.ring
        want = oracles.export_documents(ring.label, ring.order, case.sector, case.orbits)
        for fmt in ("dot", "json"):
            assert export_graph(case.line, case.sector, fmt) == want[fmt], (ring.label, case.sector, fmt)
    relabelled = export_lines[-1]
    assert export_graph(relabelled, "whole", "dot").startswith('graph "T(3) \\"relabelled\\" whole" {\n')
    assert json.loads(export_graph(relabelled, "whole", "json"))["ring"] == 'T(3) "relabelled"'


def test_export_is_the_union_of_orbit_cliques(exports):
    import networkx as nx

    for case in exports:
        ids = {tuple(v["vector"]): v["id"] for v in case.doc["vertices"]}
        assert len(set(ids.values())) == len(ids)
        got = case.graph
        want = nx.Graph()
        for orbit in case.orbits:  # each orbit's clique
            want.add_nodes_from(ids[v] for v in orbit)
            want.add_edges_from(combinations([ids[v] for v in orbit], 2))
        assert set(got) == set(want)
        assert {frozenset(e) for e in got.edges} == {frozenset(e) for e in want.edges}
        weights = Counter(v for orbit in case.orbits for v in orbit)
        assert {tuple(v["vector"]): v["weight"] for v in case.doc["vertices"]} == weights


def test_export_gives_vectors_of_one_signature_one_closed_neighbourhood(exports):
    shared = 0
    for case in exports:
        signatures = oracles.incidence(case.orbits)
        twins = {}
        for v in case.doc["vertices"]:
            twins.setdefault(signatures[tuple(v["vector"])], []).append(v["id"])
        for members in twins.values():
            hoods = {frozenset(case.graph[i]) | {i} for i in members}
            assert len(hoods) == 1, (case.line.ring.label, case.sector, members)
            shared += len(members) > 1
    assert shared > 0


def test_export_reads_each_signature_once(monkeypatch, exports):
    calls = []
    real = ringline.geometry.mask_indices

    def counted(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(ringline.geometry, "mask_indices", counted)
    for case in exports:
        signatures = set(oracles.incidence(case.orbits).values())
        merged = sum(m & (m - 1) != 0 for m in signatures)  # a one-point signature reads its orbit as it is
        for fmt in ("dot", "json"):
            calls.clear()
            export_graph(case.line, case.sector, fmt)
            assert len(calls) == len(set(calls)) <= merged, (case.line.ring.label, case.sector, fmt)
            assert all(m & (m - 1) for m in calls), (case.line.ring.label, case.sector, fmt)


def test_export_unknown_format(ternion_line):
    with pytest.raises(BadInput, match=r"^unknown export format 'gml'; expected 'dot' or 'json'$"):
        export_graph(ternion_line, "whole", "gml")


def test_unknown_sector(ternion_line):
    with pytest.raises(ValueError):
        sector_points(ternion_line, "everything")
