import json
import random
from itertools import product

import pytest

import golden
import oracles
import ringline.line
from ringline import (
    SECTORS,
    BadInput,
    TooLarge,
    compute_line,
    construct,
    cyclic_submodule,
    is_unimodular,
    line_to_dict,
    line_to_json,
    unimodularity_witness,
    validate_tables,
)
from ringline.geometry import sector_incidence
from ringline.line import mask_indices
from conftest import COMMUTATIVE_SPECS, DATA


def test_axis_point(ternions8):
    point = cyclic_submodule(ternions8, (1, 0))
    assert set(point.orbit) == {(a, 0) for a in range(8)}
    assert point.free and point.unimodular
    assert point.generators == ((1, 0), (2, 0))
    assert point.generator == (1, 0)


def test_zero_vector_orbit(ternions8):
    point = cyclic_submodule(ternions8, (0, 0))
    assert point.orbit == ((0, 0),)
    assert not point.free and not point.unimodular


def test_non_free_orbit(ternions8):
    point = cyclic_submodule(ternions8, (3, 6))
    assert len(point.orbit) < 8
    assert not point.free
    # two scalars hit the same image, so the orbit map is not injective
    images = [(ternions8.mul(a, 3), ternions8.mul(a, 6)) for a in ternions8.elements()]
    assert len(set(images)) < 8


def test_unimodularity_witnesses(ternions8):
    assert unimodularity_witness(ternions8, (1, 0)) == (1, 0)
    assert not is_unimodular(ternions8, (4, 6))
    assert is_unimodular(ternions8, (4, 3))


def _relabelled(spec, seed):
    ring = construct(spec)
    tables = oracles.relabelled(ring.add_table, ring.mul_table, seed)
    return validate_tables(*tables, label=f"{spec} relabelled {seed}")


def test_witness_is_lexicographically_least(ternions8, catalog, amphibian16):
    # against the double loop over (x1, x2) in lexicographic order
    rings = (ternions8, *catalog.values(), amphibian16, _relabelled("GF(3)*T(2)", 4))
    for ring in rings:
        add, mul = ring.add_table, ring.mul_table
        for r1, r2 in product(ring.elements(), repeat=2):
            expected = next(
                (
                    (x1, x2)
                    for x1, x2 in product(ring.elements(), repeat=2)
                    if add[mul[r1][x1]][mul[r2][x2]] == 1
                ),
                None,
            )
            assert unimodularity_witness(ring, (r1, r2)) == expected, (ring.label, r1, r2)


def _matrix_ring():
    return validate_tables(*oracles.matrix_gf2_tables(), label="M2(GF(2))")


def test_unimodularity_test_agrees_with_witness_and_brute_force(catalog, amphibian16):
    # the set test 1 in r1*R + r2*R, the witness search and the double loop
    for ring in (*catalog.values(), amphibian16, _matrix_ring()):
        add = [list(row) for row in ring.add_table]
        mul = [list(row) for row in ring.mul_table]
        for v in product(ring.elements(), repeat=2):
            expected = oracles.brute_unimodular(add, mul, v)
            assert is_unimodular(ring, v) == expected, (ring.label, v)
            assert (unimodularity_witness(ring, v) is not None) == expected, (ring.label, v)


def test_vector_bounds_checked(ternions8):
    with pytest.raises(ValueError):
        cyclic_submodule(ternions8, (8, 0))
    with pytest.raises(ValueError):
        unimodularity_witness(ternions8, (0, -1))
    with pytest.raises(ValueError):
        is_unimodular(ternions8, (0, 8))


def test_scan_checks_each_point_once(monkeypatch):
    # the walk tests each point's sector once, at its canonical generator,
    # and builds the point with that verdict; its vectors need no range check
    checked, tested = [], []
    real_check, real_test = ringline.line._check_vector, ringline.line._unimodular

    def counted_check(ring, vector):
        checked.append(vector)
        return real_check(ring, vector)

    def counted_test(ring, r1, r2):
        tested.append((r1, r2))
        return real_test(ring, r1, r2)

    monkeypatch.setattr(ringline.line, "_check_vector", counted_check)
    monkeypatch.setattr(ringline.line, "_unimodular", counted_test)
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    for spec in ("T(2)", "Z(4)*GF(2)", "GF(3)*T(2)", "GF(7)*T(2)"):
        del checked[:], tested[:]
        points = compute_line(construct(spec)).points
        assert checked == [], spec
        assert sorted(tested) == sorted(p.generator for p in points), spec
    # GF(7)*T(2) read in both sectors: one test per point, where testing
    # again inside each build would make 336
    assert len(tested) == 168


def test_unimodular_implies_free_everywhere(catalog):
    for spec, ring in catalog.items():
        for r1 in ring.elements():
            for r2 in ring.elements():
                point = cyclic_submodule(ring, (r1, r2))
                assert point.free == (len(point.orbit) == ring.order)
                if is_unimodular(ring, (r1, r2)):
                    assert point.free, (spec, (r1, r2))
                assert (0, 0) in point.orbit


def test_generators_match_brute_force(catalog, amphibian16):
    # the unit multiples of a vector are exactly the vectors that regenerate
    # its orbit, non-free orbits included
    for ring in (*catalog.values(), amphibian16):
        mul = [list(row) for row in ring.mul_table]
        for r1 in ring.elements():
            for r2 in ring.elements():
                expected = tuple(oracles.brute_generators(mul, (r1, r2)))
                assert cyclic_submodule(ring, (r1, r2)).generators == expected, (ring.label, r1, r2)


def test_every_orbit_matches_brute_force(catalog, amphibian16):
    # every vector of R^2, free or not: the non-free ones take the
    # deduplicating path, and their orbits have fewer than |R| vectors
    for ring in (*catalog.values(), amphibian16):
        mul = [list(row) for row in ring.mul_table]
        for v in product(ring.elements(), repeat=2):
            expected = tuple(sorted(oracles.brute_orbit(mul, v)))
            assert cyclic_submodule(ring, v).orbit == expected, (ring.label, v)


def test_incidence_matches_brute_force(catalog, amphibian16):
    # each sector's code index: the code of each vector of R^2 lying on some
    # point, mapped to the bitmask of the points (by position) whose
    # brute-force orbit holds it, on the named tables and relabelled ones
    named = (*catalog.values(), amphibian16)
    relabelled = (validate_tables(*oracles.relabelled(r.add_table, r.mul_table, 4), label=r.label) for r in named)
    for ring in (*named, *relabelled):
        n, line = ring.order, compute_line(ring)
        mul = [list(row) for row in ring.mul_table]
        for sector in SECTORS:
            data = sector_incidence(line, sector)
            expected = oracles.incidence(oracles.brute_orbit(mul, p.generator) for p in data.points)
            assert {divmod(code, n): mask for code, mask in data.masks.items()} == expected, (ring.label, sector)


def test_mask_indices():
    assert mask_indices(0) == ()
    for mask in range(1, 1 << 10):
        assert mask_indices(mask) == tuple(i for i in range(10) if mask >> i & 1)
    assert mask_indices(1 << 500 | 1 << 3) == (3, 500)
    rng = random.Random(9)
    for density in (0.01, 0.5, 0.99):
        mask = sum(1 << i for i in range(1600) if rng.random() < density)
        assert mask_indices(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_ternion_line_counts(ternion_line):
    assert len(ternion_line.unimodular_points) == 18
    assert len(ternion_line.nonunimodular_points) == 3
    assert all(p.free for p in ternion_line.points)


def test_golden_orbits_match(ternion_line):
    computed = {frozenset(p.orbit): p for p in ternion_line.points}
    for sector, pair, orbit in golden.points():
        point = computed.pop(frozenset(orbit))
        assert point.generators == tuple(sorted(pair))
        assert point.generator == min(pair)
        assert ("unimodular" if point.unimodular else "nonunimodular") == sector
    assert not computed  # nothing beyond the 21 golden points


def test_line_dict_matches_committed_fixture(ternion_line):
    with open(DATA / "ternions8_line.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    computed = line_to_dict(ternion_line)
    assert computed["schema"] == fixture["schema"] == "ringline.line/1"
    assert computed["points"] == fixture["points"]


def test_orbits_are_deduplicated(catalog_lines):
    for line in catalog_lines.values():
        orbits = [frozenset(p.orbit) for p in line.points]
        assert len(orbits) == len(set(orbits))


def test_point_order_is_sorted_and_stable(ternions8, ternion_line):
    gens = [p.generator for p in ternion_line.points]
    assert gens == sorted(gens)
    again = compute_line(ternions8)
    assert line_to_json(again) == line_to_json(ternion_line)


def test_field_line_counts(catalog_lines):
    # a field line has q + 1 points, all unimodular
    for q in (2, 3, 4, 5):
        line = catalog_lines[f"GF({q})"]
        assert len(line.unimodular_points) == q + 1
        assert not line.nonunimodular_points


def test_z4_line_against_untyped_brute_force(catalog, catalog_lines):
    ring = catalog["Z(4)"]
    uni, non = oracles.brute_line_sectors(
        [list(r) for r in ring.add_table], [list(r) for r in ring.mul_table]
    )
    line = catalog_lines["Z(4)"]
    assert {frozenset(p.orbit) for p in line.unimodular_points} == uni
    assert len(uni) == 6 and not non


def test_product_line_counts(catalog_lines, gf3_t2_line):
    line = catalog_lines["GF(2)*T(2)"]
    assert (len(line.unimodular_points), len(line.nonunimodular_points)) == (54, 9)
    assert (len(gf3_t2_line.unimodular_points), len(gf3_t2_line.nonunimodular_points)) == (72, 12)


def test_product_sectors_match_brute_force(catalog, catalog_lines):
    ring = catalog["GF(2)*T(2)"]
    uni, non = oracles.brute_line_sectors(
        [list(r) for r in ring.add_table], [list(r) for r in ring.mul_table]
    )
    line = catalog_lines["GF(2)*T(2)"]
    assert {frozenset(p.orbit) for p in line.unimodular_points} == uni
    assert {frozenset(p.orbit) for p in line.nonunimodular_points} == non


def test_commutative_rings_have_no_nonunimodular_points():
    for spec in COMMUTATIVE_SPECS:
        ring = construct(spec)
        assert ring.is_commutative, spec
        assert ring.order <= 16, spec
        line = compute_line(ring)
        assert not line.nonunimodular_points, spec


def test_point_lookup(ternion_line):
    point = oracles.point_for(ternion_line, (2, 0))
    assert point.generator == (1, 0)
    with pytest.raises(KeyError):
        oracles.point_for(ternion_line, (3, 6))
    # every vector: the point whose orbit equals the vector's orbit, and
    # KeyError exactly for the vectors whose orbit is not free
    for line in (ternion_line, compute_line(construct("Z(4)*Z(4)"))):
        mul = [list(row) for row in line.ring.mul_table]
        by_orbit = {frozenset(p.orbit): p for p in line.points}
        for v in product(line.ring.elements(), repeat=2):
            orbit = oracles.brute_orbit(mul, v)
            if len(orbit) == line.ring.order:
                assert oracles.point_for(line, v) is by_orbit[orbit], (line.ring.label, v)
            else:
                with pytest.raises(KeyError):
                    oracles.point_for(line, v)


@pytest.mark.parametrize("spec", ["T(3)", "D(4)", "Z(16)", "Z(4)*Z(4)"])
def test_sweep_matches_brute_force_on_relabelled_tables(spec):
    # many unit classes of these rings are not free
    ring = _relabelled(spec, 7)
    add = [list(row) for row in ring.add_table]
    mul = [list(row) for row in ring.mul_table]
    uni, non = oracles.brute_line_sectors(add, mul)
    line = compute_line(ring)
    assert {frozenset(p.orbit) for p in line.unimodular_points} == uni
    assert {frozenset(p.orbit) for p in line.nonunimodular_points} == non
    for points in (line.unimodular_points, line.nonunimodular_points):
        assert [p.generator for p in points] == sorted(p.generator for p in points)
    for point in line.points:
        assert point.generator == oracles.brute_generators(mul, point.generator)[0]


@pytest.mark.parametrize(
    "spec, seed",
    [
        (spec, seed)
        for seed in (None, 3, 11)
        for spec in ("Z(4)*Z(4)", "D(2)*T(2)", "amphibian16", "M2(GF(2))")
    ]
    + [("GF(7)*T(2)", 5), ("T(4)", 5)],
    ids=str,
)
def test_scan_matches_brute_force_point_by_point(spec, seed, amphibian16, monkeypatch):
    # Z(4)*Z(4) and D(2)*T(2) have many non-free unit classes; amphibian16
    # and M2(GF(2)) are non-commutative, so a scan that multiplies on the
    # wrong side fails; GF(7)*T(2) and T(4) are the largest rings the
    # benchmark scans
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    rings = {"amphibian16": amphibian16, "M2(GF(2))": _matrix_ring()}
    ring = rings[spec] if spec in rings else construct(spec)
    if seed is not None:
        tables = oracles.relabelled(ring.add_table, ring.mul_table, seed)
        ring = validate_tables(*tables, label=f"{spec} relabelled {seed}")
    add = [list(row) for row in ring.add_table]
    mul = [list(row) for row in ring.mul_table]
    expected = []
    uni, non = oracles.brute_line_sectors(add, mul)
    for sector, orbits in (("unimodular", uni), ("nonunimodular", non)):
        for orbit in orbits:
            generators = tuple(sorted(w for w in orbit if oracles.brute_orbit(mul, w) == orbit))
            expected.append((generators[0], tuple(sorted(orbit)), generators, sector))
    expected.sort()
    line = compute_line(ring)
    computed = [
        (p.generator, p.orbit, p.generators, "unimodular" if p.unimodular else "nonunimodular")
        for p in line.points
    ]
    assert computed == expected
    assert all(p.free for p in line.points)
    assert [p.generator for p in line.unimodular_points] == [e[0] for e in expected if e[3] == "unimodular"]
    assert [p.generator for p in line.nonunimodular_points] == [e[0] for e in expected if e[3] == "nonunimodular"]


@pytest.mark.parametrize("spec", ["T(2)", "Z(4)*Z(4)", "GF(3)*T(2)"])
def test_sweep_builds_each_free_unit_class_once(monkeypatch, spec):
    # one point build per free unit class, at its least member, and none
    # for a vector whose orbit is not free
    ring = construct(spec)
    mul = [list(row) for row in ring.mul_table]
    classes = {
        tuple(oracles.brute_generators(mul, v))
        for v in product(ring.elements(), repeat=2)
        if len(oracles.brute_orbit(mul, v)) == ring.order
    }
    calls = []
    real = ringline.line._submodule

    def counted(ring, r1, r2, free, unimodular):
        calls.append((r1, r2))
        return real(ring, r1, r2, free, unimodular)

    monkeypatch.setattr(ringline.line, "_submodule", counted)
    compute_line(ring).points
    assert len(calls) == len(classes)
    assert {min(c) for c in classes} == set(calls)


def _eager_sectors(ring):
    """Both sectors as a scan of every vector in code order builds them."""
    seen, sectors = set(), {True: [], False: []}
    for v in product(ring.elements(), repeat=2):
        point = cyclic_submodule(ring, v)
        if point.free and v not in seen:
            seen.update(point.generators)
            sectors[point.unimodular].append(point)
    return tuple(sectors[True]), tuple(sectors[False])


@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("spec", ["T(2)", "Z(4)*Z(4)", "GF(3)*T(2)", "D(2)*T(2)", "amphibian16"])
def test_sectors_read_in_either_order_match_the_eager_scan(spec, seed, amphibian16):
    ring = amphibian16 if spec == "amphibian16" else construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    # a point compares by its fields, the generator and its classification;
    # the orbit and the generators, derived on read, are compared explicitly
    def read(points):
        return [(p, p.orbit, p.generators) for p in points]

    expected = tuple(map(read, _eager_sectors(ring)))
    assert expected[0]
    first_unimodular = compute_line(ring)
    assert (read(first_unimodular.unimodular_points), read(first_unimodular.nonunimodular_points)) == expected
    first_nonunimodular = compute_line(ring)
    assert read(first_nonunimodular.nonunimodular_points) == expected[1]
    assert read(first_nonunimodular.unimodular_points) == expected[0]


@pytest.mark.parametrize("read", ["unimodular_points", "nonunimodular_points", "points"])
def test_a_sector_read_builds_only_its_own_points_once(monkeypatch, read):
    built = []
    real = ringline.line._submodule

    def counted(*args):
        point = real(*args)
        built.append(point)
        return point

    monkeypatch.setattr(ringline.line, "_submodule", counted)
    tested = []
    real_test = ringline.line._unimodular
    monkeypatch.setattr(ringline.line, "_unimodular", lambda *args: tested.append(args[1:]) or real_test(*args))
    line = compute_line(construct("GF(3)*T(2)"))
    assert built == []
    points = getattr(line, read)
    assert sorted(built) == sorted(points)  # each point read, once, and no other
    # the other sector, read later, is built once from the kept generators
    points = line.points
    assert sorted(built) == list(points)
    # one walk, for both sectors, tests each class once, at its canonical generator
    assert tested == [p.generator for p in points]


def test_order_bound_is_checked_before_any_sector_is_read(monkeypatch):
    built = []
    monkeypatch.setattr(ringline.line, "_submodule", lambda *args: built.append(args))
    monkeypatch.delenv("RINGLINE_MAX_ORDER", raising=False)
    ring = construct("Z(33)")
    with pytest.raises(TooLarge):
        compute_line(ring)
    assert built == [] and vars(ring).keys().isdisjoint({"left_annihilators", "unit_multiples"})


def test_order_bound_and_overrides(monkeypatch):
    ring = construct("Z(33)")
    monkeypatch.delenv("RINGLINE_MAX_ORDER", raising=False)
    with pytest.raises(TooLarge, match=r"^line computation is bounded to order 32 \(ring has order 33\); set RINGLINE"):
        compute_line(ring)
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "33")
    line = compute_line(ring)
    assert len(line.unimodular_points) > 0
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "40")
    assert compute_line(ring).unimodular_points == line.unimodular_points
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "not-a-number")
    with pytest.raises(BadInput, match="^RINGLINE_MAX_ORDER must be an integer, got 'not-a-number'$"):
        compute_line(ring)


def test_no_mixed_generator_classification(catalog):
    # the point is classified by its canonical generator; every other
    # generator must agree
    for ring in catalog.values():
        for r1 in ring.elements():
            for r2 in ring.elements():
                point = cyclic_submodule(ring, (r1, r2))
                for g in point.generators:
                    assert is_unimodular(ring, g) == point.unimodular, (ring.label, g)
