import random
from itertools import permutations, product

import pytest

import oracles
from conftest import ORDER_16_SPECS
from ringline import (
    BadInput,
    TooLarge,
    are_isomorphic,
    construct,
    enumerate_ideals,
    ideal_size_census,
    validate_tables,
)
from ringline.rings import _additive_generators, _holds_on_generators

Z2_ADD = [[0, 1], [1, 0]]
Z2_MUL = [[0, 0], [0, 1]]


def test_z2_valid():
    ring = validate_tables(Z2_ADD, Z2_MUL, label="Z2")
    assert ring.order == 2
    assert ring.units == {1}
    assert ring.zero_divisors == {0}
    assert ring.is_commutative


def test_ternions8_tables(ternions8):
    assert ternions8.order == 8
    assert ternions8.units == {1, 2}
    assert len(ternions8.zero_divisors) == 6
    assert not ternions8.is_commutative
    assert ternions8.add(3, 5) == 6
    assert ternions8.mul(3, 2) == 5
    assert ternions8.mul(2, 3) == 3  # non-commutative pair


def test_units_and_zero_divisors_partition_everywhere(catalog, amphibian16):
    # the units are read as the elements with a right inverse; the oracle
    # asks for a two-sided one, and the non-commutative rings (M2(GF(2)),
    # amphibian16, T(2) under a relabelling) would tell them apart
    t2 = catalog["T(2)"]
    rings = [
        *catalog.values(),
        validate_tables(*oracles.matrix_gf2_tables(), label="M2(GF(2))"),
        amphibian16,
        validate_tables(*oracles.relabelled(t2.add_table, t2.mul_table, 5)),
    ]
    for ring in rings:
        assert ring.units & ring.zero_divisors == frozenset()
        assert ring.units | ring.zero_divisors == frozenset(ring.elements())
        assert ring.units == frozenset(oracles.brute_units(ring.mul_table))
        nonzero = range(1, ring.order)
        assert all(any(ring.mul(x, z) == 0 for z in nonzero) for x in ring.zero_divisors), ring.label


def test_subset_multiples_are_the_multiplication_table_by_column(catalog):
    # columns[r][k] = x_k*r, x ascending over the subset (0 first among the
    # zero divisors), and scaled[r][k] = n*(x_k*r)
    relabelled = [oracles.relabelled(r.add_table, r.mul_table, seed) for r in catalog.values() for seed in (3, 11)]
    for ring in [*catalog.values(), *(validate_tables(*tables) for tables in relabelled)]:
        n = ring.order
        for (scaled, columns), subset in (
            (ring.unit_multiples, ring.units),
            (ring.zero_divisor_multiples, ring.zero_divisors),
        ):
            expected = tuple(tuple(ring.mul(x, r) for x in sorted(subset)) for r in range(n))
            assert columns == expected, ring.label
            assert scaled == tuple(tuple(n * y for y in column) for column in expected), ring.label


def test_tables_of_other_entries_are_read_through_int():
    # int tuples are kept as they are; lists, bools and floats are copied
    # through int(), so every table entry is an int
    add, mul = ((0, 1), (1, 0)), ((0, 0), (0, 1))
    for table_add, table_mul in (
        (add, mul),
        ([[0, 1], [1, 0]], [[0, 0], [0, 1]]),
        (((0, True), (1, 0)), ((0, 0), (False, 1))),
        (((0, 1.0), (1, 0)), mul),
    ):
        ring = validate_tables(table_add, table_mul)
        assert (ring.add_table, ring.mul_table) == (add, mul)
        assert {type(x) for table in (ring.add_table, ring.mul_table) for row in table for x in row} == {int}
        assert all(type(row) is tuple for row in ring.add_table + ring.mul_table)


def test_constructed_rings_pass_independent_axiom_scan(catalog):
    for spec, ring in catalog.items():
        failure = oracles.axiom_failure(ring.add_table, ring.mul_table)
        assert failure is None, f"{spec}: {failure}"


def test_neg_is_additive_inverse(catalog):
    for ring in catalog.values():
        for a in ring.elements():
            assert ring.add_table[a].count(0) == 1
            assert ring.add_table[ring.add_table[a].index(0)][a] == 0


def test_corrupted_mul_entry_reports_witness(ternions8):
    mul = [list(row) for row in ternions8.mul_table]
    assert mul[3][2] == 5
    mul[3][2] = 4
    with pytest.raises(BadInput) as err:
        validate_tables(ternions8.add_table, mul)
    # reported as the independent scan over (a, b, c) in order reports it
    expected = oracles.axiom_failure(ternions8.add_table, mul)
    assert (err.value.kind, err.value.witness) == expected


TRIPLE_AXIOMS = (
    "additive_associativity",
    "multiplicative_associativity",
    "left_distributivity",
    "right_distributivity",
)


def _mutant(add, mul, rng):
    """A copy of the tables with one or two entries changed.

    Add entries change in symmetric pairs off row and column 0, and mul
    entries off row and column 1, so both identities and additive
    commutativity survive and most mutants reach the triple axioms.
    """
    add, mul = [list(row) for row in add], [list(row) for row in mul]
    n = len(add)
    for _ in range(rng.choice((1, 2))):
        if rng.random() < 0.5:
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            add[i][j] = add[j][i] = rng.choice([v for v in range(n) if v != add[i][j]])
        else:
            i, j = (rng.choice([k for k in range(n) if k != 1]) for _ in range(2))
            mul[i][j] = rng.choice([v for v in range(n) if v != mul[i][j]])
    return add, mul


def test_generator_proof_agrees_with_full_scan_on_mutants(catalog):
    rng = random.Random(11)
    rings = [(ring.add_table, ring.mul_table) for ring in catalog.values()]
    rings += [oracles.relabelled(add, mul, seed) for add, mul in rings for seed in (3, 11)]
    large = [(ring.add_table, ring.mul_table) for ring in map(construct, ("GF(3)*T(2)", "Z(4)*T(2)"))]
    cases = rings + [_mutant(*rng.choice(rings), rng) for _ in range(1200)]
    cases += [_mutant(*rng.choice(large), rng) for _ in range(30)]
    verdicts = []
    for add, mul in cases:
        expected = oracles.axiom_failure(add, mul)
        if expected is not None and expected[0] not in TRIPLE_AXIOMS:
            with pytest.raises(BadInput) as err:
                validate_tables(add, mul)
            assert (err.value.kind, err.value.witness) == expected
            continue
        proof = _holds_on_generators(tuple(map(tuple, add)), tuple(map(tuple, mul)))
        assert proof == (expected is None), (add, mul, expected)
        verdicts.append(proof)
        if expected is None:
            validate_tables(add, mul)
            continue
        with pytest.raises(BadInput) as err:
            validate_tables(add, mul)
        assert (err.value.kind, err.value.witness) == expected
    assert len(verdicts) >= 1000 and verdicts.count(True) >= len(rings)


def test_generator_proof_agrees_with_full_scan_on_mutants_off_the_generators(catalog):
    # left distributivity is checked only for left factors in the greedy
    # generating set, so corrupt only rows mul[a] with a outside it
    rng = random.Random(5)
    rings = [(ring.add_table, ring.mul_table) for ring in catalog.values()]
    rings += [oracles.relabelled(add, mul, seed) for add, mul in rings for seed in (3, 11)]
    rings += [(ring.add_table, ring.mul_table) for ring in map(construct, ("GF(3)*T(2)", "Z(4)*T(2)"))]
    verdicts = []
    for _ in range(600):
        add, mul = rng.choice(rings)
        n = len(add)
        gens = _additive_generators(tuple(map(tuple, add)))
        rows = [a for a in range(n) if a not in gens and a != 1]
        mul = [list(row) for row in mul]
        for _ in range(rng.choice((1, 2))):
            i, j = rng.choice(rows), rng.choice([k for k in range(n) if k != 1])
            mul[i][j] = rng.choice([v for v in range(n) if v != mul[i][j]])
        expected = oracles.axiom_failure(add, mul)
        proof = _holds_on_generators(tuple(map(tuple, add)), tuple(map(tuple, mul)))
        assert proof == (expected is None), (add, mul, expected)
        verdicts.append(proof)
        if expected is None:
            validate_tables(add, mul)
            continue
        with pytest.raises(BadInput) as err:
            validate_tables(add, mul)
        assert (err.value.kind, err.value.witness) == expected
    assert verdicts.count(False) >= 500


def test_near_ring_fails_only_left_distributivity():
    # the maps of Z3 fixing 0, added pointwise and multiplied by composition:
    # every ring axiom but left distributivity holds, so only that check
    # of the proof can refuse them
    maps = [(0, 0, 0), (0, 1, 2)] + [(0, *f) for f in product(range(3), repeat=2) if f not in ((0, 0), (1, 2))]
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((f[x] + g[x]) % 3 for x in range(3))] for g in maps] for f in maps]
    mul = [[index[tuple(f[g[x]] for x in range(3))] for g in maps] for f in maps]
    expected = oracles.axiom_failure(add, mul)
    assert expected[0] == "left_distributivity"
    assert not _holds_on_generators(tuple(map(tuple, add)), tuple(map(tuple, mul)))
    with pytest.raises(BadInput) as err:
        validate_tables(add, mul)
    assert (err.value.kind, err.value.witness) == expected


def test_addition_that_is_no_group_skips_the_proof():
    # x + y = 0 for all nonzero x, y: commutative, with identity and inverses,
    # but each generator adds only itself to the closure
    add = [[y if x == 0 else x if y == 0 else 0 for y in range(5)] for x in range(5)]
    mul = construct("GF(5)").mul_table
    assert _additive_generators(tuple(map(tuple, add))) is None
    with pytest.raises(BadInput) as err:
        validate_tables(add, mul)
    assert (err.value.kind, err.value.witness) == oracles.axiom_failure(add, mul)


def test_additive_identity_must_sit_at_zero():
    # Z2 with the labels 0 and 1 swapped: identity lands at index 1.
    add = [[1, 0], [0, 1]]
    mul = [[1, 1], [1, 0]]
    with pytest.raises(BadInput) as err:
        validate_tables(add, mul)
    assert err.value.kind == "additive_identity"


def test_multiplicative_identity_must_sit_at_one():
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mul = [[0] * 4 for _ in range(4)]
    with pytest.raises(BadInput, match=r"^no two-sided multiplicative identity at index 1 \(element 1 misbehaves\)$"):
        validate_tables(add, mul)


def test_order_one_rejected():
    with pytest.raises(BadInput, match=r"^a ring needs 1 != 0, so the order must be at least 2$"):
        validate_tables([[0]], [[0]])


def test_non_commutative_addition_rejected():
    add = [[0, 1], [0, 1]]
    with pytest.raises(BadInput) as err:
        validate_tables(add, Z2_MUL)
    assert err.value.kind in ("additive_identity", "additive_commutativity")
    # the symmetric group S3, identity at 0, is a group but not an abelian one
    perms = list(permutations(range(3)))
    s3 = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
    with pytest.raises(BadInput) as err:
        validate_tables(s3, construct("Z(6)").mul_table)
    assert err.value.kind == "additive_commutativity"


def test_tables_of_different_sizes_rejected():
    with pytest.raises(BadInput) as err:
        validate_tables(Z2_ADD, construct("GF(3)").mul_table)
    assert (err.value.kind, err.value.witness) == ("shape", ("mul", 2))


def test_ragged_table_rejected():
    # a short row fails the table's own shape check, before add and mul are compared
    add = [[0, 1, 2], [1, 2], [2, 0, 1]]
    with pytest.raises(BadInput) as err:
        validate_tables(add, construct("GF(3)").mul_table)
    assert (err.value.kind, err.value.witness) == ("shape", ("add", 1))


# ---------------------------------------------------------------- ideals


def test_ideals_match_subset_scan_on_tiny_rings(catalog):
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "Z(4)", "Z(6)", "Z(8)", "D(2)", "T(2)"):
        ring = catalog[spec]
        expected = oracles.all_ideals_by_subsets(ring.add_table, ring.mul_table)
        got = set(enumerate_ideals(ring))
        assert got == expected, spec


def test_ideal_examples(catalog):
    assert sorted(map(len, enumerate_ideals(catalog["Z(4)"]))) == [1, 2, 4]
    assert sorted(map(len, enumerate_ideals(catalog["GF(2)"]))) == [1, 2]


def test_ternion_ideal_lattice(ternions8):
    ideals = enumerate_ideals(ternions8)
    assert [tuple(sorted(i)) for i in ideals] == [
        (0,),
        (0, 6),
        (0, 3, 5, 6),
        (0, 4, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert ideal_size_census(ternions8) == {1: 1, 2: 1, 4: 2, 8: 1}


def test_product_ring_ideals_are_products(catalog):
    ring = catalog["GF(2)*T(2)"]
    ideals = enumerate_ideals(ring)
    # two-sided ideals of a direct product are products of ideals: 2 * 5
    assert len(ideals) == 10
    sizes = sorted(map(len, ideals))
    assert sizes == [1, 2, 2, 4, 4, 4, 8, 8, 8, 16]
    for ideal in ideals:
        assert oracles.is_two_sided_ideal(ring.add_table, ring.mul_table, ideal)


def test_matrix_ring_is_simple():
    # M2(GF(2)) has one-sided ideals that are not two-sided; its only
    # two-sided ideals are {0} and the ring
    ring = validate_tables(*oracles.matrix_gf2_tables())
    ideals = enumerate_ideals(ring)
    assert ideal_size_census(ring) == {1: 1, 16: 1}
    assert all(oracles.is_two_sided_ideal(ring.add_table, ring.mul_table, ideal) for ideal in ideals)


def test_ideal_enumeration_order_bound(monkeypatch):
    ring = construct("Z(33)")
    monkeypatch.delenv("RINGLINE_MAX_ORDER", raising=False)
    with pytest.raises(TooLarge, match=r"^ideal enumeration is bounded to order 32, got 33; set RINGLINE_MAX_ORDER"):
        enumerate_ideals(ring)
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "33")
    # Z(33) = Z(3) x Z(11): its ideals are the four products of ideals
    assert ideal_size_census(ring) == {1: 1, 3: 1, 11: 1, 33: 1}


# ----------------------------------------------------------- isomorphism


def _check_witness(ring_a, ring_b, witness):
    for a in ring_a.elements():
        for b in ring_a.elements():
            assert witness[ring_a.add(a, b)] == ring_b.add(witness[a], witness[b])
            assert witness[ring_a.mul(a, b)] == ring_b.mul(witness[a], witness[b])


def test_constructed_ternions_isomorphic_to_table(ternions8, catalog):
    witness = are_isomorphic(catalog["T(2)"], ternions8)
    assert witness is not None
    assert witness[0] == 0 and witness[1] == 1
    _check_witness(catalog["T(2)"], ternions8, witness)


def test_z4_not_isomorphic_to_klein_ring(catalog):
    assert are_isomorphic(catalog["Z(4)"], catalog["GF(2)*GF(2)"]) is None


def test_z4_not_isomorphic_to_dual_numbers(catalog):
    assert are_isomorphic(catalog["Z(4)"], catalog["D(2)"]) is None


def test_crt_isomorphism(catalog):
    witness = are_isomorphic(catalog["Z(6)"], catalog["GF(2)*GF(3)"])
    assert witness is not None
    _check_witness(catalog["Z(6)"], catalog["GF(2)*GF(3)"], witness)


def test_isomorphism_reflexive_and_symmetric(catalog):
    rings = [catalog[s] for s in ("GF(4)", "Z(4)", "D(2)", "T(2)", "GF(2)*GF(3)")]
    for ring in rings:
        identity = are_isomorphic(ring, ring)
        assert identity == tuple(range(ring.order))
    for left in rings:
        for right in rings:
            forward = are_isomorphic(left, right)
            backward = are_isomorphic(right, left)
            assert (forward is None) == (backward is None)


def _brute_isomorphism(ring_a, ring_b):
    return oracles.brute_isomorphism(
        ring_a.add_table, ring_a.mul_table, ring_b.add_table, ring_b.mul_table
    )


def test_isomorphism_matches_brute_force(catalog):
    # verdict and least witness against all (n-2)! bijections fixing 0 and 1
    small = {spec: ring for spec, ring in catalog.items() if ring.order <= 9}
    for spec, ring in small.items():
        for seed in (3, 11):
            relabelled = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
            witness = are_isomorphic(ring, relabelled)
            assert witness is not None, spec
            assert witness == _brute_isomorphism(ring, relabelled), spec
    for left, right in permutations(small, 2):
        if small[left].order == small[right].order:
            expected = _brute_isomorphism(small[left], small[right])
            assert are_isomorphic(small[left], small[right]) == expected, (left, right)


def test_isomorphism_order_bound():
    big = construct("Z(17)")
    with pytest.raises(TooLarge, match=r"^isomorphism search is bounded to order 16$"):
        are_isomorphic(big, big)
    # unequal orders need no search, so the bound does not apply to them
    small = construct("GF(2)")
    assert are_isomorphic(big, small) is None and are_isomorphic(small, big) is None


def test_order_16_candidates_are_found_relabelled_and_pairwise_distinct(amphibian16):
    # 225 searches over the 14 named order-16 candidates and amphibian16
    # (about 0.15 s on a shared 2-vCPU host): each against its relabelled copy,
    # then every ordered pair of distinct rings
    rings = {spec: construct(spec) for spec in ORDER_16_SPECS}
    rings["amphibian16"] = amphibian16
    for left, ring in rings.items():
        copy = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, 7))
        witness = are_isomorphic(ring, copy)
        assert witness is not None and witness[:2] == (0, 1), left
        _check_witness(ring, copy, witness)
        for right, other in rings.items():
            if right != left:
                assert are_isomorphic(ring, other) is None, (left, right)


def test_amphibian16_is_not_the_product_ring(amphibian16, catalog):
    assert amphibian16.order == 16
    assert len(amphibian16.units) == 4
    assert len(amphibian16.zero_divisors) == 12
    assert not amphibian16.is_commutative
    assert are_isomorphic(amphibian16, catalog["GF(2)*T(2)"]) is None
    # size fingerprint that separates it from the product ring's {2: 2}
    assert ideal_size_census(amphibian16) == {1: 1, 2: 3, 4: 1, 8: 2, 16: 1}
