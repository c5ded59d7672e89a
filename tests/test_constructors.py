import re

import pytest

import oracles
from conftest import CATALOG_SPECS
from ringline import (
    BadInput,
    bundled_ring_path,
    construct,
    load_ring_file,
    write_ring_file,
)
from ringline.cli import main

TERNION_ADD = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 6, 7, 5, 4, 2, 3),
    (2, 6, 0, 4, 3, 7, 1, 5),
    (3, 7, 4, 0, 2, 6, 5, 1),
    (4, 5, 3, 2, 0, 1, 7, 6),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 2, 1, 5, 7, 3, 0, 4),
    (7, 3, 5, 1, 6, 2, 4, 0),
)
TERNION_MUL = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7),
    (0, 2, 1, 3, 7, 5, 6, 4),
    (0, 3, 5, 3, 6, 5, 6, 0),
    (0, 4, 4, 0, 4, 0, 0, 4),
    (0, 5, 3, 3, 0, 5, 6, 6),
    (0, 6, 6, 0, 6, 0, 0, 6),
    (0, 7, 7, 0, 7, 0, 0, 7),
)


def test_bundled_file_reproduces_tables_digit_for_digit(ternions8):
    assert ternions8.add_table == TERNION_ADD
    assert ternions8.mul_table == TERNION_MUL


def test_ternions_have_expected_counts():
    # T(7), of order 343, is in reach because validation is O(n^2 log n)
    for q, order, units in ((2, 8, 2), (3, 27, 12), (5, 125, 80), (7, 343, 252)):
        ring = construct(f"T({q})")
        assert ring.order == q**3 == order
        assert len(ring.units) == (q - 1) ** 2 * q == units
        assert len(ring.zero_divisors) == q**3 - q * (q - 1) ** 2
        assert not ring.is_commutative
        assert ring.label == f"T({q})"


def test_integers_mod_examples():
    z4 = construct("Z(4)")
    assert z4.order == 4
    assert z4.units == {1, 3}
    assert z4.is_commutative


def test_fields_have_all_nonzero_units():
    for q in (2, 3, 4, 5, 7):
        field = construct(f"GF({q})")
        assert field.order == q
        assert field.units == frozenset(range(1, q))
        assert field.zero_divisors == {0}


def test_gf4_is_characteristic_two_field():
    gf4 = construct("GF(4)")
    for a in gf4.elements():
        assert gf4.add(a, a) == 0
    # x * (x + 1) = 1 in the bitmask encoding
    assert gf4.mul(2, 3) == 1


def test_dual_numbers():
    d2 = construct("D(2)")
    assert d2.order == 4
    assert len(d2.units) == 2
    d3 = construct("D(3)")
    assert d3.order == 9
    assert len(d3.units) == 6  # a + bx invertible iff a != 0


def test_identity_sits_at_index_one_after_construction():
    for spec in ("T(2)", "T(3)", "D(2)", "GF(2)*T(2)", "Z(4)*Z(4)", "GF(4)"):
        ring = construct(spec)
        for x in ring.elements():
            assert ring.mul(1, x) == x == ring.mul(x, 1)
            assert ring.add(0, x) == x


def test_product_counts():
    ring = construct("GF(2)*T(2)")
    assert ring.order == 16
    assert len(ring.units) == 2
    assert len(ring.zero_divisors) == 14
    assert ring.label == "GF(2)*T(2)"
    triple = construct("GF(2)*GF(2)*GF(2)")
    assert triple.order == 8
    assert len(triple.units) == 1


def test_spec_whitespace_is_tolerated():
    ring = construct(" GF(2) * T(2) ")
    assert ring.label == "GF(2)*T(2)"


@pytest.mark.parametrize(
    "bad",
    ["", "T(2", "Q(3)", "T(2)**GF(2)", "*GF(2)", "GF(2)*", "Z()", "file:"],
)
def test_parse_errors(bad):
    with pytest.raises(BadInput, match=r"^(bad ring spec( term)? '|file: spec needs a path$)"):
        construct(bad)


def test_unsupported_fields():
    for bad in ("GF(6)", "GF(9)", "T(6)", "D(8)"):
        with pytest.raises(BadInput, match=rf"^{re.escape(bad)} is not supported; q must be one of \(2, 3, 4, 5, 7\)$"):
            construct(bad)


@pytest.mark.parametrize("term", ["GF(6)", "D(1)", "T(6)"])
def test_unsupported_field_names_the_written_term(capsys, term):
    with pytest.raises(BadInput, match=rf"^{re.escape(term)} is not supported"):
        construct(term)
    assert main(["ring", "info", f"Z(2)*{term}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {term} is not supported; q must be one of ")


def test_z_of_one_rejected():
    with pytest.raises(BadInput, match=r"^Z\(1\) is not a ring with 1 != 0; n must be at least 2$"):
        construct("Z(1)")


def test_missing_file():
    with pytest.raises(BadInput, match="^cannot read ring file /nonexistent/thing.ring: "):
        construct("file:/nonexistent/thing.ring")


def test_file_round_trip(tmp_path, ternions8):
    target = tmp_path / "out.ring"
    write_ring_file(target, ternions8)
    back = load_ring_file(target)
    assert back.add_table == ternions8.add_table
    assert back.mul_table == ternions8.mul_table
    assert back.label == f"file:{target}"


def test_malformed_files(tmp_path):
    cases = {
        "empty.ring": ("", "expected a 'ring <n>' header line"),
        "header.ring": ("add\n0 1\n1 0\n", "expected a 'ring <n>' header line"),
        "rows.ring": ("ring 2\nadd\n0 1\nmul\n0 0\n0 1\n", "expected 7 content lines, found 6"),
        "marker.ring": ("ring 2\n0 1\n1 0\n0 1\nmul\n0 0\n0 1\n", "expected 'add' and 'mul' section markers"),
        "token.ring": ("ring 2\nadd\n0 x\n1 0\nmul\n0 0\n0 1\n", "non-integer entry in row 0: '0 x'"),
        "float.ring": ("ring 2\nadd\n0 1\n1 0\nmul\n0 0\n0 1.0\n", "non-integer entry in row 1: '0 1.0'"),
        "width.ring": ("ring 2\nadd\n0 1 1\n1 0\nmul\n0 0\n0 1\n", "row 0 has 3 entries, expected 2"),
        "short.ring": ("ring 2\nadd\n0 1\n1 0\nmul\n0 0\n1\n", "row 1 has 1 entries, expected 2"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(BadInput) as caught:
            load_ring_file(path)
        assert str(caught.value) == f"{path}: {message}", name


def test_entries_that_are_not_labels_are_read_by_int(tmp_path):
    # a token outside the labels 0..n-1 is read by int(): padded or signed
    # labels give the same ring, an out-of-range entry the same violation
    path = tmp_path / "tokens.ring"
    path.write_text("ring 2\nadd\n00 +1\n1 0\nmul\n0 0\n0 01\n")
    ring = load_ring_file(path)
    assert (ring.add_table, ring.mul_table) == (((0, 1), (1, 0)), ((0, 0), (0, 1)))
    for entry, witness in (("2", ("mul", 1, 1)), ("-1", ("mul", 1, 1))):
        path.write_text(f"ring 2\nadd\n0 1\n1 0\nmul\n0 0\n0 {entry}\n")
        with pytest.raises(BadInput) as caught:
            load_ring_file(path)
        assert (caught.value.kind, caught.value.witness) == ("closure", witness)


def test_undecodable_file(tmp_path):
    path = tmp_path / "latin1.ring"
    path.write_bytes(b"# caf\xe9\nring 2\nadd\n0 1\n1 0\nmul\n0 0\n0 1\n")
    with pytest.raises(BadInput, match="cannot read ring file"):
        load_ring_file(path)


def test_negative_and_zero_header_orders(tmp_path):
    negative = tmp_path / "negative.ring"
    negative.write_text("ring -1\n")
    with pytest.raises(BadInput, match="malformed header"):
        load_ring_file(negative)
    zero = tmp_path / "zero.ring"
    zero.write_text("ring 0\nadd\nmul\n")
    with pytest.raises(BadInput, match=r"^a ring needs 1 != 0, so the order must be at least 2$"):
        load_ring_file(zero)


def test_header_is_exactly_ring_and_order(tmp_path):
    tables = "add\n0 1\n1 0\nmul\n0 0\n0 1\n"
    for header, message in (
        ("ring 2 junk", "malformed header"),
        ("ring 2 3", "malformed header"),
        ("ring x", "malformed header 'ring x'"),
        ("foo 2", "expected a 'ring <n>' header line"),
    ):
        path = tmp_path / "header.ring"
        path.write_text(f"{header}\n{tables}")
        with pytest.raises(BadInput, match=message):
            load_ring_file(path)
    path.write_text(f"  ring   2  \n{tables}")
    assert load_ring_file(path).order == 2


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "commented.ring"
    path.write_text(
        "# a comment\n\nring 2\nadd\n0 1\n1 0\n# between sections\nmul\n0 0\n0 1\n"
    )
    ring = load_ring_file(path)
    assert ring.order == 2


def test_bundled_path_exists():
    assert bundled_ring_path().exists()
    with pytest.raises(BadInput, match="^cannot read ring file .*missing"):
        load_ring_file(bundled_ring_path("missing"))


@pytest.mark.parametrize("spec", CATALOG_SPECS + (
    "T(3)", "T(4)", "T(5)", "D(7)", "GF(7)", "GF(3)*T(2)", "GF(4)*T(2)", "GF(5)*T(2)",
    "GF(7)*T(2)", "Z(4)*T(2)", "D(2)*T(2)", "T(2)*T(2)", "GF(2)*GF(2)*GF(4)",
    "D(4)", "D(5)", "T(7)", "Z(2)", "Z(3)", "Z(16)",
))
def test_named_rings_follow_the_documented_labelling(spec):
    # every CLI output is printed in these labels
    ring = construct(spec)
    add, mul = oracles.named_tables(spec)
    assert ring.add_table == tuple(map(tuple, add))
    assert ring.mul_table == tuple(map(tuple, mul))
