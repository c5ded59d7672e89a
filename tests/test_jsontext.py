import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from ringline import jsontext
from ringline.cli import main

# One character of each kind the encoder escapes differently: ASCII, quotes
# and backslashes, control characters, non-ASCII in and beyond the BMP, and
# a lone surrogate.
TEXT = st.text(st.sampled_from('a0 "\\/\b\f\n\r\t\x00\x1f\x7f\xff\u2028\ud800é€😀'))

VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.lists(st.integers(), max_size=3), max_size=3)
        | st.dictionaries(TEXT, inner, max_size=5)
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(VALUES)
def test_dumps_writes_what_json_dumps_writes(value):
    assert jsontext.dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_refuses_what_it_does_not_lay_out():
    for value in (1.5, {1: 2}, {"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            jsontext.dumps(value)


CATALOG = "GF(2),Z(4),D(2),Z(6),GF(2)*GF(2),GF(2)*GF(3),GF(3),GF(4),GF(2)*GF(4),GF(2)*GF(5),Z(4)*GF(2),D(2)*GF(2)"


@pytest.mark.parametrize("argv", [
    ["ring", "info", "T(2)"],
    ["ring", "info", "Z(40)"],  # ideal census n/a: null
    ["ring", "info", f"file:{DATA / 'amphibian16.ring'}"],
    ["ring", "validate", str(DATA / "amphibian16.ring")],
    ["ring", "validate", str(DATA / "ternions8_line.json")],  # invalid
    ["line", "compute", "T(2)"],
    ["line", "compute", "GF(2)*GF(2)"],  # empty non-unimodular sector
    ["condense", "T(2)"],
    ["condense", "GF(3)*T(2)", "--catalog", CATALOG],
    ["condense", "GF(5)"],  # empty condensate
    ["table2", "--ring-b", str(DATA / "amphibian16.ring")],
    ["table2"],
])
def test_every_json_document_is_laid_out_as_json_dumps(argv, capsys):
    main([*argv, "--json"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_fixture_file_is_laid_out_as_json_dumps(tmp_path, capsys):
    assert main(["line", "compute", "GF(3)*T(2)", "--fixtures", str(tmp_path)]) == 0
    capsys.readouterr()
    (fixture,) = tmp_path.iterdir()
    text = fixture.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
