"""End-to-end acceptance checks.

One test per numbered criterion (criterion 3 and 5 are split into parts);
each prints a PASS/FAIL line, visible with ``pytest -s`` or on failure.

Criterion 3b counts the maximum neighbour cliques of the order-8 ternion
line's unimodular sector: there are six, in two families of three.  The
ring has two maximal ideals, {0, 3, 5, 6} and {0, 4, 6, 7}, each with
quotient GF(2); reducing modulo both maps the 18 unimodular points two to
one onto the nine points of P(GF(2)) x P(GF(2)), and two points are
neighbour exactly when their images agree in at least one coordinate.
The three "rows" are the three colour classes, each through a common
triple of nonzero vectors; the three "columns" are a second partition of
the sector whose cliques share no nonzero vector and meet every colour
class in two points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import oracles
import ringline
from conftest import COMMUTATIVE_SPECS, DATA
from ringline import (
    are_isomorphic,
    bundled_ring_path,
    compute_line,
    condensate_distant_analysis,
    condense,
    construct,
    cross_sector_check,
    cyclic_submodule,
    is_unimodular,
    max_distant_cliques,
    max_neighbour_cliques,
    private_vectors,
    reference_structure,
    structures_isomorphic,
    unimodular_partition,
)
from ringline.cli import main


def report(criterion: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_golden_enumeration(capsys, tmp_path):
    """The computed line equals the 21 published submodules, set for set."""
    spec = f"file:{bundled_ring_path()}"
    code = main(["line", "compute", spec, "--json", "--fixtures", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert (data["unimodular_points"], data["nonunimodular_points"]) == (18, 3)

    files = list(tmp_path.glob("*.line.json"))  # name derives from the file path
    assert len(files) == 1
    written = json.loads(files[0].read_text())
    committed = json.loads((DATA / "ternions8_line.json").read_text())
    assert written["points"] == committed["points"]

    golden_points = {
        frozenset(map(tuple, (tuple(v) for v in entry["orbit"]))): entry["sector"]
        for entry in committed["points"]
    }
    computed_points = {
        frozenset(tuple(v) for v in entry["orbit"]): entry["sector"]
        for entry in written["points"]
    }
    assert computed_points == golden_points
    assert len(computed_points) == 21

    with capsys.disabled():
        report("1 golden enumeration", True, "21 orbit sets match element-wise")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_summary_table(capsys):
    code = main(["table2", "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    verdicts = {row["row"]: row["verdict"] for row in data["rows"]}
    assert verdicts == {
        "T(2)": "PASS",
        "16/12A": "SKIPPED",
        "16/12B": "SKIPPED",
        "GF(2)*T(2)": "PASS",
        "GF(3)*T(2)": "PASS",
    }
    by_row = {row["row"]: row for row in data["rows"]}
    assert by_row["T(2)"]["computed"] == {
        "unimodular": 18, "nonunimodular": 3, "matches": ["GF(2)"],
    }
    assert by_row["GF(2)*T(2)"]["computed"] == {
        "unimodular": 54, "nonunimodular": 9, "matches": ["GF(2)*GF(2)"],
    }
    assert by_row["GF(3)*T(2)"]["computed"] == {
        "unimodular": 72, "nonunimodular": 12, "matches": ["GF(2)*GF(3)", "Z(6)"],
    }
    with capsys.disabled():
        report("2 summary table", True, "3 rows PASS, 2 rows SKIPPED")


# ------------------------------------------------------------ criterion 3


def test_criterion_3a_distant_and_neighbour_sizes(ternion_line, capsys):
    distant = max_distant_cliques(ternion_line, "unimodular")
    assert all(len(c) == 3 for c in distant)
    neighbour = max_neighbour_cliques(ternion_line, "unimodular")
    assert all(len(c) == 6 for c in neighbour)
    with capsys.disabled():
        report("3a max distant 3 / max neighbour 6", True)


def test_criterion_3b_exactly_three_maximum_neighbour_cliques(ternion_line, capsys):
    """Six maximum neighbour cliques: the three colour classes plus three
    transversal cliques.

    Exactly three of the six go through a common nonzero vector, and they
    are the colour classes.  The other three share no nonzero vector; they
    partition the sector again and meet each colour class in two points.
    """
    cliques = max_neighbour_cliques(ternion_line, "unimodular")
    assert len(cliques) == 6 and all(len(c) == 6 for c in cliques), (
        f"expected 6 maximum neighbour cliques of size 6, enumeration finds "
        f"sizes {sorted(len(c) for c in cliques)}"
    )

    def common_nonzero(clique):
        shared = frozenset.intersection(*(p.orbit_set for p in clique))
        return shared - {(0, 0)}

    colour = {frozenset(cls) for cls in golden.COLOUR_CLASSES}
    through_vector = {
        frozenset(p.generator for p in c) for c in cliques if common_nonzero(c)
    }
    transversal = [
        frozenset(p.generator for p in c) for c in cliques if not common_nonzero(c)
    ]
    assert through_vector == colour, (
        f"the cliques through a common nonzero vector should be exactly the "
        f"3 colour classes, got {sorted(map(sorted, through_vector))}"
    )

    points = {p.generator for p in ternion_line.unimodular_points}
    assert len(transversal) == 3
    assert frozenset().union(*transversal) == points
    assert sum(map(len, transversal)) == len(points)  # pairwise disjoint
    meets = sorted(len(t & cls) for t in transversal for cls in colour)
    assert meets == [2] * 9, (
        f"each transversal clique should meet each colour class in 2 points, "
        f"intersection sizes are {meets}"
    )
    with capsys.disabled():
        report(
            "3b maximum neighbour cliques = 3 colour classes + 3 transversals",
            True,
            "6 cliques of 6; transversals partition the sector, 2 per class",
        )


def test_criterion_3c_partition(ternion_line, capsys):
    part = unimodular_partition(ternion_line)
    assert part.class_sizes == (6, 6, 6)
    classes = {frozenset(p.generator for p in cls) for cls in part.classes}
    assert classes == {frozenset(cls) for cls in golden.COLOUR_CLASSES}
    clique_sets = {
        frozenset(p.generator for p in c)
        for c in max_neighbour_cliques(ternion_line, "unimodular")
    }
    assert classes <= clique_sets  # each class is a maximum neighbour clique

    # identical partition for every maximum distant triple: every triple
    # picks exactly one point from each class
    triples = max_distant_cliques(ternion_line, "unimodular")
    assert part.anchor_sets_checked == len(triples) == 48
    class_of = {}
    for index, cls in enumerate(part.classes):
        for p in cls:
            class_of[p.generator] = index
    for triple in triples:
        assert sorted(class_of[p.generator] for p in triple) == [0, 1, 2]
    with capsys.disabled():
        report("3c partition", True, "3 classes of 6, identical over all 48 triples")


def test_criterion_3d_cross_sector(ternion_line, capsys):
    ok, counterexample = cross_sector_check(ternion_line)
    assert ok and counterexample is None
    pairs = len(ternion_line.nonunimodular_points) * len(ternion_line.unimodular_points)
    assert pairs == 54
    with capsys.disabled():
        report("3d cross-sector", True, "all 3x18 pairs neighbour")


def test_criterion_3e_private_vectors(ternion_line, capsys):
    uni = private_vectors(ternion_line, "unimodular")
    assert all(len(v) == 2 for v in uni.values()) and len(uni) == 18
    non = private_vectors(ternion_line, "nonunimodular")
    assert all(len(v) == 4 for v in non.values()) and len(non) == 3
    with capsys.disabled():
        report("3e private vectors", True, "2 per unimodular, 4 per non-unimodular")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_condensation(ternion_line, catalog_lines, gf3_t2_line, capsys):
    structure = condense(ternion_line)
    assert len(structure.vertices) == 4
    assert all(len(vc.members) == 4 for vc in structure.vertices)
    assert set(structure.vertices[0].members) == golden.CONDENSATE_UNIVERSAL
    assert structure.vertices[0].signature == {0, 1, 2}

    witness = structures_isomorphic(structure, reference_structure("GF(2)"))
    assert witness is not None and witness.check()

    for line in (ternion_line, catalog_lines["GF(2)*T(2)"], gf3_t2_line):
        assert condensate_distant_analysis(condense(line)) == 3
    with capsys.disabled():
        report("4 condensation", True, "4x4 classes, GF(2) line, distant size 3")


# ------------------------------------------------------------ criterion 5


def test_criterion_5a_5b_unimodular_free_orbit_sizes(catalog, capsys):
    for spec, ring in catalog.items():
        for r1 in ring.elements():
            for r2 in ring.elements():
                point = cyclic_submodule(ring, (r1, r2))
                assert point.free == (len(point.orbit) == ring.order), spec
                if is_unimodular(ring, (r1, r2)):
                    assert point.free, (spec, (r1, r2))
    with capsys.disabled():
        report("5a/5b unimodular=>free, free<=>full orbit", True,
               f"all vectors of {len(catalog)} rings")


def test_criterion_5c_ring_axioms(catalog, capsys):
    for spec, ring in catalog.items():
        assert oracles.axiom_failure(ring.add_table, ring.mul_table) is None, spec
    with capsys.disabled():
        report("5c exhaustive ring axioms", True, f"{len(catalog)} constructed rings")


def test_criterion_5d_isomorphism_witness(ternions8, capsys):
    constructed = construct("T(2)")
    witness = are_isomorphic(constructed, ternions8)
    assert witness is not None
    for a in constructed.elements():
        for b in constructed.elements():
            assert witness[constructed.add(a, b)] == ternions8.add(witness[a], witness[b])
            assert witness[constructed.mul(a, b)] == ternions8.mul(witness[a], witness[b])
    with capsys.disabled():
        report("5d T(2) isomorphic to ingested tables", True, "witness verified entrywise")


def test_criterion_5e_commutative_rings_have_empty_nonunimodular_sector(capsys):
    for spec in COMMUTATIVE_SPECS:
        ring = construct(spec)
        assert ring.is_commutative and ring.order <= 16
        assert not compute_line(ring).nonunimodular_points, spec
    with capsys.disabled():
        report("5e commutative => no non-unimodular points", True,
               f"{len(COMMUTATIVE_SPECS)} rings up to order 16")


def test_criterion_5f_sector_ratio(ternion_line, catalog_lines, gf3_t2_line, capsys):
    for line in (ternion_line, catalog_lines["GF(2)*T(2)"], gf3_t2_line):
        assert len(line.unimodular_points) == 6 * len(line.nonunimodular_points)
    with capsys.disabled():
        report("5f unimodular:non-unimodular ratio 6", True, "all three built-in lines")


# ------------------------------------------------------------ criterion 6


DETERMINISM_COMMANDS = (
    ["ring", "info", "T(2)"],
    ["ring", "info", "GF(2)*T(2)", "--json"],
    ["ring", "validate", str(bundled_ring_path())],
    ["line", "compute", "T(2)"],
    ["line", "compute", f"file:{bundled_ring_path()}", "--json"],
    ["line", "compute", "GF(2)*T(2)", "--json"],
    ["condense", "GF(3)*T(2)", "--json"],
    ["condense", "T(2)"],
    ["table2"],
    ["table2", "--json"],
)


def test_criterion_6_in_process_determinism(capsys, tmp_path):
    for argv in DETERMINISM_COMMANDS:
        first_code = main(list(argv))
        first = capsys.readouterr().out
        second_code = main(list(argv))
        second = capsys.readouterr().out
        assert first_code == second_code == 0
        assert first == second, argv
    for fmt in ("dot", "json"):
        for index in (1, 2):
            out = tmp_path / f"export{index}.{fmt}"
            code = main(["line", "export", "T(2)", "--sector", "all",
                         "--format", fmt, "--out", str(out)])
            capsys.readouterr()
            assert code == 0
        first_file = (tmp_path / f"export1.{fmt}").read_bytes()
        assert first_file == (tmp_path / f"export2.{fmt}").read_bytes(), fmt
    with capsys.disabled():
        report("6 determinism (in-process)", True,
               f"{len(DETERMINISM_COMMANDS)} commands byte-identical")


@pytest.mark.parametrize("argv", [["table2"], ["line", "compute", "T(2)", "--json"]])
def test_criterion_6_subprocess_determinism(argv, capsys):
    # fresh interpreters with different hash seeds must agree byte for byte
    outputs = []
    # the child imports the package under test, however pytest found it
    src = str(Path(ringline.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "ringline", *argv],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        report("6 determinism (subprocess)", True, " ".join(argv))
