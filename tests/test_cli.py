import importlib
import json
from collections import Counter

import pytest

import oracles
import ringline.cli
import ringline.geometry
import ringline.rings
from conftest import DATA
from ringline import (
    bundled_ring_path,
    construct,
    cross_sector_check,
    export_graph,
    max_distant_cliques,
    max_neighbour_cliques,
    validate_tables,
)
from ringline.cli import _atomic_write, build_line_report, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_text(capsys):
    code, out, err = run(capsys, "ring", "info", "T(2)")
    assert code == 0 and err == ""
    assert out == (
        "ring: T(2)\n"
        "order: 8\n"
        "units: 2\n"
        "zero divisors: 6\n"
        "commutative: no\n"
        "ideals by size: 1:1, 2:1, 4:2, 8:1\n"
    )


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring", "info", "GF(3)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "ringline.ring_info/1"
    assert data["order"] == 3
    assert data["units"] == 2
    assert data["zero_divisors"] == 1  # the zero element itself
    assert data["commutative"] is True


def test_ring_info_identifies_ingested_file(capsys):
    code, out, _ = run(capsys, "ring", "info", f"file:{bundled_ring_path()}")
    assert code == 0
    assert "isomorphic to: T(2)" in out
    assert "units: 2" in out and "zero divisors: 6" in out


def test_ring_info_reads_the_order_bound_override(capsys, monkeypatch):
    monkeypatch.delenv("RINGLINE_MAX_ORDER", raising=False)
    code, _, err = run(capsys, "ring", "info", "GF(5)*T(2)")
    assert code == 2 and "set RINGLINE_MAX_ORDER to override" in err
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    code, out, _ = run(capsys, "ring", "info", "GF(5)*T(2)")
    assert code == 0
    # the ideals of a product of rings with unity are the products I x J
    sizes = [
        [len(ideal) for ideal in oracles.all_ideals_by_subsets(ring.add_table, ring.mul_table)]
        for ring in (construct("GF(5)"), construct("T(2)"))
    ]
    assert sorted(sizes[0]) == [1, 5] and sorted(sizes[1]) == [1, 2, 4, 4, 8]
    census = Counter(i * j for i in sizes[0] for j in sizes[1])
    expected = ", ".join(f"{size}:{count}" for size, count in sorted(census.items()))
    assert expected == "1:1, 2:1, 4:2, 5:1, 8:1, 10:1, 20:2, 40:1"
    assert f"ideals by size: {expected}\n" in out


def test_ring_info_enumerates_ideals_once(capsys, monkeypatch):
    calls = []
    original = ringline.rings.enumerate_ideals
    monkeypatch.setattr(ringline.rings, "enumerate_ideals", lambda ring: calls.append(ring) or original(ring))
    for form in ((), ("--json",)):
        calls.clear()
        code, _, _ = run(capsys, "ring", "info", "T(2)", *form)
        assert code == 0 and len(calls) == 1, form


def test_ring_validate(capsys):
    code, out, _ = run(capsys, "ring", "validate", str(bundled_ring_path()))
    assert code == 0
    assert out.startswith("VALID: order 8")


def test_ring_validate_corrupted(capsys, tmp_path, ternions8):
    mul = [list(row) for row in ternions8.mul_table]
    mul[3][2] = 4
    lines = ["ring 8", "add"]
    lines += [" ".join(map(str, row)) for row in ternions8.add_table]
    lines.append("mul")
    lines += [" ".join(map(str, row)) for row in mul]
    bad = tmp_path / "bad.ring"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "ring", "validate", str(bad))
    assert code == 1
    assert out.startswith("INVALID:")
    code, out, _ = run(capsys, "ring", "validate", str(bad), "--json")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_line_compute_text(capsys):
    code, out, _ = run(capsys, "line", "compute", "T(2)")
    assert code == 0
    assert out == (
        "ring: T(2)\n"
        "order: 8\n"
        "units: 2\n"
        "zero divisors: 6\n"
        "commutative: no\n"
        "points: 21 = 18 unimodular + 3 non-unimodular\n"
        "max distant clique: unimodular 3, non-unimodular 1, whole 3\n"
        "max neighbour clique: unimodular 6, non-unimodular 3, whole 9\n"
        "partition: class sizes 6+6+6, identical for all 48 maximum distant cliques\n"
        "cross-sector: all 54 non-unimodular x unimodular pairs are neighbour\n"
        "condensate: 4 classes, 3 edges, matches GF(2)\n"
    )


def test_line_compute_json_and_fixture(capsys, tmp_path):
    code, out, err = run(
        capsys, "line", "compute", "T(2)", "--json", "--fixtures", str(tmp_path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "ringline.line_report/1"
    assert data["unimodular_points"] == 18
    assert data["nonunimodular_points"] == 3
    assert data["max_distant"] == {"unimodular": 3, "nonunimodular": 1, "whole": 3}
    assert data["condensate"]["matches"] == ["GF(2)"]
    fixture = json.loads((tmp_path / "T_2.line.json").read_text())
    assert fixture["schema"] == "ringline.line/1"
    assert len(fixture["points"]) == 21
    assert "fixture written" in err


def test_line_compute_order24_report(capsys):
    code, out, _ = run(capsys, "line", "compute", "GF(3)*T(2)")
    assert code == 0
    assert out == (
        "ring: GF(3)*T(2)\n"
        "order: 24\n"
        "units: 4\n"
        "zero divisors: 20\n"
        "commutative: no\n"
        "points: 84 = 72 unimodular + 12 non-unimodular\n"
        "max distant clique: unimodular 3, non-unimodular 1, whole 3\n"
        "max neighbour clique: unimodular 24, non-unimodular 12, whole 36\n"
        "partition: class sizes 24+24+24, identical for all 1152 maximum distant cliques\n"
        "cross-sector: all 864 non-unimodular x unimodular pairs are neighbour\n"
        "condensate: 20 classes, 12 edges, matches Z(6), GF(2)*GF(3)\n"
    )


def test_line_compute_report_without_partition(capsys):
    # the order-16 product line has two tied systems of most-shared-vector
    # classes, so no canonical partition exists for it
    code, out, _ = run(capsys, "line", "compute", "GF(2)*GF(2)", "--json")
    assert code == 0
    assert json.loads(out)["partition"] is None


def test_line_compute_empty_sector_report(capsys):
    code, out, _ = run(capsys, "line", "compute", "GF(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_distant"]["nonunimodular"] is None
    assert data["cross_sector_all_neighbour"] is None
    assert data["condensate"]["status"] == "empty"
    assert data["partition"]["class_sizes"] == [1, 1, 1]


def test_line_compute_timing_goes_to_stderr(capsys):
    _, out, err = run(capsys, "line", "compute", "GF(2)", "--timing")
    assert "elapsed:" in err
    assert "elapsed:" not in out


def test_line_export(capsys, tmp_path, ternion_line):
    out_path = tmp_path / "t2.dot"
    code, out, _ = run(
        capsys, "line", "export", f"file:{bundled_ring_path()}",
        "--sector", "n", "--format", "dot", "--out", str(out_path),
    )
    assert code == 0
    assert out == f"wrote {out_path}\n"
    assert out_path.read_text() == export_graph(ternion_line, "nonunimodular", "dot")
    assert not out_path.with_suffix(".dot.tmp").exists()


def test_line_export_beside_a_directory_named_like_the_old_temp_file(capsys, tmp_path):
    out_path = tmp_path / "t2.json"
    (tmp_path / "t2.json.tmp").mkdir()
    code, out, _ = run(
        capsys, "line", "export", "T(2)", "--sector", "u", "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["schema"] == "ringline.graph/1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t2.json", "t2.json.tmp"]


def test_unwritable_output_exits_2_without_temp_files(capsys, tmp_path):
    (tmp_path / "taken" / "T_2.line.json").mkdir(parents=True)
    (tmp_path / "plain").write_text("")
    for command, target in (
        (("line", "export", "T(2)", "--sector", "u", "--format", "dot", "--out"), tmp_path / "missing" / "x.dot"),
        (("line", "export", "T(2)", "--sector", "u", "--format", "dot", "--out"), tmp_path / "taken"),
        (("line", "compute", "T(2)", "--fixtures"), tmp_path / "plain"),
        (("line", "compute", "T(2)", "--fixtures"), tmp_path / "taken"),
    ):
        code, _, err = run(capsys, *command, str(target))
        assert code == 2, target
        assert err.startswith("error: cannot write "), err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["T_2.line.json", "plain", "taken"]


def test_atomic_write_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(target), "\ud800")  # a lone surrogate has no UTF-8 form
    assert list(tmp_path.iterdir()) == []


def test_line_report_enumerates_each_sector_and_relation_once(monkeypatch):
    calls = []
    search = ringline.geometry.maximum_cliques

    def counted(adjacency):
        size, cliques = search(adjacency)
        calls.append((len(adjacency), size, len(cliques)))
        return size, cliques

    monkeypatch.setattr(ringline.geometry, "maximum_cliques", counted)
    report = build_line_report(construct("T(2)"))
    # 2 sectors x 2 relations; the whole line follows from the two sectors
    # and the partition reads the unimodular distant twin cliques.  The 18
    # unimodular points form 9 distant twin classes of 2, so 6 quotient
    # cliques stand for the 48 maximum distant cliques.
    assert calls == [(18, 3, 6), (18, 6, 6), (3, 1, 1), (3, 3, 1)]
    assert report.partition_class_sizes == (6, 6, 6)
    assert report.partition_anchor_sets == 48


def test_line_report_counts_cliques_without_listing_them(monkeypatch):
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")

    def listing(cliques):
        raise AssertionError("the report listed maximum cliques")

    monkeypatch.setattr(ringline.geometry, "expand", listing)
    report = build_line_report(construct("T(4)"))
    assert report.partition_anchor_sets == 122880 == 5 * 4 * 3 * 2 * 4 ** 5
    assert report.partition_class_sizes == (20, 20, 20, 20, 20)
    assert report.max_distant == {"unimodular": 5, "nonunimodular": 1, "whole": 5}


@pytest.mark.parametrize("spec", ["T(4)", "GF(7)*T(2)"])
def test_line_report_is_invariant_under_relabelling(spec, monkeypatch):
    # the twin quotient's search order follows the labels; its counts must not
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)

    def fields(report):
        return (report.unimodular, report.nonunimodular, report.max_distant, report.max_neighbour,
                report.partition_class_sizes, report.partition_anchor_sets)

    expected = fields(build_line_report(ring))
    assert expected[5] is not None
    for seed in (1, 7, 12):
        tables = oracles.relabelled(ring.add_table, ring.mul_table, seed)
        assert fields(build_line_report(validate_tables(*tables))) == expected, seed


def test_line_report_derives_the_whole_line_from_its_sectors(catalog, amphibian16):
    rings = dict(catalog, amphibian16=amphibian16)
    rings.update((spec, construct(spec)) for spec in ("GF(3)*T(2)", "T(3)"))
    for spec, ring in rings.items():
        report = build_line_report(ring)
        line = report.line
        for derived, enumerate_cliques, kind in (
            (report.max_distant, max_distant_cliques, "distant"),
            (report.max_neighbour, max_neighbour_cliques, "neighbour"),
        ):
            adjacency = oracles.relation_adjacency(line.points, kind)
            size = len(enumerate_cliques(line, "whole")[0])
            assert derived["whole"] == size == oracles.nx_maximum_cliques(adjacency)[0], spec
        if line.unimodular_points and line.nonunimodular_points:
            assert cross_sector_check(line) == (True, None), spec
            assert report.cross_sector_all_neighbour is True, spec


def test_line_compute_fixture_reuses_the_reported_line(capsys, tmp_path, monkeypatch):
    calls = []
    scan = ringline.cli.compute_line

    def counted(ring, *args):
        calls.append(ring.label)
        return scan(ring, *args)

    monkeypatch.setattr(ringline.cli, "compute_line", counted)
    # the bundled tables carry the committed fixture's element labels
    spec = f"file:{bundled_ring_path()}"
    code, _, err = run(capsys, "line", "compute", spec, "--fixtures", str(tmp_path))
    assert code == 0 and "fixture written" in err
    assert len(calls) == 1
    [path] = tmp_path.glob("*.line.json")
    written = json.loads(path.read_text())
    committed = json.loads((DATA / "ternions8_line.json").read_text())
    assert written["points"] == committed["points"]


def test_condense_command(capsys):
    code, out, _ = run(capsys, "condense", f"file:{bundled_ring_path()}")
    assert code == 0
    assert "condensate: 4 classes, 3 edges" in out
    assert "class 0: (0,0) (0,6) (6,0) (6,6) | on 3 point(s)" in out
    assert "max distant set: 3" in out
    assert "matches: GF(2)" in out


def test_condense_json_custom_catalog(capsys):
    code, out, _ = run(capsys, "condense", "T(2)", "--json", "--catalog", "Z(4),D(2)")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "no catalog match"
    assert data["matches"] == []
    assert len(data["classes"]) == 4
    catalog = "GF(4)*GF(4),Z(16),GF(2)*GF(2)*GF(4),GF(2)"
    code, out, _ = run(capsys, "condense", "T(2)", "--json", "--catalog", catalog)
    assert code == 0
    assert json.loads(out)["matches"] == ["GF(2)"]


def test_condense_larger_than_every_reference(capsys, monkeypatch):
    # 340 condensate classes against references of at most 20: no match,
    # and no size bound, since no reference has 340 classes
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    code, out, _ = run(capsys, "condense", "T(2)*T(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "no catalog match"
    assert len(data["classes"]) == 340


def test_line_compute_on_an_order_64_product(capsys, monkeypatch):
    # 225 points: the bounded clique search keeps this to seconds
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    code, out, _ = run(capsys, "line", "compute", "T(2)*T(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_distant"] == {"unimodular": 3, "nonunimodular": 1, "whole": 3}
    assert data["max_neighbour"] == {"unimodular": 108, "nonunimodular": 117, "whole": 225}
    assert data["partition"] is None
    assert data["cross_sector_all_neighbour"] is True
    assert data["condensate"]["classes"] == 340


def test_table2_builds_each_reference_once(capsys, monkeypatch, amphibian16_path):
    # import_module, because the package re-exports a function named condense
    condense = importlib.import_module("ringline.condense")
    condense.reference_structure.cache_clear()
    calls = []
    scan = condense.compute_line

    def counted(ring):
        calls.append(ring.label)
        return scan(ring)

    monkeypatch.setattr(condense, "compute_line", counted)
    code, _, _ = run(capsys, "table2", "--ring-b", str(amphibian16_path))
    assert code == 0
    assert len(calls) == len(condense.DEFAULT_CATALOG) == 6


def test_condense_quotients_each_structure_once(capsys, monkeypatch):
    # condensates and references are signature quotients already; matching
    # does not quotient them again: 1 condensate + 6 references
    condense = importlib.import_module("ringline.condense")
    condense.reference_structure.cache_clear()
    calls = []
    quotient = condense._signature_quotient

    def counted(label, edge_vectors):
        calls.append(label)
        return quotient(label, edge_vectors)

    monkeypatch.setattr(condense, "_signature_quotient", counted)
    code, out, _ = run(capsys, "condense", "T(2)")
    assert code == 0 and "GF(2)" in out
    assert len(calls) == 1 + len(condense.DEFAULT_CATALOG) == 7


def test_table2_default(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    rows = out.splitlines()
    assert sum(1 for line in rows if line.endswith(" PASS")) == 3
    assert sum(1 for line in rows if "SKIPPED" in line) == 2
    assert rows[-1] == "result: PASS (3 passed, 0 failed, 2 skipped)"


def test_table2_json(capsys):
    code, out, _ = run(capsys, "table2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "ringline.table2/1"
    assert data["all_pass"] is True
    verdicts = [row["verdict"] for row in data["rows"]]
    assert verdicts == ["PASS", "SKIPPED", "SKIPPED", "PASS", "PASS"]
    t2_row = data["rows"][0]
    assert t2_row["computed"] == {
        "unimodular": 18, "nonunimodular": 3, "matches": ["GF(2)"],
    }


def test_table2_with_supplied_order16_ring(capsys, amphibian16_path):
    code, out, _ = run(capsys, "table2", "--ring-b", str(amphibian16_path))
    assert code == 0
    assert "result: PASS (4 passed, 0 failed, 1 skipped)" in out
    assert "36              9  no catalog match" in out


def test_table2_wrong_ring_fails(capsys):
    code, out, _ = run(capsys, "table2", "--ring-a", str(bundled_ring_path()))
    assert code == 1
    assert "FAIL" in out
    assert "result: FAIL (3 passed, 1 failed, 1 skipped)" in out


def test_bad_spec_exits_2(capsys):
    code, out, err = run(capsys, "ring", "info", "Q(3)")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unreadable_file_exits_2(capsys):
    code, _, err = run(capsys, "line", "compute", "file:/does/not/exist.ring")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content, message", [
    (b"ring 2\nadd\n0 1\n1 0\nmul\n0 0\n0 \xff\n", "cannot read ring file"),
    (b"ring -1\n", "malformed header"),
    (b"ring 2 junk\nadd\n0 1\n1 0\nmul\n0 0\n0 1\n", "malformed header"),
    (b"foo 2\nadd\n0 1\n1 0\nmul\n0 0\n0 1\n", "expected a 'ring <n>' header line"),
], ids=["undecodable", "negative-order", "extra-header-token", "wrong-keyword"])
def test_bad_ring_file_is_reported_not_raised(capsys, tmp_path, content, message):
    path = tmp_path / "bad.ring"
    path.write_bytes(content)
    code, out, _ = run(capsys, "ring", "validate", str(path))
    assert code == 1
    assert out.startswith("INVALID: ") and message in out
    for argv in (("ring", "info", f"file:{path}"), ("table2", "--ring-a", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_argparse_rejects_unknown_sector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line", "export", "T(2)", "--sector", "x", "--format", "dot", "--out", "/tmp/x"])
    assert exc.value.code == 2
