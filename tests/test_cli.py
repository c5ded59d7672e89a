import ast
import contextlib
import functools
import importlib
import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
import ringline.cli
import ringline.geometry
import ringline.line
import ringline.rings
from conftest import DATA, ORDER_16_SPECS
from ringline import (
    bundled_ring_path,
    compute_line,
    construct,
    cross_sector_check,
    export_graph,
    max_distant_cliques,
    max_neighbour_cliques,
    validate_tables,
    write_ring_file,
)
from ringline.cli import _atomic_write, _identify_ring, _named_candidates, build_line_report, main
from ringline.line import line_to_json


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


def test_ring_info_identifies_ingested_file(capsys, tmp_path):
    code, out, _ = run(capsys, "ring", "info", f"file:{bundled_ring_path()}")
    assert code == 0
    assert "isomorphic to: T(2)" in out
    assert "units: 2" in out and "zero divisors: 6" in out
    # a file term after the first is identified too
    code, out, _ = run(capsys, "ring", "info", f"GF(2)*file:{bundled_ring_path()}")
    assert code == 0 and out.endswith("isomorphic to: GF(2)*T(2)\n")
    code, out, _ = run(capsys, "ring", "info", f"GF(2)*file:{bundled_ring_path()}", "--json")
    assert code == 0 and json.loads(out)["isomorphic_to"] == ["GF(2)*T(2)"]
    # relabelled tables of each other family with a candidate at its order
    for seed, spec in enumerate(("GF(4)", "D(2)", "D(3)")):
        ring = construct(spec)
        path = tmp_path / f"{seed}.ring"
        write_ring_file(path, validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed)))
        code, out, _ = run(capsys, "ring", "info", f"file:{path}")
        assert code == 0 and out.endswith(f"isomorphic to: {spec}\n"), spec
    # relabelled tables of product specs, which name every isomorphic candidate
    for i, (spec, seed, shown) in enumerate((
        ("GF(2)*GF(2)", 1, "GF(2)*GF(2)"),
        ("GF(2)*GF(3)", 2, "Z(6), GF(2)*GF(3)"),
        ("GF(2)*T(2)", 5, "GF(2)*T(2)"),
        ("Z(4)*Z(4)", 2, "Z(4)*Z(4)"),
    )):
        ring = construct(spec)
        path = tmp_path / f"product{i}.ring"
        write_ring_file(path, validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed)))
        code, out, _ = run(capsys, "ring", "info", f"file:{path}")
        assert code == 0 and out.endswith(f"isomorphic to: {shown}\n"), spec
    code, out, _ = run(capsys, "ring", "info", f"file:{path}", "--json")
    assert code == 0 and json.loads(out)["isomorphic_to"] == ["Z(4)*Z(4)"]


def test_ring_info_names_every_order_16_candidate(amphibian16):
    # 210 searches over the relabelled candidates and amphibian16 (about
    # 0.3 s on a shared 2-vCPU host, construction included): each candidate
    # is isomorphic to itself alone, and amphibian16 to none of them
    for spec in ORDER_16_SPECS:
        ring = construct(spec)
        relabelled = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, 7))
        assert _identify_ring(relabelled) == [spec]
    assert _identify_ring(amphibian16) == []


def test_named_candidates_are_one_term_specs_then_products():
    assert _named_candidates(4) == ["Z(4)", "GF(4)", "D(2)", "GF(2)*GF(2)"]
    assert _named_candidates(6) == ["Z(6)", "GF(2)*GF(3)"]
    assert _named_candidates(8) == [
        "Z(8)", "T(2)", "GF(2)*GF(2)*GF(2)", "GF(2)*D(2)", "GF(2)*GF(4)", "GF(2)*Z(4)",
    ]
    assert _named_candidates(12) == [
        "Z(12)", "GF(2)*GF(2)*GF(3)", "GF(2)*Z(6)", "GF(3)*D(2)", "GF(3)*GF(4)", "GF(3)*Z(4)",
    ]
    assert _named_candidates(16) == list(ORDER_16_SPECS)


def test_ring_info_above_the_isomorphism_bound_runs_no_search(capsys, tmp_path, monkeypatch):
    path = tmp_path / "t3.ring"
    write_ring_file(path, construct("T(3)"))
    monkeypatch.setattr(ringline.cli, "are_isomorphic", lambda a, b: pytest.fail("searched"))
    code, out, _ = run(capsys, "ring", "info", f"file:{path}")
    assert code == 0 and "order: 27\n" in out
    assert "isomorphic to: n/a (isomorphism search is bounded to order 16)\n" in out
    code, out, _ = run(capsys, "ring", "info", f"file:{path}", "--json")
    assert code == 0 and json.loads(out)["isomorphic_to"] is None


def test_ring_info_reads_the_order_bound_override(capsys, monkeypatch):
    monkeypatch.delenv("RINGLINE_MAX_ORDER", raising=False)
    code, out, err = run(capsys, "ring", "info", "GF(5)*T(2)")
    # the ideal census alone is bounded; the rest of the report still prints
    assert code == 0 and err == ""
    assert (
        "commutative: no\n"
        "ideals by size: n/a (ideal enumeration is bounded to order 32, got 40;"
        " set RINGLINE_MAX_ORDER to override)\n"
    ) in out
    code, out, _ = run(capsys, "ring", "info", "GF(5)*T(2)", "--json")
    assert code == 0 and json.loads(out)["ideals_by_size"] is None
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


def test_line_compute_text_gives_the_reason_for_no_partition(capsys):
    code, out, _ = run(capsys, "line", "compute", "Z(4)*Z(4)")
    assert code == 0
    assert "\npartition: n/a (point R(0, 1) lies in two maximal vector classes)\n" in out
    # the JSON keeps its schema: no reason field until a new schema version
    code, out, _ = run(capsys, "line", "compute", "Z(4)*Z(4)", "--json")
    assert code == 0
    assert json.loads(out)["partition"] is None
    assert "maximal vector classes" not in out


def test_line_compute_empty_sector_report(capsys):
    code, out, _ = run(capsys, "line", "compute", "GF(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_distant"]["nonunimodular"] is None
    assert data["cross_sector_all_neighbour"] is None
    assert data["condensate"]["status"] == "empty"
    assert data["partition"]["class_sizes"] == [1, 1, 1]
    # the text view of a field's line: every stage with no answer says n/a
    code, out, err = run(capsys, "line", "compute", "GF(3)")
    assert code == 0 and err == ""
    assert out == (
        "ring: GF(3)\n"
        "order: 3\n"
        "units: 2\n"
        "zero divisors: 1\n"
        "commutative: yes\n"
        "points: 4 = 4 unimodular + 0 non-unimodular\n"
        "max distant clique: unimodular 4, non-unimodular n/a, whole 4\n"
        "max neighbour clique: unimodular 1, non-unimodular n/a, whole 1\n"
        "partition: class sizes 1+1+1+1, identical for all 1 maximum distant cliques\n"
        "cross-sector: n/a (a sector is empty)\n"
        "condensate: empty\n"
    )


def test_line_compute_timing_goes_to_stderr(capsys):
    _, out, err = run(capsys, "line", "compute", "GF(2)", "--timing")
    assert "elapsed:" in err
    assert "elapsed:" not in out


@pytest.mark.parametrize(
    "spec, flag, sector, fmt",
    [
        pytest.param(f"file:{bundled_ring_path()}", "n", "nonunimodular", "dot", id="t2-n-dot"),
        pytest.param("GF(3)*T(2)", "all", "whole", "json", id="gf3t2-all-json"),  # a_b ids
    ],
)
def test_line_export(capsys, tmp_path, spec, flag, sector, fmt):
    out_path = tmp_path / f"graph.{fmt}"
    code, out, _ = run(capsys, "line", "export", spec, "--sector", flag, "--format", fmt, "--out", str(out_path))
    assert code == 0
    assert out == f"wrote {out_path}\n"
    assert out_path.read_bytes() == export_graph(compute_line(construct(spec)), sector, fmt).encode()
    assert os.listdir(tmp_path) == [out_path.name]  # the temp file was renamed, none is left


@pytest.mark.parametrize(
    "argv, unimodular",
    [
        pytest.param(("condense", "GF(3)*T(2)"), {False}, id="condense"),
        pytest.param(("line", "export", "GF(3)*T(2)", "--sector", "n", "--format", "dot", "--out", "{out}"), {False},
                     id="export-n"),
        pytest.param(("line", "export", "GF(3)*T(2)", "--sector", "u", "--format", "json", "--out", "{out}"), {True},
                     id="export-u"),
        pytest.param(("line", "export", "GF(3)*T(2)", "--sector", "all", "--format", "json", "--out", "{out}"),
                     {True, False}, id="export-all"),
        pytest.param(("line", "compute", "GF(3)*T(2)"), {True, False}, id="compute"),
    ],
)
def test_commands_build_each_point_they_read_once_and_no_other(capsys, monkeypatch, tmp_path, argv, unimodular):
    condense = importlib.import_module("ringline.condense")
    condense.reference_structure.cache_clear()
    spec = argv[2] if argv[0] == "line" else argv[1]
    expected = [p for p in compute_line(construct(spec)).points if p.unimodular in unimodular]
    built = []
    real = ringline.line._submodule

    def counted(ring, *args):
        point = real(ring, *args)
        built.append((ring.label, point))
        return point

    monkeypatch.setattr(ringline.line, "_submodule", counted)
    code, _, _ = run(capsys, *(a.format(out=tmp_path / "graph") for a in argv))
    assert code == 0
    assert sorted(p for label, p in built if label == spec) == expected
    # a catalog reference reads only its unimodular sector
    assert all(p.unimodular for label, p in built if label != spec)


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
        code, out, err = run(capsys, *command, str(target))
        assert (code, out) == (2, ""), target  # the report is not printed when its fixture fails
        assert err.startswith("error: cannot write ") and ".tmp" not in err, err
        assert run(capsys, *command, str(target)) == (code, out, err), target  # no random temp name
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["T_2.line.json", "plain", "taken"]


@pytest.mark.parametrize("argv", [("line", "compute", "T(2)", "--json"), ("condense", "T(2)", "--json")])
def test_json_runs_never_build_the_text_view(capsys, monkeypatch, argv):
    args = ringline.cli.build_parser().parse_args(argv)
    handler, documents = args.handler, []

    def untexted(args):
        code, document, _ = handler(args)
        documents.append(document)
        return code, document, lambda: pytest.fail("text view built")

    args.handler = untexted
    monkeypatch.setattr(ringline.cli, "build_parser", lambda: SimpleNamespace(parse_args=lambda argv: args))
    assert run(capsys, *argv) == (0, ringline.jsontext.dumps(documents[0]) + "\n", "")


def test_only_main_writes_stdout():
    # every other print in the CLI module goes to stderr
    tree = ast.parse(Path(ringline.cli.__file__).read_text(encoding="utf-8"))
    stray = [
        (function.name, call.lineno)
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef) and function.name != "main"
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"
        and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)
    ]
    assert stray == []


def test_atomic_write_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(target), "\ud800")  # a lone surrogate has no UTF-8 form
    assert list(tmp_path.iterdir()) == []


def test_export_writes_a_fifo_and_a_symlink_in_place(capsys, tmp_path):
    # only a regular file is replaced by a renamed temp file
    document = export_graph(compute_line(construct("T(2)")), "nonunimodular", "json").encode()
    argv = ("line", "export", "T(2)", "--sector", "n", "--format", "json", "--out")
    fifo = tmp_path / "out.json"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # open first, so the writer's open does not block
    try:
        assert run(capsys, *argv, str(fifo))[0] == 0  # the document fits in one pipe buffer
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert b"".join(iter(functools.partial(os.read, reader, 1 << 16), b"")) == document
    finally:
        os.close(reader)
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    assert run(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and target.read_bytes() == document
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "out.json", "target.json"]


def test_condense_reads_distant_points_off_the_meet_matrix(capsys, monkeypatch):
    # the distant rows come from the meets matching built, not from a RelationGraph
    built, build = [], ringline.geometry.RelationGraph.of

    def counted(cls, masks, size):
        built.append(size)
        return build(masks, size)

    monkeypatch.setattr(ringline.geometry.RelationGraph, "of", classmethod(counted))
    code, out, _ = run(capsys, "condense", "GF(3)*T(2)", "--json")
    assert (code, json.loads(out)["max_distant_set"], built) == (0, 3, [])


def test_line_report_searches_each_sector_and_relation_once(monkeypatch):
    cliques = importlib.import_module("ringline.cliques")
    calls, asked = [], []
    kernel = cliques._search

    def counted(adjacency, root, ties):
        size, found = kernel(adjacency, root, ties)
        calls.append((len(adjacency), root, ties, size, len(found)))
        asked.append((tuple(adjacency), root, ties))
        return size, found

    monkeypatch.setattr(cliques, "_search", counted)
    sized, size_of = [], ringline.cli.sector_clique_size  # the kinds the report asks sector_clique_size for
    monkeypatch.setattr(ringline.cli, "sector_clique_size", lambda line, k: sized.append(k) or size_of(line, k))
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    # The partition's search through unimodular point 0 is the report's one
    # search: a standing partition's class count is the unimodular distant
    # size, which times the neighbour size is |U| (see unimodular_partition);
    # a point with a distant partner is unimodular (see cross_sector_check),
    # so the non-unimodular sector is one neighbour clique, neighbour to every
    # point, and is not searched; the whole line follows from the two sectors.
    # No report asks one question twice.
    for spec in ("T(2)", "GF(3)*T(2)", "T(3)", "GF(7)*T(2)", "T(4)"):  # the benchmark's report ladder
        del calls[:], asked[:]
        report = build_line_report(construct(spec))
        assert [call[1:3] for call in calls] == [(0, True)] and sized == [], spec
        assert len(set(asked)) == len(asked), spec
        assert report.partition_class_sizes is not None, spec
    # where the partition is refuted, before its search, the unimodular
    # distant size is searched for alone, through point 0, and is the oracle's
    z4z4 = construct("Z(4)*Z(4)")
    for ring in (z4z4, validate_tables(*oracles.relabelled(z4z4.add_table, z4z4.mul_table, 2))):
        del calls[:], asked[:], sized[:]
        report = build_line_report(ring)
        assert report.partition_failure is not None and not report.line.nonunimodular_points
        assert ([call[1:3] for call in calls], sized) == ([(0, False)], ["distant"])
        size, _ = oracles.nx_maximum_cliques(oracles.relation_adjacency(report.line.unimodular_points, "distant"))
        assert f"\nmax distant clique: unimodular {size}, " in ringline.cli.render_line_report(report)
    # so does a refuted ring with non-unimodular points, and one whose R/J is a matrix ring
    m2 = validate_tables(*oracles.matrix_gf2_tables(), label="M2(GF(2))")
    for ring, n in ((construct("T(2)*T(2)"), 117), (m2, 0)):
        del calls[:], sized[:]
        report = build_line_report(ring)
        assert report.partition_failure is not None and len(report.line.nonunimodular_points) == n
        assert ([call[1:3] for call in calls], sized) == ([(0, False)], ["distant"]), ring.label
    # and a relabelled order-128 ring, whose neighbour search takes seconds
    # there; the named table's kernel sizes are the report's
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "128")
    named = construct("T(2)*GF(2)*T(2)")
    del calls[:], sized[:]
    report = build_line_report(validate_tables(*oracles.relabelled(named.add_table, named.mul_table, 2)))
    assert ([call[1:3] for call in calls], sized) == ([(0, False)], ["distant"])
    line = compute_line(named)
    sizes = tuple(size_of(line, kind) for kind in ("distant", "neighbour"))
    assert (report.max_distant["unimodular"], report.max_neighbour["unimodular"]) == sizes == (3, 324)
    # a partition refuted by its own search, the last check: a clique of
    # the real size + 1 anchors no class, and the size is searched for alone
    through = ringline.geometry.cliques_through

    def one_too_large(rows, root):
        size, cliques = through(rows, root)
        return size + 1, cliques

    with monkeypatch.context() as patched:
        patched.setattr(ringline.geometry, "cliques_through", one_too_large)
        del calls[:], sized[:]
        report = build_line_report(construct("T(2)"))
    assert report.partition_failure == "3 classes cannot be anchored by a maximum distant clique of size 4"
    assert ([call[1:3] for call in calls], sized) == ([(0, True), (0, False)], ["distant"])
    assert (report.max_distant["unimodular"], report.max_neighbour["unimodular"]) == (3, 6)
    report = build_line_report(construct("T(2)"))
    # The 18 unimodular points form 9 distant twin classes of 2, and point 0
    # lies on 2 quotient cliques of 3 classes: 2 * 2 * 2 = 8 cliques through
    # it, so 18 * 8 / 3 = 48.
    assert calls[-1:] == [(18, 0, True, 3, 2)]
    assert report.partition_class_sizes == (6, 6, 6)
    assert report.partition_anchor_sets == 48
    # nothing is kept between questions: the partition, asked again, is one
    # search through unimodular point 0, and each listing is one search
    line = report.line
    del calls[:]
    assert ringline.geometry.unimodular_partition(line).anchor_sets_checked == 48
    for sector, distant, neighbour in (("unimodular", 48, 6), ("nonunimodular", 3, 1)):
        assert len(ringline.geometry.max_distant_cliques(line, sector)) == distant
        assert len(ringline.geometry.max_neighbour_cliques(line, sector)) == neighbour
    assert calls == [
        (18, 0, True, 3, 2),
        (18, None, True, 3, 6),
        (18, None, True, 6, 6),
        (3, None, True, 1, 1),
        (3, None, True, 3, 1),
    ]


@pytest.mark.parametrize("spec", ["T(2)", "GF(3)*T(2)"])
def test_line_report_scans_each_sector_once(spec, monkeypatch):
    condense = importlib.import_module("ringline.condense")
    # the catalog's reference lines are built once per process; build them
    # first, so that only the scans of this report's line are counted
    for reference in condense.DEFAULT_CATALOG:
        condense.reference_structure(reference)
    scans, indexes, graphs = [], [], []
    geometry = ringline.geometry

    def count_builds(name, counts):
        """Rebind the cached property ``name`` to one that counts the points of each build."""
        built = getattr(geometry.SectorIncidence, name).func

        def counted(data):
            counts.append(len(data.points))
            return built(data)

        counting = functools.cached_property(counted)
        counting.__set_name__(geometry.SectorIncidence, name)
        monkeypatch.setattr(geometry.SectorIncidence, name, counting)

    build = geometry.RelationGraph.of

    def counted_build(cls, masks, size):
        graphs.append(size)
        return build(masks, size)

    walks = []
    multiples = geometry.multiple_codes

    def counted_multiples(vector, pair):
        walks.append(vector)
        return multiples(vector, pair)

    count_builds("masks", scans)
    count_builds("shared", indexes)
    monkeypatch.setattr(geometry.RelationGraph, "of", classmethod(counted_build))
    monkeypatch.setattr(geometry, "multiple_codes", counted_multiples)
    ring = construct(spec)
    fresh = ringline.cli.compute_line(ring)
    before = line_to_json(fresh)
    report = build_line_report(ring)
    line = report.line
    # one shared-vector index per sector; the unimodular one feeds the
    # partition's rows, built once, and the non-unimodular one only the
    # condensation's full code index, so no non-unimodular rows are built
    assert indexes == [len(line.unimodular_points), len(line.nonunimodular_points)]
    assert graphs == [len(line.unimodular_points)]
    assert scans == [len(line.nonunimodular_points)]
    # the rows are read off the index: each unimodular point's multiples are
    # walked once, for ``shared``, and each non-unimodular point's Z*v and U*v
    # once each, for ``masks``
    assert len(walks) == len(line.unimodular_points) + 2 * len(line.nonunimodular_points) == {
        "T(2)": 24, "GF(3)*T(2)": 96}[spec]
    # the per-sector cache is not part of the line's value
    assert set(line.derived) == {"unimodular", "nonunimodular"}
    assert line == fresh and hash(line) == hash(fresh)
    assert line_to_json(line) == before


@pytest.mark.parametrize("spec, seed", [("GF(3)*T(2)", None), ("T(4)", None), ("GF(4)*T(2)", 11)])
def test_line_report_derives_no_unimodular_orbit(spec, seed, monkeypatch):
    # a point is built as its canonical generator; the report and the
    # condense command read every sector, the catalog references' too,
    # through codes summed from the ring's column tables, so neither derives
    # an orbit or a generator tuple of any point
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    ring = construct(spec)
    if seed is not None:
        ring = validate_tables(*oracles.relabelled(ring.add_table, ring.mul_table, seed))
    condense = importlib.import_module("ringline.condense")
    condense.reference_structure.cache_clear()
    derived = []
    real = ringline.line.CyclicSubmodule._decoded

    def counted(point, codes):
        derived.append(point)
        return real(point, codes)

    monkeypatch.setattr(ringline.line.CyclicSubmodule, "_decoded", counted)
    line = build_line_report(ring).line
    identification = condense.identify_condensate(compute_line(ring), condense.DEFAULT_CATALOG)
    condense.condensate_distant_analysis(identification.condensate)
    assert line.nonunimodular_points and not identification.condensate.is_empty
    assert derived == []
    # a free point prints its orbit size, |R|, without deriving its orbit
    point = line.unimodular_points[-1]
    assert repr(point) == f"<point R{point.generator} unimodular |orbit|={ring.order}>"
    assert derived == []


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
        if spec == "amphibian16":  # its condensate matches no catalog ring
            text = ringline.cli.render_line_report(report)
            assert text.endswith("condensate: 28 classes, 9 edges, no catalog match"), text


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
    code, out, _ = run(capsys, "condense", "GF(2)")
    assert code == 0 and out == "ring: GF(2)\ncondensate: empty (no non-unimodular points)\n"


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
    # a spec listed twice is matched and reported once
    code, out, _ = run(capsys, "condense", "T(2)", "--json", "--catalog", "GF(2),Z(4),GF(2)")
    assert code == 0
    assert json.loads(out)["matches"] == ["GF(2)"]
    code, out, _ = run(capsys, "condense", "T(2)", "--catalog", "GF(2),Z(4),GF(2)")
    assert code == 0
    assert out.splitlines()[-1] == "matches: GF(2)"


@pytest.mark.parametrize("catalog", ["", ","], ids=["empty", "comma"])
def test_condense_empty_catalog_entry_is_a_bad_spec(capsys, catalog):
    code, out, err = run(capsys, "condense", "T(2)", "--catalog", catalog)
    assert (code, out, err) == (2, "", "error: bad ring spec ''\n")


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
    # 441 points.  The unimodular neighbour twins are true twins (a fibre
    # over P(R/J) is a neighbour clique), so the search runs on 81 weighted
    # vertices and the report takes a fraction of a second.
    monkeypatch.setenv("RINGLINE_MAX_ORDER", "64")
    code, out, _ = run(capsys, "line", "compute", "T(2)*T(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_distant"] == {"unimodular": 3, "nonunimodular": 1, "whole": 3}
    assert data["max_neighbour"] == {"unimodular": 108, "nonunimodular": 117, "whole": 225}
    assert data["partition"] is None
    assert data["cross_sector_all_neighbour"] is True
    assert data["condensate"]["classes"] == 340
    line = compute_line(construct("T(2)*T(2)"))
    for sector, size, count in (("unimodular", 108, 12), ("nonunimodular", 117, 1)):
        cliques = ringline.geometry.sector_cliques(line, sector, "neighbour")
        assert (len(cliques[0]), sum(math.prod(map(len, c)) for c in cliques)) == (size, count)


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

    def counted(label, sector):
        calls.append(label)
        return quotient(label, sector)

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


def test_readme_examples_match_the_cli(capsys):
    # every "$ ringline ..." example in the README prints exactly its block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    examples = [example.split("\n", 1) for example in block.split("$ ringline ")[1:]]
    assert [command for command, _ in examples] == ['line compute "T(2)"', "table2"]
    for command, expected in examples:
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, err) == (0, "")
        assert out == expected.rstrip("\n") + "\n", command


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


def test_consecutive_main_calls_match_fresh_processes(capsys, tmp_path):
    # main reuses one parser per process; each call must still print and
    # exit exactly as the same command does in a process of its own
    env = dict(os.environ, PYTHONPATH=str(Path(ringline.cli.__file__).parents[1]))
    commands = (
        (0, ("line", "compute", "T(2)")),
        (0, ("condense", "GF(2)*T(2)", "--json")),
        (2, ("line", "compute", "T(2)", "--no-such-flag")),
        (0, ("line", "export", "T(2)", "--sector", "all", "--format", "json", "--out", "{out}")),
    )
    out = tmp_path / "graph.json"
    for expected_code, command in commands:
        argv = [a.format(out=out) for a in command]
        fresh = subprocess.run(
            [sys.executable, "-m", "ringline", *argv], capture_output=True, text=True, env=env, check=False,
        )
        fresh_file = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), command
        assert code == expected_code, command
        assert (out.read_bytes() if out.exists() else None) == fresh_file, command
    assert fresh_file is not None
    assert ringline.cli.build_parser() is ringline.cli.build_parser()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("line", "compute", "T(2)"), ("condense", "GF(5)*T(2)", "--json")])
def test_closed_stdout_ends_quietly_with_141(argv, unbuffered):
    # the reader has gone before the command writes.  With a buffered stdout
    # the short report is still buffered when the command returns and the
    # 22 kB one is written mid-command; unbuffered, both fail in print
    env = dict(os.environ, PYTHONPATH=str(Path(ringline.cli.__file__).parents[1]), RINGLINE_MAX_ORDER="64")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ringline", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b""), argv


def test_closed_stdout_without_a_descriptor_returns_141(capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(Closed()):
        code = main(["line", "compute", "T(2)"])
    assert (code, capsys.readouterr().err) == (141, "")
