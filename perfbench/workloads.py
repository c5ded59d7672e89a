"""The benchmark's workloads: fixed op lists, seeded inputs and output checks.

An op is one ``ringline`` command line, run in-process through
``ringline.cli.main(argv)``.  Seed 0 passes the named constructions; any
other seed relabels the Cayley tables of every ring an op names (catalog
references and the ``--ring-b`` file included) by a random permutation
fixing 0 and 1, writes them as ring files and passes ``file:`` specs.
Every expected value in ``expected.json`` is invariant under that
relabelling, so one table serves every seed.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The ROADMAP ladder without T(2)*T(2), whose report runs for minutes.
LADDER = ("T(2)", "GF(3)*T(2)", "T(3)", "GF(7)*T(2)", "T(4)")

CONDENSED = (
    "T(2)", "GF(2)*T(2)", "GF(3)*T(2)", "T(3)", "GF(4)*T(2)",
    "GF(5)*T(2)", "Z(4)*T(2)", "D(2)*T(2)",
)

# DEFAULT_CATALOG first, then the references the larger condensates need.
CATALOG = (
    "GF(2)", "Z(4)", "D(2)", "Z(6)", "GF(2)*GF(2)", "GF(2)*GF(3)",
    "GF(3)", "GF(4)", "GF(2)*GF(4)", "GF(2)*GF(5)", "Z(4)*GF(2)", "D(2)*GF(2)",
)

EXPORTED = ("GF(3)*T(2)", "T(3)", "GF(4)*T(2)", "GF(5)*T(2)")
EXPORT_SECTORS = ("u", "n", "all")
EXPORT_FORMATS = ("dot", "json")

AMPHIBIAN = "tests/data/amphibian16.ring"

WORKLOADS = ("report-ladder", "condense-catalog", "export-graph")


@dataclass
class Op:
    """One command line plus what its output must say."""

    label: str
    argv: list[str]
    kind: str  # "report" | "condense" | "table2" | "export"
    ring: str  # named spec the expected values are keyed by
    out: str | None = None  # export target file
    export: tuple[str, str] | None = None  # (sector flag, format)


@dataclass
class Inputs:
    """Specs as the program sees them, and the way back to the names."""

    spec: dict[str, str] = field(default_factory=dict)
    name: dict[str, str] = field(default_factory=dict)
    amphibian: str = AMPHIBIAN


def _relabelled(tables, perm):
    n = len(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[tables[a][b]]
    return out


def _write_ring(path: Path, add, mul) -> None:
    rows = [f"ring {len(add)}", "add"]
    rows += [" ".join(map(str, row)) for row in add]
    rows.append("mul")
    rows += [" ".join(map(str, row)) for row in mul]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _slug(spec: str) -> str:
    return spec.translate(str.maketrans({"*": "x", "(": "", ")": ""}))


def make_inputs(workload: str, seed: int, labelling: int, root: Path, tmp: Path) -> Inputs:
    """Specs for one worker; seed != 0 writes relabelled ring files into ``tmp``.

    ``labelling`` picks one of several relabellings drawn from the seed, so
    that a run's workers average over labellings, on which search order
    and thus time depend.
    """
    names = {
        "report-ladder": LADDER,
        "condense-catalog": CONDENSED + CATALOG,
        "export-graph": EXPORTED,
    }[workload]
    inputs = Inputs()
    if seed == 0:
        for spec in names:
            inputs.spec[spec] = spec
            inputs.name[spec] = spec
        return inputs
    from ringline.constructors import construct, load_ring_file

    rings = [(spec, construct(spec)) for spec in names]
    if workload == "condense-catalog":
        rings.append((AMPHIBIAN, load_ring_file(root / AMPHIBIAN)))
    for spec, ring in rings:
        rng = random.Random(f"{seed}/{labelling}/{spec}")
        rest = list(range(2, ring.order))
        rng.shuffle(rest)
        perm = [0, 1] + rest
        path = tmp / f"{_slug(Path(spec).stem)}.ring"
        _write_ring(path, _relabelled(ring.add_table, perm), _relabelled(ring.mul_table, perm))
        if spec == AMPHIBIAN:
            inputs.amphibian = str(path)
        else:
            inputs.spec[spec] = f"file:{path}"
            inputs.name[f"file:{path}"] = spec
    return inputs


def make_ops(workload: str, inputs: Inputs, tmp: Path) -> list[Op]:
    """The workload's ops in their fixed order."""
    spec = inputs.spec
    if workload == "report-ladder":
        return [
            Op(f"line compute {r}", ["line", "compute", spec[r], "--json"], "report", r)
            for r in LADDER
        ]
    if workload == "condense-catalog":
        catalog = ",".join(spec[c] for c in CATALOG)
        ops = [
            Op(f"condense {r}", ["condense", spec[r], "--json", "--catalog", catalog], "condense", r)
            for r in CONDENSED
        ]
        ops.append(Op("table2", ["table2", "--json", "--ring-b", inputs.amphibian], "table2", "table2"))
        return ops
    ops = []
    for r in EXPORTED:
        for sector in EXPORT_SECTORS:
            for fmt in EXPORT_FORMATS:
                out = str(tmp / f"{_slug(r)}-{sector}.{fmt}")
                ops.append(Op(
                    f"line export {r} --sector {sector} --format {fmt}",
                    ["line", "export", spec[r], "--sector", sector, "--format", fmt, "--out", out],
                    "export", r, out=out, export=(sector, fmt),
                ))
    return ops


# Op whose median time is ``largest_op_s``: the hardest ring of the workload.
LARGEST_OP = {
    "report-ladder": "line compute T(4)",
    "condense-catalog": "condense GF(5)*T(2)",
    "export-graph": "line export GF(5)*T(2) --sector all --format json",
}


def graph_counts(text: str, fmt: str) -> tuple[int, int]:
    """(vertices, edges) of an exported co-residence graph document."""
    if fmt == "json":
        doc = json.loads(text)
        return len(doc["vertices"]), len(doc["edges"])
    lines = text.splitlines()
    edges = sum(1 for ln in lines if " -- " in ln)
    vertices = sum(1 for ln in lines if "[weight=" in ln)
    return vertices, edges


@functools.cache
def expected() -> dict:
    """``expected.json``: each op's expected values, with their sources."""
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def _mismatch(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_op(op: Op, code, stdout: str, inputs: Inputs) -> list[str]:
    """Every way the op's output differs from ``expected.json``; [] if none."""
    if code != 0:
        return [f"exit code {code!r}, expected 0"]
    errors: list[str] = []
    try:
        _compare(op, stdout, inputs, errors)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors


def _compare(op: Op, stdout: str, inputs: Inputs, errors: list[str]) -> None:
    if op.kind == "export":
        sector, fmt = op.export
        want = expected()["export"][op.ring][sector]
        vertices, edges = graph_counts(Path(op.out).read_text(encoding="utf-8"), fmt)
        _mismatch(errors, "vertices", vertices, want["vertices"])
        _mismatch(errors, "edges", edges, want["edges"])
        return
    data = json.loads(stdout)
    if op.kind == "report":
        want = expected()["report"][op.ring]
        _mismatch(errors, "unimodular", data["unimodular_points"], want["unimodular"])
        _mismatch(errors, "nonunimodular", data["nonunimodular_points"], want["nonunimodular"])
        for relation in ("distant", "neighbour"):
            sizes = {s: c["size"] for s, c in want["max_" + relation].items()}
            _mismatch(errors, f"max_{relation}", data["max_" + relation], sizes)
        partition = data["partition"] or {}
        _mismatch(errors, "partition sizes", sorted(partition.get("class_sizes", [])),
                  want["partition"]["class_sizes"])
        _mismatch(errors, "anchor sets", partition.get("anchor_sets_checked"), want["partition"]["anchor_sets"])
        _mismatch(errors, "cross sector", data["cross_sector_all_neighbour"], want["cross_sector_all_neighbour"])
        condensate = data["condensate"]
        _mismatch(errors, "condensate matches", condensate["matches"], want["condensate"]["matches"])
        _mismatch(errors, "condensate classes", condensate["classes"], want["condensate"]["classes"])
        _mismatch(errors, "condensate edges", condensate["edges"], want["condensate"]["edges"])
    elif op.kind == "condense":
        want = expected()["condense"][op.ring]
        matches = [inputs.name.get(m, m) for m in data["matches"]]
        _mismatch(errors, "matches", matches, want["matches"])
        _mismatch(errors, "classes", len(data["classes"]), want["classes"])
        _mismatch(errors, "edges", len(data["edges"]), want["edges"])
    else:
        verdicts = {row["row"]: row["verdict"] for row in data["rows"]}
        _mismatch(errors, "verdicts", verdicts, expected()["table2"]["verdicts"])
        _mismatch(errors, "all_pass", data["all_pass"], True)


def check_cliques(op: Op, found: dict[str, tuple[int, int] | None]) -> list[str]:
    """Compare traced (size, count) per sector.relation with ``expected.json``.

    ``found`` holds the ``max_*_cliques`` calls the CLI made; a program
    that gets its report without them leaves nothing here to compare.
    """
    want = expected()["report"][op.ring]
    errors: list[str] = []
    for key, got in found.items():
        sector, relation = key.split(".")
        cliques = want["max_" + relation][sector]
        pair = None if cliques["size"] is None else (cliques["size"], cliques["count"])
        _mismatch(errors, f"{sector} {relation} cliques", got, pair)
    return errors
