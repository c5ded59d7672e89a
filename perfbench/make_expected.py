"""Rebuild ``expected.json``: the values every benchmark op must print.

Usage (from the repository root; needs networkx)::

    RINGLINE_MAX_ORDER=64 python3 perfbench/make_expected.py

Each value comes from a computation that shares no code with the package
beyond the Cayley tables of the named constructions: an orbit scan written
here, networkx maximal-clique enumeration for the clique sizes and counts,
and signature grouping for condensates and exports.  Catalog matches and
``table2`` verdicts are the ones documented in the README, the tests and
the ROADMAP.  The script then runs the package on the same rings and stops
if any value disagrees, so the file never records a value nobody but the
program under test vouches for.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx

from workloads import CATALOG, CONDENSED, EXPORTED, LADDER

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ringline.cli import build_line_report  # noqa: E402
from ringline.condense import identify_condensate  # noqa: E402
from ringline.constructors import construct  # noqa: E402
from ringline.geometry import export_graph  # noqa: E402
from ringline.line import compute_line  # noqa: E402

SECTOR_FLAGS = {"u": "unimodular", "n": "nonunimodular", "all": "whole"}

# Documented catalog matches.  Default catalog: README (T(2), GF(3)*T(2)).
# Extended catalog: README and tests/test_condense.py for T(2), GF(2)*T(2)
# and GF(3)*T(2); ROADMAP item 4 for T(3), GF(4)*T(2) and GF(5)*T(2); the
# package at the benchmark's first commit for Z(4)*T(2) and D(2)*T(2).
DEFAULT_MATCHES = {
    "T(2)": ["GF(2)"], "GF(3)*T(2)": ["Z(6)", "GF(2)*GF(3)"],
    "T(3)": [], "GF(7)*T(2)": [], "T(4)": [],
}
CATALOG_MATCHES = {
    "T(2)": ["GF(2)"], "GF(2)*T(2)": ["GF(2)*GF(2)"],
    "GF(3)*T(2)": ["Z(6)", "GF(2)*GF(3)"], "T(3)": ["GF(3)"],
    "GF(4)*T(2)": ["GF(2)*GF(4)"], "GF(5)*T(2)": ["GF(2)*GF(5)"],
    "Z(4)*T(2)": ["Z(4)*GF(2)", "D(2)*GF(2)"], "D(2)*T(2)": ["Z(4)*GF(2)", "D(2)*GF(2)"],
}
TABLE2 = {
    "verdicts": {"T(2)": "PASS", "16/12A": "SKIPPED", "16/12B": "PASS",
                 "GF(2)*T(2)": "PASS", "GF(3)*T(2)": "PASS"},
    "source": "README (table2 rows; amphibian16.ring is the --ring-b example),"
              " tests/test_cli.py::test_table2_with_supplied_order16_ring",
}


def scan(ring):
    """Free cyclic submodules as (orbit set, unimodular) pairs."""
    n, add, mul = ring.order, ring.add_table, ring.mul_table
    negative = [add[a].index(0) for a in range(n)]
    one_minus = [add[1][negative[a]] for a in range(n)]
    right = [frozenset(mul[r][x] for x in range(n)) for r in range(n)]
    points = {}
    for r1 in range(n):
        for r2 in range(n):
            orbit = frozenset((mul[a][r1], mul[a][r2]) for a in range(n))
            if len(orbit) == n and orbit not in points:
                points[orbit] = any(one_minus[a] in right[r2] for a in right[r1])
    return points


def sectors(points):
    unimodular = [p for p, u in points.items() if u]
    nonunimodular = [p for p, u in points.items() if not u]
    return {"unimodular": unimodular, "nonunimodular": nonunimodular,
            "whole": unimodular + nonunimodular}


def max_cliques(sector_points, relation):
    """(size, count) of maximum cliques, or None for an empty sector."""
    if not sector_points:
        return None
    graph = nx.Graph()
    graph.add_nodes_from(range(len(sector_points)))
    for i, j in combinations(range(len(sector_points)), 2):
        distant = len(sector_points[i] & sector_points[j]) == 1
        if distant == (relation == "distant"):
            graph.add_edge(i, j)
    sizes = [len(c) for c in nx.find_cliques(graph)]
    best = max(sizes)
    return best, sizes.count(best)


def partition_sizes(unimodular):
    through = {}
    for index, point in enumerate(unimodular):
        for v in point:
            if v != (0, 0):
                through.setdefault(v, set()).add(index)
    best = max(len(s) for s in through.values())
    return sorted(len(c) for c in {frozenset(s) for s in through.values() if len(s) == best})


def condensate(nonunimodular):
    signature = {}
    for index, point in enumerate(nonunimodular):
        for v in point:
            signature.setdefault(v, set()).add(index)
    return len({frozenset(s) for s in signature.values()}), len(nonunimodular)


def co_residence(sector_points):
    vectors = {v for p in sector_points for v in p}
    edges = {pair for p in sector_points for pair in combinations(sorted(p), 2)}
    return len(vectors), len(edges)


def report_entry(spec):
    parts = sectors(scan(construct(spec)))
    entry = {"unimodular": len(parts["unimodular"]), "nonunimodular": len(parts["nonunimodular"])}
    for relation in ("distant", "neighbour"):
        entry["max_" + relation] = {}
        for sector, pts in parts.items():
            found = max_cliques(pts, relation)
            entry["max_" + relation][sector] = (
                {"size": None, "count": None} if found is None
                else {"size": found[0], "count": found[1]}
            )
    entry["partition"] = {
        "class_sizes": partition_sizes(parts["unimodular"]),
        "anchor_sets": entry["max_distant"]["unimodular"]["count"],
    }
    entry["cross_sector_all_neighbour"] = all(
        len(p & q) > 1 for p in parts["nonunimodular"] for q in parts["unimodular"]
    )
    classes, edges = condensate(parts["nonunimodular"])
    entry["condensate"] = {"matches": DEFAULT_MATCHES[spec], "classes": classes, "edges": edges}
    entry["source"] = (
        "sector sizes, partition and condensate sizes: orbit scan and signature grouping in"
        " make_expected.py; clique sizes and counts: networkx find_cliques; anchor sets:"
        " the unimodular maximum distant clique count; matches: README / ROADMAP"
    )
    report = build_line_report(construct(spec))
    program = {
        "unimodular": report.unimodular, "nonunimodular": report.nonunimodular,
        "distant": report.max_distant, "neighbour": report.max_neighbour,
        "class_sizes": sorted(report.partition_class_sizes),
        "anchor_sets": report.partition_anchor_sets,
        "cross": report.cross_sector_all_neighbour,
        "condensate": [list(report.condensate_matches), report.condensate_classes, report.condensate_edges],
    }
    mine = {
        "unimodular": entry["unimodular"], "nonunimodular": entry["nonunimodular"],
        "distant": {s: c["size"] for s, c in entry["max_distant"].items()},
        "neighbour": {s: c["size"] for s, c in entry["max_neighbour"].items()},
        "class_sizes": entry["partition"]["class_sizes"],
        "anchor_sets": entry["partition"]["anchor_sets"],
        "cross": entry["cross_sector_all_neighbour"],
        "condensate": [DEFAULT_MATCHES[spec], classes, edges],
    }
    _agree(f"line compute {spec}", program, mine)
    return entry


def condense_entry(spec):
    parts = sectors(scan(construct(spec)))
    classes, edges = condensate(parts["nonunimodular"])
    ident = identify_condensate(compute_line(construct(spec)), CATALOG)
    _agree(f"condense {spec}",
           [list(ident.matches), len(ident.condensate.vertices), len(ident.condensate.edges)],
           [CATALOG_MATCHES[spec], classes, edges])
    return {"matches": CATALOG_MATCHES[spec], "classes": classes, "edges": edges,
            "source": "matches: README and tests (T(2), GF(2)*T(2), GF(3)*T(2)), ROADMAP item 4"
                      " (T(3), GF(4)*T(2), GF(5)*T(2)), the package at the benchmark's first"
                      " commit (Z(4)*T(2), D(2)*T(2)); classes and edges: signature grouping"
                      " in make_expected.py"}


def export_entry(spec):
    line = compute_line(construct(spec))
    parts = sectors(scan(construct(spec)))
    entry = {}
    for flag, sector in SECTOR_FLAGS.items():
        vertices, edges = co_residence(parts[sector])
        doc = json.loads(export_graph(line, sector, "json"))
        _agree(f"line export {spec} {flag}", [len(doc["vertices"]), len(doc["edges"])], [vertices, edges])
        entry[flag] = {"vertices": vertices, "edges": edges}
    entry["source"] = "distinct covered vectors and co-resident vector pairs, make_expected.py"
    return entry


def _agree(what, program, independent):
    if program != independent:
        raise SystemExit(f"{what}: program gives {program}, independent check gives {independent}")


def main() -> int:
    expected = {
        "report": {spec: report_entry(spec) for spec in LADDER},
        "condense": {spec: condense_entry(spec) for spec in CONDENSED},
        "table2": TABLE2,
        "export": {spec: export_entry(spec) for spec in EXPORTED},
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
