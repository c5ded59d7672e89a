"""Command-line front end.

Commands: ``ring info``, ``ring validate``, ``line compute``,
``line export``, ``condense``, ``table2``.  Each handler computes its
result and returns an ``Outcome``: its exit code, its ``--json``
document (None for ``line export``) and its text view, a callable, so a
``--json`` run never builds the text.  ``main`` alone writes stdout: the
document (stable key order) with ``--json``, else the text view.
Repeated runs of the same command print byte-identical output.
Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on bad input, 141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter, namedtuple
from collections.abc import Callable
from contextlib import suppress
from functools import cache

from . import jsontext
from .condense import condensate_distant_analysis, identify_condensate
from .constructors import SUPPORTED_FIELD_ORDERS, construct, load_ring_file
from .errors import EmptySector, FileError, NotPartition, OrderTooLarge, RinglineError
from .geometry import (
    SECTORS,
    cross_sector_check,
    export_graph,
    sector_clique_size,
    unimodular_partition,
)
from .line import compute_line, line_to_json
from .rings import FiniteRing, ISOMORPHISM_MAX_ORDER, are_isomorphic, ideal_size_census


Outcome = tuple[int, dict | None, Callable[[], str]]  # exit code, --json document, text view


def _named_candidates(order: int) -> list[str]:
    specs = [f"Z({order})"]
    if order in SUPPORTED_FIELD_ORDERS:
        specs.append(f"GF({order})")
    for q in SUPPORTED_FIELD_ORDERS:
        if q * q == order:
            specs.append(f"D({q})")
        if q * q * q == order:
            specs.append(f"T({q})")
    return specs


def _identify_ring(ring: FiniteRing) -> list[str] | None:
    """Named constructions isomorphic to ``ring``; None above the search bound."""
    if ring.order > ISOMORPHISM_MAX_ORDER:
        return None
    matches = []
    for spec in _named_candidates(ring.order):
        if are_isomorphic(construct(spec), ring) is not None:
            matches.append(spec)
    return matches


def _summary(ring: FiniteRing) -> dict:
    """The ring lines that ``ring info`` and ``line compute`` both report."""
    return {
        "ring": ring.label,
        "order": ring.order,
        "units": len(ring.units),
        "zero_divisors": len(ring.zero_divisors),
        "commutative": ring.is_commutative,
    }


def _summary_lines(summary: dict) -> list[str]:
    return [
        f"ring: {summary['ring']}",
        f"order: {summary['order']}",
        f"units: {summary['units']}",
        f"zero divisors: {summary['zero_divisors']}",
        f"commutative: {'yes' if summary['commutative'] else 'no'}",
    ]


def cmd_ring_info(args) -> Outcome:
    ring = construct(args.spec)
    summary = _summary(ring)
    try:
        census = {str(k): v for k, v in ideal_size_census(ring).items()}
    except OrderTooLarge as exc:
        census, census_text = None, f"n/a ({exc})"
    else:
        census_text = ", ".join(f"{size}:{count}" for size, count in census.items())
    data = {"schema": "ringline.ring_info/1", **summary, "ideals_by_size": census}
    if args.spec.strip().startswith("file:"):
        data["isomorphic_to"] = _identify_ring(ring)

    def text() -> str:
        lines = [*_summary_lines(summary), f"ideals by size: {census_text}"]
        if "isomorphic_to" in data:
            found = data["isomorphic_to"]
            if found is None:
                shown = f"n/a (isomorphism search is bounded to order {ISOMORPHISM_MAX_ORDER})"
            else:
                shown = ", ".join(found) or "no named construction of this order"
            lines.append(f"isomorphic to: {shown}")
        return "\n".join(lines)

    return 0, data, text


def cmd_ring_validate(args) -> Outcome:
    data = {"schema": "ringline.ring_validate/1"}
    try:
        ring = load_ring_file(args.file)
    except RinglineError as exc:
        data.update(valid=False, error=str(exc))
        return 1, data, lambda: f"INVALID: {data['error']}"
    data.update(valid=True, order=ring.order, units=len(ring.units), zero_divisors=len(ring.zero_divisors))
    return 0, data, lambda: "VALID: order {order}, {units} units, {zero_divisors} zero divisors".format_map(data)


class LineReport(namedtuple("LineReport", (
    "summary unimodular nonunimodular max_distant max_neighbour partition_class_sizes"
    " partition_anchor_sets partition_failure cross_sector_all_neighbour condensate_status"
    " condensate_matches condensate_classes condensate_edges line"
))):
    """Everything the ``line compute`` command prints.

    ``partition_failure`` says why the partition fields are None, when a
    check refuted the partition.
    """


def build_line_report(ring: FiniteRing) -> LineReport:
    """Report both sectors; the whole line follows from them.

    Every non-unimodular point is neighbour to every unimodular one: (1) by
    stable range 1 of finite rings (Bass, Publ. IHES 22, 1964) a unimodular
    (c, d), cR + dR = R, has c + d*t = u a unit for some t, so (c, d)[[1, 0],
    [t, 1]][[u^-1, -u^-1*d], [0, 1]] = (1, 0); (2) right multiplication by
    GL2(R) keeps freeness, unimodularity and intersections; (3) a free
    (a', b') distant from R(1, 0) has ann_l(b') = 0, so b' is a unit of the
    finite ring and (a', b') is unimodular, so it is not the image of a
    non-unimodular point.  So the whole line's max distant size is the
    larger sector value and its max neighbour size their sum.
    """
    line = compute_line(ring)
    max_distant: dict[str, int | None] = {}
    max_neighbour: dict[str, int | None] = {}
    partition = failure = None
    for sector in ("unimodular", "nonunimodular"):
        try:
            max_distant[sector] = sector_clique_size(line, sector, "distant")
            max_neighbour[sector] = sector_clique_size(line, sector, "neighbour")
            if sector == "unimodular":
                partition = unimodular_partition(line)
        except EmptySector:
            max_distant[sector] = max_neighbour[sector] = None
        except NotPartition as exc:
            failure = str(exc)
    try:
        cross, _ = cross_sector_check(line)
    except EmptySector:
        cross = None
    if cross is False:  # would contradict the proof above; report n/a, not a wrong size
        max_distant["whole"] = max_neighbour["whole"] = None
    else:  # None: the non-unimodular sector is empty
        max_distant["whole"] = max(max_distant["unimodular"], max_distant["nonunimodular"] or 0)
        max_neighbour["whole"] = max_neighbour["unimodular"] + (max_neighbour["nonunimodular"] or 0)
    ident = identify_condensate(line)
    return LineReport(
        summary=_summary(ring),
        unimodular=len(line.unimodular_points),
        nonunimodular=len(line.nonunimodular_points),
        max_distant=max_distant,
        max_neighbour=max_neighbour,
        partition_class_sizes=partition.class_sizes if partition else None,
        partition_anchor_sets=partition.anchor_sets_checked if partition else None,
        partition_failure=failure,
        cross_sector_all_neighbour=cross,
        condensate_status=ident.status,
        condensate_matches=ident.matches,
        condensate_classes=len(ident.condensate.vertices),
        condensate_edges=len(ident.condensate.edges),
        line=line,
    )


def _clique_line(values: dict[str, int | None]) -> str:
    parts = []
    for sector in SECTORS:
        shown = "n/a" if values[sector] is None else str(values[sector])
        name = "non-unimodular" if sector == "nonunimodular" else sector
        parts.append(f"{name} {shown}")
    return ", ".join(parts)


def render_line_report(report: LineReport) -> str:
    out = _summary_lines(report.summary) + [
        f"points: {report.unimodular + report.nonunimodular}"
        f" = {report.unimodular} unimodular + {report.nonunimodular} non-unimodular",
        f"max distant clique: {_clique_line(report.max_distant)}",
        f"max neighbour clique: {_clique_line(report.max_neighbour)}",
    ]
    if report.partition_class_sizes is not None:
        sizes = "+".join(str(s) for s in report.partition_class_sizes)
        out.append(
            f"partition: class sizes {sizes}, identical for all"
            f" {report.partition_anchor_sets} maximum distant cliques"
        )
    else:
        out.append(f"partition: n/a ({report.partition_failure})" if report.partition_failure else "partition: n/a")
    if report.cross_sector_all_neighbour is None:
        out.append("cross-sector: n/a (a sector is empty)")
    else:
        pairs = report.unimodular * report.nonunimodular
        verdict = "all" if report.cross_sector_all_neighbour else "NOT all"
        out.append(
            f"cross-sector: {verdict} {pairs} non-unimodular x unimodular pairs are neighbour"
        )
    if report.condensate_status == "empty":
        out.append("condensate: empty")
    else:
        matched = (
            f"matches {', '.join(report.condensate_matches)}"
            if report.condensate_matches
            else "no catalog match"
        )
        out.append(
            f"condensate: {report.condensate_classes} classes,"
            f" {report.condensate_edges} edges, {matched}"
        )
    return "\n".join(out)


def line_report_json(report: LineReport) -> dict:
    """The ``line compute --json`` document."""
    partition = None
    if report.partition_class_sizes is not None:
        partition = {
            "class_sizes": list(report.partition_class_sizes),
            "anchor_sets_checked": report.partition_anchor_sets,
            "unique": True,
        }
    return {
        "schema": "ringline.line_report/1",
        **report.summary,
        "unimodular_points": report.unimodular,
        "nonunimodular_points": report.nonunimodular,
        "max_distant": report.max_distant,
        "max_neighbour": report.max_neighbour,
        "partition": partition,
        "cross_sector_all_neighbour": report.cross_sector_all_neighbour,
        "condensate": {
            "status": report.condensate_status,
            "matches": list(report.condensate_matches),
            "classes": report.condensate_classes,
            "edges": report.condensate_edges,
        },
    }


def _label_slug(label: str) -> str:
    table = str.maketrans({"*": "x", "(": "_", ")": "", ":": "_", "/": "_", " ": ""})
    return label.translate(table)


def cmd_line_compute(args) -> Outcome:
    ring = construct(args.spec)
    report = build_line_report(ring)
    if args.fixtures:
        try:
            os.makedirs(args.fixtures, exist_ok=True)
        except OSError as exc:
            raise FileError(f"cannot write {args.fixtures}: {exc}") from exc
        path = os.path.join(args.fixtures, f"{_label_slug(ring.label)}.line.json")
        _atomic_write(path, line_to_json(report.line))
        print(f"fixture written to {path}", file=sys.stderr)
    return 0, line_report_json(report), lambda: render_line_report(report)


_SECTOR_FLAGS = {"u": "unimodular", "n": "nonunimodular", "all": "whole"}


def _atomic_write(path: str, content: str) -> None:
    """Write a unique temp file beside ``path`` (umask mode, not mkstemp's 0600), then rename it.

    An OS error (missing directory, ``path`` a directory, ...) becomes a FileError.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def cmd_line_export(args) -> Outcome:
    line = compute_line(construct(args.spec))
    _atomic_write(args.out, export_graph(line, _SECTOR_FLAGS[args.sector], args.format))
    return 0, None, lambda: f"wrote {args.out}"


def cmd_condense(args) -> Outcome:
    ring = construct(args.spec)
    line = compute_line(ring)
    catalog = tuple(s.strip() for s in args.catalog.split(",")) if args.catalog is not None else None
    ident = identify_condensate(line, catalog)
    structure = ident.condensate
    distant = None if structure.is_empty else condensate_distant_analysis(structure)
    data = {
        "schema": "ringline.condensate/1",
        "ring": ring.label,
        "status": ident.status,
        "matches": list(ident.matches),
        "classes": [
            {"members": [list(v) for v in vc.members], "points": sorted(vc.signature)} for vc in structure.vertices
        ],
        "edges": [list(edge) for edge in structure.edges],
        "max_distant_set": distant,
    }

    def text() -> str:
        if ident.status == "empty":
            return f"ring: {ring.label}\ncondensate: empty (no non-unimodular points)"
        lines = [f"ring: {ring.label}", f"condensate: {len(structure.vertices)} classes, {len(structure.edges)} edges"]
        for index, vc in enumerate(structure.vertices):
            members = " ".join(f"({a},{b})" for a, b in vc.members)
            lines.append(f"class {index}: {members} | on {len(vc.signature)} point(s)")
        lines += (f"edge {index}: classes {' '.join(map(str, edge))}" for index, edge in enumerate(structure.edges))
        matched = ", ".join(ident.matches) if ident.matches else "no catalog match"
        return "\n".join([*lines, f"max distant set: {distant}", f"matches: {matched}"])

    return 0, data, text


class _Table2Row(namedtuple(
    "_Table2Row", "name source file_flag expect_unimodular expect_nonunimodular expect_matches"
)):
    """One row of the paper's Table 2: ``source`` is a construction spec, or None when a file is needed."""


_TABLE2_ROWS = (
    _Table2Row("T(2)", "T(2)", None, 18, 3, frozenset({"GF(2)"})),
    _Table2Row("16/12A", None, "--ring-a", 36, 6, frozenset({"Z(4)", "D(2)"})),
    _Table2Row("16/12B", None, "--ring-b", 36, 9, frozenset()),
    _Table2Row("GF(2)*T(2)", "GF(2)*T(2)", None, 54, 9, frozenset({"GF(2)*GF(2)"})),
    _Table2Row("GF(3)*T(2)", "GF(3)*T(2)", None, 72, 12, frozenset({"Z(6)", "GF(2)*GF(3)"})),
)


def _table2_results(ring_a: str | None, ring_b: str | None) -> list[dict]:
    files = {"--ring-a": ring_a, "--ring-b": ring_b}
    results = []
    for row in _TABLE2_ROWS:
        entry: dict = {
            "row": row.name,
            "expected": {
                "unimodular": row.expect_unimodular,
                "nonunimodular": row.expect_nonunimodular,
                "matches": sorted(row.expect_matches),
            },
        }
        if row.source is not None:
            ring = construct(row.source)
        elif files[row.file_flag]:
            ring = load_ring_file(files[row.file_flag])
        else:
            entry["verdict"] = "SKIPPED"
            entry["note"] = f"pass {row.file_flag} FILE to enable"
            results.append(entry)
            continue
        line = compute_line(ring)
        ident = identify_condensate(line)
        computed = {
            "unimodular": len(line.unimodular_points),
            "nonunimodular": len(line.nonunimodular_points),
            "matches": sorted(ident.matches),
        }
        entry["computed"] = computed
        entry["verdict"] = "PASS" if computed == entry["expected"] else "FAIL"
        results.append(entry)
    return results


def cmd_table2(args) -> Outcome:
    results = _table2_results(args.ring_a, args.ring_b)
    verdicts = Counter(r["verdict"] for r in results)
    passed, failed, skipped = verdicts["PASS"], verdicts["FAIL"], verdicts["SKIPPED"]
    data = {
        "schema": "ringline.table2/1",
        "rows": results,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "all_pass": failed == 0,
    }

    def text() -> str:
        header = f"{'row':<12} {'unimodular':>10} {'non-unimodular':>14}  {'condensate':<24} verdict"
        lines = ["summary of the built-in catalog lines", header]
        for entry in results:
            if entry["verdict"] == "SKIPPED":
                lines.append(f"{entry['row']:<12} {'-':>10} {'-':>14}  {'-':<24} SKIPPED ({entry['note']})")
                continue
            computed = entry["computed"]
            matches = ", ".join(computed["matches"]) if computed["matches"] else "no catalog match"
            verdict = entry["verdict"]
            if verdict == "FAIL":
                expected = entry["expected"]
                wanted = ", ".join(expected["matches"]) if expected["matches"] else "no catalog match"
                verdict = (
                    f"FAIL (expected {expected['unimodular']}/{expected['nonunimodular']}"
                    f" with {wanted})"
                )
            lines.append(
                f"{entry['row']:<12} {computed['unimodular']:>10} {computed['nonunimodular']:>14}"
                f"  {matches:<24} {verdict}"
            )
        lines.append(f"result: {'FAIL' if failed else 'PASS'} ({passed} passed, {failed} failed, {skipped} skipped)")
        return "\n".join(lines)

    return (1 if failed else 0), data, text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="Projective lines over small finite rings",
    )
    parser.set_defaults(json=False, timing=False)  # what main reads of every command
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring-level reports")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    info = ring_sub.add_parser("info", help="order, units, zero divisors, ideals")
    info.add_argument("spec")
    info.add_argument("--json", action="store_true")
    info.set_defaults(handler=cmd_ring_info)
    validate = ring_sub.add_parser("validate", help="check a Cayley-table file")
    validate.add_argument("file")
    validate.add_argument("--json", action="store_true")
    validate.set_defaults(handler=cmd_ring_validate)

    line = sub.add_parser("line", help="projective-line pipeline")
    line_sub = line.add_subparsers(dest="line_command", required=True)
    compute = line_sub.add_parser("compute", help="full line report")
    compute.add_argument("spec")
    compute.add_argument("--json", action="store_true")
    compute.add_argument("--fixtures", metavar="DIR", help="also write the line JSON fixture here")
    compute.add_argument("--timing", action="store_true", help="print elapsed time to stderr")
    compute.set_defaults(handler=cmd_line_compute)
    export = line_sub.add_parser("export", help="vector co-residence graph")
    export.add_argument("spec")
    export.add_argument("--sector", choices=sorted(_SECTOR_FLAGS), required=True)
    export.add_argument("--format", choices=("dot", "json"), required=True)
    export.add_argument("--out", required=True)
    export.set_defaults(handler=cmd_line_export)

    condense_cmd = sub.add_parser("condense", help="condense the non-unimodular sector")
    condense_cmd.add_argument("spec")
    condense_cmd.add_argument("--catalog", help="comma-separated reference specs")
    condense_cmd.add_argument("--json", action="store_true")
    condense_cmd.set_defaults(handler=cmd_condense)

    table2 = sub.add_parser("table2", help="recompute the catalog summary table")
    table2.add_argument("--ring-a", dest="ring_a", metavar="FILE", help="order-16 tables for the 16/12A row")
    table2.add_argument("--ring-b", dest="ring_b", metavar="FILE", help="order-16 tables for the 16/12B row")
    table2.add_argument("--json", action="store_true")
    table2.set_defaults(handler=cmd_table2)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its handler computes, and only here is stdout written."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, document, text = args.handler(args)
        print(jsontext.dumps(document) if args.json else text())
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
    except RinglineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: the end of output, not a failed check
        with suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:  # stdout may have no descriptor
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # what is still buffered goes there at exit
        return 141  # 128 + SIGPIPE
    if args.timing:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
