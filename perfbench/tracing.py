"""Spans around the calls the CLI makes into each ringline module.

Nothing in the package is instrumented.  While a traced pass runs, the
names through which one module calls another (``ringline.cli.compute_line``,
``ringline.condense.reference_structure``, ...) are rebound to wrappers
that record a span per call and compute work counts from the result once
the span has closed; that counting time is left out of every enclosing
span.  ``uninstall`` restores the originals, so untraced passes run the
unmodified program.

A span is (name, start, end, parent, op); spans of one op share ``op``.
They stay in memory until the pass ends, when ``layer_metrics`` folds them
into the per-layer numbers.  Times are inclusive; ``cli.self_s`` is the
root span's time minus its direct children, i.e. the CLI's own work.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

from workloads import graph_counts

SECTORS = ("unimodular", "nonunimodular", "whole")
RELATIONS = ("distant", "neighbour")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "counts", "counting")

    def __init__(self, name, parent, op, tag):
        self.name = name
        self.parent = parent
        self.op = op
        self.tag = tag
        self.counts: dict[str, float] = {}
        self.counting = 0  # ns spent inside this span computing work counts
        self.end = 0
        self.start = time.perf_counter_ns()

    @property
    def seconds(self) -> float:
        """Duration without the tracer's own counting."""
        return (self.end - self.start - self.counting) / 1e9

    def record(self) -> dict:
        return {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "op": self.op, "counts": self.counts,
        }


class Tracer:
    """An in-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, tag: str | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.op, tag)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()

    def ancestor_tag(self) -> str | None:
        for index in reversed(self.stack):
            if self.spans[index].tag is not None:
                return self.spans[index].tag
        return None

    def wrap(self, name, fn, counts=None, tag=None):
        """``fn`` inside a span; ``counts(args, result)`` runs after it closes."""

        def wrapper(*args, **kwargs):
            span = self.open(name(*args) if callable(name) else name, tag(*args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span)
                span.counts["error." + type(exc).__name__] = 1
                raise
            self.close(span)
            if counts is not None:
                started = time.perf_counter_ns()
                span.counts.update(counts(args, result))
                spent = time.perf_counter_ns() - started
                for index in self.stack:
                    self.spans[index].counting += spent
            return result

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Rebind ``owner.attr`` to ``make(original)``; skip a name the program lacks."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def traced(self, name, counts=None, tag=None):
        """A ``patch`` maker that wraps the original in ``wrap``."""
        return lambda fn: self.wrap(name, fn, counts, tag)

    def install(self) -> None:
        """Rebind the call sites of every traced layer boundary."""
        # import_module, because the package re-exports a function named condense.
        cli, cliques, condense, constructors, geometry = (
            importlib.import_module(f"ringline.{name}")
            for name in ("cli", "cliques", "condense", "constructors", "geometry")
        )
        built = self.traced("constructors.construct_s", lambda args, ring: {"constructors.elements": ring.order})
        for owner in (cli, condense):
            self.patch(owner, "construct", built)
            self.patch(owner, "compute_line", self.traced("line.scan_s", _scan_counts))
        self.patch(cli, "load_ring_file", built)
        self.patch(constructors, "validate_tables", self.traced(
            "rings.validate_s", lambda args, ring: {"rings.table_triples": ring.order ** 3},
        ))

        graph = self.traced("geometry.graph_s", _graph_counts)
        self.patch(geometry.RelationGraph, "from_line", lambda method: classmethod(graph(method.__func__)))
        for relation in RELATIONS:
            self.patch(cli, f"max_{relation}_cliques", self.traced(
                lambda line, sector, r=relation: f"geometry.cliques_s.{sector}.{r}",
                lambda args, found: {"clique_size": len(found[0]), "clique_count": len(found)},
                tag=lambda line, sector, r=relation: f"{sector}.{r}",
            ))
        # unimodular_partition enumerates the unimodular distant cliques itself.
        self.patch(cli, "unimodular_partition", self.traced(
            "geometry.partition_s",
            lambda args, part: {"geometry.anchor_sets": part.anchor_sets_checked},
            tag=lambda line: "unimodular.distant",
        ))
        self.patch(cli, "cross_sector_check", self.traced("geometry.cross_s", _cross_counts))
        self.patch(cli, "export_graph", self.traced("geometry.export_s", _export_counts))
        self.patch(geometry, "maximum_cliques", self.traced(
            lambda adjacency: f"cliques.enumerate_s.{self.ancestor_tag()}",
            lambda args, result: {"cliques.maximum": len(result[1])},
        ))
        self.patch(cliques, "maximal_cliques", self._counted)

        self.patch(condense, "condense", self.traced(
            "condense.condense_s",
            lambda args, s: {"condense.classes": len(s.vertices), "condense.edges": len(s.edges)},
        ))
        self.patch(condense, "reference_structure", self.traced(
            "condense.reference_s", lambda args, s: {"condense.reference_builds": 1},
        ))
        self.patch(condense, "structures_isomorphic", self.traced(
            "condense.match_s", lambda args, iso: {"condense.matches": int(iso is not None)},
        ))
        self.patch(cli, "identify_condensate", self.traced("condense.identify_s"))
        self.patch(cli, "condensate_distant_analysis", self.traced("condense.distant_s"))
        for attr in ("render_line_report", "line_report_json"):
            self.patch(cli, attr, self.traced("cli.render_s"))

    def _counted(self, maximal):
        """``maximal_cliques`` that adds its yield count to the enumerating span."""

        def counted(neighbours):
            span = self.spans[self.stack[-1]] if self.stack else None
            yielded = 0
            for clique in maximal(neighbours):
                yielded += 1
                yield clique
            if span is not None and span.name.startswith("cliques.enumerate_s."):
                span.counts["cliques.maximal"] = span.counts.get("cliques.maximal", 0) + yielded

        return counted

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clique_results(self, op: int) -> dict[str, tuple[int, int] | None]:
        """(size, count) per sector.relation of the op's CLI clique calls."""
        found: dict[str, tuple[int, int] | None] = {}
        for span in self.spans:
            if span.op == op and span.name.startswith("geometry.cliques_s."):
                key = span.name[len("geometry.cliques_s."):]
                if "clique_size" in span.counts:
                    found[key] = (span.counts["clique_size"], span.counts["clique_count"])
                else:
                    found[key] = None
        return found

    def dump(self, path: str, worker: int, names: list[str]) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                entry = span.record()
                entry["worker"] = worker
                entry["op_label"] = names[span.op] if 0 <= span.op < len(names) else None
                handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _scan_counts(args, line) -> dict:
    n = line.ring.order
    return {
        "line.vectors": n * n,
        "line.points": len(line.unimodular_points) + len(line.nonunimodular_points),
    }


def _graph_counts(args, graph) -> dict:
    rows = graph.intersections
    n = len(rows)
    distant = sum(1 for i in range(n) for j in range(i + 1, n) if rows[i][j] == 1)
    pairs = n * (n - 1) // 2
    return {"geometry.pairs": pairs, "geometry.distant_edges": distant,
            "geometry.neighbour_edges": pairs - distant}


def _cross_counts(args, result) -> dict:
    line = args[0]
    ok, witness = result
    unimodular, nonunimodular = line.unimodular_points, line.nonunimodular_points
    if ok:
        checked = len(unimodular) * len(nonunimodular)
    else:
        nu, u = witness
        checked = nonunimodular.index(nu) * len(unimodular) + unimodular.index(u) + 1
    return {"geometry.cross_pairs": checked}


def _export_counts(args, document) -> dict:
    vertices, edges = graph_counts(document, args[2])
    return {"geometry.export_vertices": vertices, "geometry.export_edges": edges,
            "geometry.export_bytes": len(document.encode("utf-8"))}


COUNT_METRICS = (
    "constructors.elements", "rings.table_triples", "line.vectors", "line.points",
    "geometry.pairs", "geometry.neighbour_edges", "geometry.distant_edges",
    "geometry.anchor_sets", "geometry.cross_pairs",
    "geometry.export_vertices", "geometry.export_edges", "geometry.export_bytes",
    "cliques.maximal", "cliques.maximum",
    "condense.classes", "condense.edges", "condense.reference_builds",
    "condense.catalog_tried", "condense.matches", "condense.too_large",
    "cli.output_bytes",
)

TIME_METRICS = (
    "constructors.construct_s", "rings.validate_s", "line.scan_s", "geometry.graph_s",
    *(f"geometry.cliques_s.{s}.{r}" for s in SECTORS for r in RELATIONS),
    "geometry.partition_s", "geometry.cross_s", "geometry.export_s",
    *(f"cliques.enumerate_s.{s}.{r}" for s in SECTORS for r in RELATIONS),
    "condense.condense_s", "condense.identify_s", "condense.reference_s",
    "condense.match_s", "condense.distant_s",
    "cli.op_s", "cli.render_s", "cli.self_s",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    totals: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        seconds = span.seconds
        totals[span.name] += seconds
        if span.parent is not None:
            children[span.parent] += seconds
        for key, value in span.counts.items():
            totals[key] += value
        if span.name == "condense.match_s":
            totals["condense.catalog_tried"] += 1
            totals["condense.too_large"] += span.counts.get("error.TooLarge", 0)
    for index, span in enumerate(spans):
        if span.name == "cli.op_s":
            totals["cli.self_s"] += span.seconds - children[index]
    metrics = {name: totals.get(name, 0.0) for name in TIME_METRICS + COUNT_METRICS}
    metrics["line.points_per_vector"] = _ratio(metrics["line.points"], metrics["line.vectors"])
    metrics["cliques.maximum_per_maximal"] = _ratio(metrics["cliques.maximum"], metrics["cliques.maximal"])
    metrics["condense.matches_per_tried"] = _ratio(metrics["condense.matches"], metrics["condense.catalog_tried"])
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
