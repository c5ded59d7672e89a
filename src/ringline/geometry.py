"""Neighbour/distant structure of a projective ring line.

Two distinct points are distant when their orbits meet only in the zero
vector and neighbour otherwise; a point is neighbour to itself only with
``allow_same=True``.  Each sector's ``incidence`` masks and neighbour rows
are made once per line (``sector_incidence``), and every stage reads them.

Maximum cliques are searched on the twin quotient (see ``cliques``).  On
the unimodular sector the distant twin classes are the fibres of
P(R) -> P(R/J), J the Jacobson radical (Blunck & Havlicek, Math. Pannon.
14, 2003).  Sketch: two unimodular points R(a, b), R(c, d) of a finite
ring meet only in 0 iff R(a, b) + R(c, d) = R^2 (both have |R| vectors),
iff the matrix with rows (a, b), (c, d) is invertible, iff it is
invertible modulo J (M2(J) is the radical of M2(R)).  So points with the
same image have the same distant partners; points with different images
do not, since on P(R/J) = prod P(GF(q)) two points are distant iff they
differ in every coordinate, and a point differing from the one in every
coordinate but agreeing with the other in one tells them apart.  T(4)'s
100 unimodular points form 25 classes of |J| = 4, and its 122 880
maximum distant cliques come from 120 quotient cliques of 5 classes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, reduce
from itertools import repeat
from math import prod
from operator import or_

from . import jsontext
from .cliques import Clique, cliques_through, expand, maximum_cliques, maximum_size
from .errors import EmptySector, NotPartition, SamePoint, UnknownFormat
from .line import CyclicSubmodule, ProjectiveLine, Vector, incidence, mask_indices

SECTORS = ("unimodular", "nonunimodular", "whole")

ZERO: Vector = (0, 0)


def sector_points(line: ProjectiveLine, sector: str) -> tuple[CyclicSubmodule, ...]:
    if sector == "unimodular":
        return line.unimodular_points
    if sector == "nonunimodular":
        return line.nonunimodular_points
    if sector == "whole":
        return line.points
    raise ValueError(f"unknown sector {sector!r}; expected one of {SECTORS}")


def relation(p: CyclicSubmodule, q: CyclicSubmodule, allow_same: bool = False) -> str:
    """"distant" or "neighbour", by exact orbit-set intersection."""
    if p.orbit_set == q.orbit_set:
        if allow_same:
            return "neighbour"
        raise SamePoint(f"relation of point R{p.generator} with itself (pass allow_same=True for the reflexive convention)")
    overlap = len(p.orbit_set & q.orbit_set)
    assert overlap >= 1, "every cyclic submodule contains the zero vector"
    return "distant" if overlap == 1 else "neighbour"


def _meeting(masks, members) -> int:
    """OR of the ``masks`` of ``members``; a member without a mask adds nothing."""
    return reduce(or_, map(masks.get, members, repeat(0)), 0)


class RelationGraph(namedtuple("RelationGraph", "neighbours")):
    """Neighbour bitmask rows of a sector or a condensate; ``distant()`` is the complement."""

    @classmethod
    def of(cls, edges, masks) -> "RelationGraph":
        """Row i ORs the ``masks`` of edge i's members (a point's vectors or a
        condensed point's classes), without bit i; the zero, on every edge,
        is left out of the edge or has no mask."""
        return cls(tuple(_meeting(masks, edge) & ~(1 << i) for i, edge in enumerate(edges)))

    def distant(self) -> tuple[int, ...]:
        full = (1 << len(self.neighbours)) - 1
        return tuple(full & ~(row | 1 << i) for i, row in enumerate(self.neighbours))


class SectorIncidence:
    """Everything one sector of a line gives every stage, each derived once.

    The points, their ``incidence`` masks and, on first use, the neighbour rows.
    """

    def __init__(self, points: tuple[CyclicSubmodule, ...]):
        self.points = points
        self.masks = incidence(p.orbit for p in points)

    @cached_property
    def graph(self) -> RelationGraph:
        return RelationGraph.of([p.orbit[1:] for p in self.points], self.masks)  # orbit[0] is ZERO

    def rows(self, kind: str) -> tuple[int, ...]:
        """The bitmask rows of the ``kind`` ("distant" or "neighbour") relation."""
        return self.graph.distant() if kind == "distant" else self.graph.neighbours


def sector_incidence(line: ProjectiveLine, sector: str) -> SectorIncidence:
    """The sector's ``SectorIncidence``, built on first use and kept in ``line.derived``."""
    if sector not in line.derived:
        line.derived[sector] = SectorIncidence(sector_points(line, sector))
    return line.derived[sector]


def _nonempty(line: ProjectiveLine, sector: str) -> SectorIncidence:
    """``sector_incidence``, or EmptySector when the sector has no points."""
    data = sector_incidence(line, sector)
    if not data.points:
        raise EmptySector(f"the {sector} sector of {line.ring.label} is empty")
    return data


def sector_cliques(line: ProjectiveLine, sector: str, kind: str) -> list[Clique]:
    """The sector's maximum ``kind`` cliques as ``maximum_cliques`` lists them, on ``sector_points``."""
    return maximum_cliques(_nonempty(line, sector).rows(kind))[1]


def sector_clique_size(line: ProjectiveLine, sector: str, kind: str) -> int:
    """The size of the sector's maximum ``kind`` cliques, searched without listing them.

    On the unimodular sector only the cliques through point 0 are searched.
    GL2(R) acts transitively on the unimodular points and keeps the distant
    relation, hence the neighbour relation (see ``unimodular_partition``),
    so it maps a maximum clique of either kind onto one through any point.
    """
    return maximum_size(_nonempty(line, sector).rows(kind), 0 if sector == "unimodular" else None)


def _listed(line, sector, kind) -> tuple[tuple[CyclicSubmodule, ...], ...]:
    points = sector_points(line, sector)
    return tuple(tuple(points[i] for i in clique) for clique in expand(sector_cliques(line, sector, kind)))


def max_distant_cliques(line: ProjectiveLine, sector: str) -> tuple[tuple[CyclicSubmodule, ...], ...]:
    """Every maximum set of pairwise distant points of the sector, listed."""
    return _listed(line, sector, "distant")


def max_neighbour_cliques(line: ProjectiveLine, sector: str) -> tuple[tuple[CyclicSubmodule, ...], ...]:
    """Every maximum set of pairwise neighbour points of the sector, listed."""
    return _listed(line, sector, "neighbour")


class SectorPartition(namedtuple("SectorPartition", "anchors classes anchor_sets_checked")):
    """The canonical split of the unimodular sector into neighbour classes.

    A class is the set of points through one of the sector's most-shared
    nonzero vectors; any two of them share that vector, so each class is a
    set of pairwise-neighbour points.  ``anchors`` is the lexicographically
    least maximum distant clique, ``classes[k]`` the class containing
    ``anchors[k]``.  ``anchor_sets_checked`` is the number of maximum
    distant cliques, each of which picks exactly one point per class.
    """

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def unimodular_partition(line: ProjectiveLine) -> SectorPartition:
    """Partition the unimodular sector into its most-shared-vector classes.

    The classes must be disjoint and cover the sector (NotPartition names
    the offending point).  Points of one class share a nonzero vector, so
    they are pairwise neighbour; by pigeonhole a distant clique of size
    #classes meets every class exactly once.  So the one check on the
    maximum distant cliques is their size, and ``anchor_sets_checked`` is
    their count.  Both, and the anchors, are read off the quotient cliques
    through sector point 0 (``cliques_through``), none of them listed.

    Right multiplication by M in GL2(R) is a bijection of R^2 taking R(a, b)
    to R((a, b)M), so it keeps freeness, unimodularity and intersection
    sizes, hence the distant relation; by stable range 1 it takes any
    unimodular point to R(1, 0) (see ``cli.build_line_report``).  So every
    point lies on as many maximum distant cliques, c(0), as point 0 does,
    and counting (point, clique) pairs gives #cliques * size = #points *
    c(0).  Point 0 lies on one, so the least maximum clique holds it.
    """
    data = sector_incidence(line, "unimodular")
    points = data.points
    shared = {m: m.bit_count() for v, m in data.masks.items() if v != ZERO}
    best = max(shared.values(), default=0)
    classes = sorted((m for m, size in shared.items() if size == best), key=mask_indices)
    covered = 0
    for cls in classes:
        if covered & cls:
            twice = points[mask_indices(covered & cls)[0]]
            raise NotPartition(
                f"point R{twice.generator} lies in two maximal vector classes",
                witness=(twice,),
            )
        covered |= cls
    uncovered = [points[i] for i in mask_indices(~covered & ((1 << len(points)) - 1))]
    if uncovered:
        raise NotPartition(
            f"point R{uncovered[0].generator} lies in no maximal vector class",
            witness=tuple(uncovered),
        )
    size, cliques = cliques_through(data.rows("distant"), 0)
    if size != len(classes):
        raise NotPartition(
            f"{len(classes)} classes cannot be anchored by a maximum distant"
            f" clique of size {size}"
        )
    anchors = [cls[0] for cls in cliques[0]]
    ordered = tuple(
        next(tuple(points[i] for i in mask_indices(c)) for c in classes if c >> a & 1) for a in anchors
    )
    # point 0 is the least of its part, which comes first in each clique
    through = sum(prod(map(len, clique[1:])) for clique in cliques)
    count = len(points) * through // size
    return SectorPartition(anchors=tuple(points[a] for a in anchors), classes=ordered, anchor_sets_checked=count)


def cross_sector_check(line: ProjectiveLine) -> tuple[bool, tuple[CyclicSubmodule, CyclicSubmodule] | None]:
    """Whether every non-unimodular point is neighbour to every unimodular one.

    Returns (True, None) or (False, counterexample pair), reading each point's
    unimodular neighbours off the unimodular masks of its nonzero vectors.
    """
    unimodular, nonunimodular = line.unimodular_points, line.nonunimodular_points
    if not nonunimodular or not unimodular:
        raise EmptySector(f"{line.ring.label}: both sectors must be non-empty for the cross check")
    data = sector_incidence(line, "unimodular")
    sector = (1 << len(unimodular)) - 1
    for nu in nonunimodular:
        distant = sector & ~_meeting(data.masks, nu.orbit[1:])
        if distant:
            return False, (nu, unimodular[mask_indices(distant)[0]])
    return True, None


def private_vectors(line: ProjectiveLine, sector: str) -> dict[Vector, tuple[Vector, ...]]:
    """Per point, the vectors lying on no other point of the same sector.

    Keyed by canonical generator.  On the order-8 ternion line these are
    the two generators for a unimodular point and the two generators plus
    two more vectors for a non-unimodular one.
    """
    data = _nonempty(line, sector)
    points, masks = data.points, data.masks
    return {
        point.generator: tuple(v for v in point.orbit if masks[v] == 1 << i)
        for i, point in enumerate(points)
    }


# Per format, the parts of one vertex's edges (k, b): head + id_k + mid + id_b + tail,
# joined by joint.
_EDGE_TEXT = {
    "dot": ('  "', '" -- "', '";', "\n"),
    "json": ('    [\n      "', '",\n      "', '"\n    ]', ",\n"),
}


def _json_list(items: list[str]) -> str:
    """A top-level value of the graph document, as ``json.dumps(indent=2)`` lays it out."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_graph(line: ProjectiveLine, sector: str, fmt: str) -> str:
    """Vector co-residence network of the selected sector(s).

    Vertices are the vectors lying on at least one point of the sector, in
    lexicographic order, weighted by how many points contain them; edges
    join vectors sharing a point, in lexicographic pair order.  Vectors with
    one signature (``incidence`` mask) are true twins: their closed
    neighbourhood is the union of their points' orbits, and vector k's
    edges (k, b) are the part of it above k.  An orbit, read as vertex
    indices, is already ascending, so a one-point signature's neighbourhood
    is its point's orbit; only a signature of several points merges and
    sorts its orbits.  Each signature builds the list of its edges' right
    ends once, and each vector's edges are one slice of it, joined.  The
    JSON text is laid out as ``json.dumps(indent=2, sort_keys=True)`` would
    lay it out; only the label and sector go through ``jsontext.dumps``.
    Sent whole through ``jsontext.dumps``, the document is the same text, but
    on a 2-vCPU host that call alone took 0.9 s for the 12 JSON exports of
    GF(3)*T(2), T(3), GF(4)*T(2) and GF(5)*T(2), against 0.07-0.09 s for
    the hand-laid exports.  An empty sector gives an empty document.
    """
    if fmt not in _EDGE_TEXT:
        raise UnknownFormat(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
    data = sector_incidence(line, sector)
    points, masks = data.points, data.masks
    vertices = {v: k for k, v in enumerate(sorted(masks))}  # vector -> its index
    orbits = [list(map(vertices.__getitem__, p.orbit)) for p in points]  # ascending, as the orbits are
    sep = "" if line.ring.order <= 10 else "_"  # two-digit ids for small rings
    ids = [f"{a}{sep}{b}" for a, b in vertices]
    head, mid, tail, joint = _EDGE_TEXT[fmt]
    rights = [i + tail for i in ids]
    closed = {}  # signature -> its ascending neighbourhood, their right ends, its weight
    for m in set(masks.values()):
        if m & (m - 1):
            hood = sorted(set().union(*map(orbits.__getitem__, mask_indices(m))))
        else:
            hood = orbits[m.bit_length() - 1]
        closed[m] = hood, list(map(rights.__getitem__, hood)), m.bit_count()
    edges, weights = [], []
    for k, v in enumerate(vertices):
        hood, texts, weight = closed[masks[v]]  # hood holds k
        weights.append(weight)
        if hood[-1] > k:
            left = head + ids[k] + mid
            edges.append(left + (joint + left).join(texts[bisect_right(hood, k):]))
    if fmt == "dot":
        name = f"{line.ring.label} {sector}".replace('"', '\\"')
        nodes = [f'  "{i}" [weight={w}];' for i, w in zip(ids, weights)]
        return "\n".join([f'graph "{name}" {{', *nodes, *edges, "}", ""])
    nodes = [
        f'    {{\n      "id": "{i}",\n      "vector": [\n        {a},\n        {b}\n      ],'
        f'\n      "weight": {w}\n    }}'
        for i, (a, b), w in zip(ids, vertices, weights)
    ]
    return (
        f'{{\n  "edges": {_json_list(edges)},\n  "ring": {jsontext.dumps(line.ring.label)},'
        f'\n  "schema": "ringline.graph/1",\n  "sector": {jsontext.dumps(sector)},'
        f'\n  "vertices": {_json_list(nodes)}\n}}\n'
    )
