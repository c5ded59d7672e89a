"""Neighbour/distant structure of a projective ring line.

Two distinct points are distant when their orbits meet only in the zero
vector and neighbour otherwise; a point is neighbour to itself only with
``allow_same=True``.  Each sector's code-keyed incidence index and
neighbour rows are made once per line, on first read
(``sector_incidence``), and every stage reads them.

Maximum cliques are searched on the twin quotient (see ``cliques``).  On the
unimodular sector the distant twin classes are the fibres of P(R) -> P(R/J)
(see ``unimodular_partition``): T(4)'s 122 880 maximum distant cliques come
from 120 quotient cliques of 5 of its 25 fibres of 4 points.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, reduce
from itertools import chain, repeat
from math import prod
from operator import or_

from . import jsontext
from .cliques import Clique, cliques_through, expand, maximum_cliques, maximum_size
from .errors import BadInput, NoAnswer
from .line import CyclicSubmodule, ProjectiveLine, mask_indices, multiple_codes

SECTORS = ("unimodular", "nonunimodular", "whole")


def sector_points(line: ProjectiveLine, sector: str) -> tuple[CyclicSubmodule, ...]:
    if sector == "unimodular":
        return line.unimodular_points
    if sector == "nonunimodular":
        return line.nonunimodular_points
    if sector == "whole":
        return line.points
    raise ValueError(f"unknown sector {sector!r}; expected one of {SECTORS}")


def relation(p: CyclicSubmodule, q: CyclicSubmodule, allow_same: bool = False) -> str:
    """"distant" or "neighbour", for two points over one ring, decided on codes.

    q is p when the two have one canonical generator.  Otherwise the two
    share only zero-divisor multiples (see ``SectorIncidence``), so they are
    distant when their Z*v meet only in code 0, the zero vector.
    """
    ring = p.ring
    if q.ring != ring:
        raise BadInput(f"R{p.generator} over {ring.label} and R{q.generator} over {q.ring.label}: not one ring")
    if not (p.free and q.free):
        raise BadInput(f"R{(q if p.free else p).generator} is not free, so it is no point of a line")
    if q.generator == p.generator:
        if allow_same:
            return "neighbour"
        raise BadInput(f"relation of point R{p.generator} with itself (pass allow_same=True for the reflexive convention)")
    zp, zq = (set(multiple_codes(x.generator, ring.zero_divisor_multiples)) for x in (p, q))
    return "distant" if zp & zq == {0} else "neighbour"


class RelationGraph(namedtuple("RelationGraph", "neighbours")):
    """Neighbour bitmask rows of a sector; ``distant()`` is the complement."""

    @classmethod
    def of(cls, masks, size) -> "RelationGraph":
        """Row i (of ``size``) ORs the distinct ``masks`` holding bit i, without bit i; a mask is the
        points on a nonzero shared vector."""
        rows = [0] * size
        for mask in set(masks):
            for i in mask_indices(mask):
                rows[i] |= mask
        return cls(tuple(row & ~(1 << i) for i, row in enumerate(rows)))

    def distant(self) -> tuple[int, ...]:
        full = (1 << len(self.neighbours)) - 1
        return tuple(full & ~(row | 1 << i) for i, row in enumerate(self.neighbours))


class SectorIncidence(namedtuple("SectorIncidence", "ring points")):
    """Everything one sector of a line gives every stage, each derived on first read.

    The incidence is keyed by vector code (``line.multiple_codes``): ``masks`` maps each
    vector on some point to the mask of the points holding it (bit i for
    point i).  Points share only zero-divisor multiples.  A point is free,
    and a free w in R*v has R*w = R*v, since both have |R| vectors; so a
    free vector lies on its own point alone.  For a unit a, a*v is free.  A
    non-unit a has some b != 0 with b*a = 0, since a finite ring is
    Dedekind-finite (``rings.validate_tables``), so b*(a*v) = 0 and a*v is
    not free.  So R*v is its generators U*v, each on this point alone, and
    Z*v, Z the non-units.  ``shared`` holds the nonzero Z*v of every point
    with the mask of every point through it; the neighbour rows, the
    partition and the cross check read it alone.  ``masks`` is ``shared``
    plus each U*v at its point's bit and the zero at every point's, for
    the stages that need every vector: condensation, the reference
    structures, private vectors and the export.  Each is built on first read.
    """

    @cached_property
    def masks(self) -> dict[int, int]:
        ring, masks = self.ring, dict(self.shared)
        for i, point in enumerate(self.points):
            masks.update(dict.fromkeys(multiple_codes(point.generator, ring.unit_multiples), 1 << i))
        if self.points:
            masks[0] = (1 << len(self.points)) - 1
        return masks

    @cached_property
    def shared(self) -> dict[int, int]:
        ring, index = self.ring, {}
        get = index.get
        for i, point in enumerate(self.points):
            bit = 1 << i
            for code in multiple_codes(point.generator, ring.zero_divisor_multiples):
                index[code] = get(code, 0) | bit
        index.pop(0, None)  # 0*v, on every point
        return index

    @cached_property
    def graph(self) -> RelationGraph:
        return RelationGraph.of(self.shared.values(), len(self.points))

    def rows(self, kind: str) -> tuple[int, ...]:
        """The bitmask rows of the ``kind`` ("distant" or "neighbour") relation."""
        return self.graph.distant() if kind == "distant" else self.graph.neighbours


def sector_incidence(line: ProjectiveLine, sector: str) -> SectorIncidence:
    """The sector's ``SectorIncidence``, built on first use and kept in ``line.derived``."""
    if sector not in line.derived:
        line.derived[sector] = SectorIncidence(line.ring, sector_points(line, sector))
    return line.derived[sector]


def _nonempty(line: ProjectiveLine, sector: str) -> SectorIncidence:
    """``sector_incidence``; NoAnswer when the sector has no points."""
    data = sector_incidence(line, sector)
    if not data.points:
        raise NoAnswer(f"the {sector} sector of {line.ring.label} is empty")
    return data


def sector_cliques(line: ProjectiveLine, sector: str, kind: str) -> list[Clique]:
    """The sector's maximum ``kind`` cliques as ``maximum_cliques`` lists them, on ``sector_points``."""
    return maximum_cliques(_nonempty(line, sector).rows(kind))[1]


def sector_clique_size(line: ProjectiveLine, kind: str) -> int:
    """The size of the unimodular sector's maximum ``kind`` cliques, searched without listing them.

    Only the cliques through point 0 are searched.  GL2(R) acts
    transitively on the unimodular points and keeps the distant relation,
    hence the neighbour relation (see ``unimodular_partition``), so it maps
    a maximum clique of either kind onto one through any point.
    """
    return maximum_size(sector_incidence(line, "unimodular").rows(kind), 0)


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

    The classes must be disjoint and cover the sector (else NoAnswer names
    the offending point).  Points of one class share a nonzero vector, so
    they are pairwise neighbour; by pigeonhole a distant clique of size
    #classes meets every class exactly once.  So the one check on the
    maximum distant cliques is their size, and ``anchor_sets_checked`` is
    their count.  Both, and the anchors, are read off the quotient cliques
    through sector point 0 (``cliques_through``), none of them listed.

    Right multiplication by M in GL2(R) is a bijection of R^2 taking R(a, b)
    to R((a, b)M), so it keeps freeness, unimodularity and intersection
    sizes, hence the distant relation.  It takes any unimodular point to
    R(1, 0): finite rings have stable range 1 (Bass, Publ. IHES 22, 1964),
    so a unimodular (c, d), cR + dR = R, has c + d*t = u a unit for some t,
    and (c, d)[[1, 0], [t, 1]][[u^-1, -u^-1*d], [0, 1]] = (1, 0).  So every
    point lies on as many maximum distant cliques, c(0), as point 0 does,
    and counting (point, clique) pairs gives #cliques * size = #points *
    c(0).  Point 0 lies on one, so the least maximum clique holds it.

    So the distant graph is vertex-transitive: its clique number k times its
    coclique number, the maximum neighbour size, is at most #points (the
    clique-coclique bound; Albertson & Collins, Discrete Math. 54, 1985), and
    on a finite ring equal to it.  Two unimodular points are distant iff the
    matrix of their generators is invertible (see ``cross_sector_check``), iff
    it is modulo the Jacobson radical J (Lam, GTM 131): points are distant iff
    their images in P(R/J) are, and equal images never are.  GL2(R) maps onto
    GL2(R/J), so the fibres of U -> P(R/J) (Blunck & Havlicek, Math. Pannon.
    14, 2003) have one size f: k is P(R/J)'s, and a neighbour clique there
    lifts to one f times as large.  R/J is a product of rings M_n(GF(q))
    (Wedderburn-Artin, Wedderburn's little theorem), where a matrix is
    invertible iff each component is.  Over M_n(GF(q)), R(A, B) is the row
    space of (A B), an n-space of GF(q)^2n, and distant means complementary:
    counting vectors, at most q^n + 1 points are pairwise distant, the
    GF(q^n)-lines of GF(q^n)^2 are q^n + 1 such, and the [2n-1, n-1]_q =
    #points/(q^n + 1) n-spaces through a nonzero vector are pairwise neighbour.
    With s the least q^n + 1, k = s on P(R/J) (zip the factors' distant cliques
    for >=, project for <=), and the points whose coordinate in that factor
    lies in one star are a neighbour clique of |P(R/J)|/s, lifting to
    #points/k.  Distinct images are no twins: where they differ, a complement
    of the one through a vector of the other is distant to one only.
    """
    data = sector_incidence(line, "unimodular")
    points = data.points
    # a point's generators lie on it alone
    masks = set(data.shared.values()).union(1 << i for i in range(len(points)))
    sizes = {m: m.bit_count() for m in masks}
    best = max(sizes.values(), default=0)
    classes = sorted((m for m, size in sizes.items() if size == best), key=mask_indices)
    covered = 0
    for cls in classes:
        if covered & cls:
            twice = points[mask_indices(covered & cls)[0]]
            raise NoAnswer(
                f"point R{twice.generator} lies in two maximal vector classes",
                witness=(twice,),
            )
        covered |= cls
    uncovered = [points[i] for i in mask_indices(~covered & ((1 << len(points)) - 1))]
    if uncovered:
        raise NoAnswer(
            f"point R{uncovered[0].generator} lies in no maximal vector class",
            witness=tuple(uncovered),
        )
    size, cliques = cliques_through(data.rows("distant"), 0)
    if size != len(classes):
        raise NoAnswer(
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

    On a finite ring it always is, since a point with any distant partner is
    unimodular.  Let Rv and Rw be distant.  Both are free and meet only in
    0, so Rv + Rw has |R|^2 vectors: Rv + Rw = R^2, and x*v + y*w = (1, 0),
    x'*v + y'*w = (0, 1) for some x, y, x', y'.  That is N*M = I, where M
    has rows v and w and N rows (x, y) and (x', y').  M2(R) is finite, hence
    Dedekind-finite, so M*N = I, whose row 1 says a*x + b*x' = 1 for v =
    (a, b): v is unimodular, and w likewise.  So the non-unimodular sector
    is one neighbour clique, neighbour to every point of the line, and
    ``cli.build_line_report`` reads its sizes, 1 and its point count, and
    this verdict off the proof; this check is the proof's test oracle.

    Returns (True, None) or (False, counterexample pair), reading each point's
    unimodular neighbours off the unimodular ``shared`` masks of its Z*v (its
    zero finds none); its other vectors are free, so they lie on it alone.
    """
    unimodular, nonunimodular = line.unimodular_points, line.nonunimodular_points
    if not nonunimodular or not unimodular:
        raise NoAnswer(f"{line.ring.label}: both sectors must be non-empty for the cross check")
    data = sector_incidence(line, "unimodular")
    sector = (1 << len(unimodular)) - 1
    for nu in nonunimodular:
        codes = multiple_codes(nu.generator, line.ring.zero_divisor_multiples)
        distant = sector & ~reduce(or_, map(data.shared.get, codes, repeat(0)), 0)
        if distant:
            return False, (nu, unimodular[mask_indices(distant)[0]])
    return True, None


# Per format, the parts of one vertex's edges (k, b): head + id_k + mid + id_b + tail, joined by
# joint.  Vertex k's edges are three pieces of the document: left = head + id_k + mid, its edges'
# right ends (id_b + tail) joined by joint + left, and joint.
_EDGE_TEXT = {
    "dot": ('  "', '" -- "', '";', "\n"),
    "json": ('    [\n      "', '",\n      "', '"\n    ]', ",\n"),
}


def export_graph(line: ProjectiveLine, sector: str, fmt: str) -> str:
    """Vector co-residence network of the selected sector(s).

    Vertices are the vectors lying on at least one point of the sector, in
    lexicographic order, weighted by how many points contain them; edges
    join vectors sharing a point, in lexicographic pair order.  The sector's
    code-keyed ``masks`` give the vertices, sorted as ints, and their
    signatures; only the printed vectors are decoded.  Vectors with one
    signature are true twins: their closed neighbourhood is the union of
    their points' orbits, and vector k's edges (k, b) are the part of it
    above k.  Each point's orbit is read once, as ascending vertex indices,
    so a one-point signature's neighbourhood is its point's orbit; only a
    signature of several points merges and sorts its orbits.  Each
    signature builds the list of its edges' right ends once; each vector's
    edges are one slice of it, joined into one piece of a list that holds
    the whole document and is joined once.  The JSON text is laid out as
    ``json.dumps(indent=2, sort_keys=True)`` would lay it out; only the
    label and sector go through ``jsontext.dumps``.
    Sent whole through ``jsontext.dumps``, the document is the same text, but
    on a 2-vCPU host that call alone took 0.9 s for the 12 JSON exports of
    GF(3)*T(2), T(3), GF(4)*T(2) and GF(5)*T(2), against 0.06-0.07 s for
    the hand-laid exports.  An empty sector gives an empty document.
    """
    if fmt not in _EDGE_TEXT:
        raise BadInput(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
    data, ring = sector_incidence(line, sector), line.ring
    masks = data.masks
    codes = sorted(masks)  # codes sort like the vectors
    vertices = dict(zip(codes, range(len(codes))))  # code -> its index
    orbits = []  # each point's Z*v then U*v, as ascending vertex indices
    for p in data.points:
        orbit = chain(multiple_codes(p.generator, ring.zero_divisor_multiples),
                      multiple_codes(p.generator, ring.unit_multiples))
        orbits.append(sorted(map(vertices.__getitem__, orbit)))
    vectors = list(map(divmod, codes, repeat(ring.order)))
    sep = "" if ring.order <= 10 else "_"  # two-digit ids for small rings
    ids = [f"{a}{sep}{b}" for a, b in vectors]
    head, mid, tail, joint = _EDGE_TEXT[fmt]
    rights = [i + tail for i in ids]
    closed = {}  # signature -> its ascending neighbourhood and their right ends
    for m in set(masks.values()):
        if m & (m - 1):
            hood = sorted(set().union(*map(orbits.__getitem__, mask_indices(m))))
        else:
            hood = orbits[m.bit_length() - 1]
        closed[m] = hood, list(map(rights.__getitem__, hood))
    if fmt == "dot":
        name = f"{line.ring.label} {sector}".replace('"', '\\"')
        nodes = [f'  "{i}" [weight={masks[c].bit_count()}];\n' for i, c in zip(ids, codes)]
        parts = [f'graph "{name}" {{\n', *nodes]
    else:
        parts = ['{\n  "edges": ', "[\n"]
    for k, c in enumerate(codes):
        hood, texts = closed[masks[c]]  # hood holds k
        if hood[-1] > k:
            left = head + ids[k] + mid
            parts += left, (joint + left).join(texts[bisect_right(hood, k):]), joint
    if fmt == "json":  # a list's last joint, or its "[\n" if it is empty, closes it as json.dumps does
        parts[-1] = "[]" if parts[-1] == "[\n" else "\n  ]"
        parts += (f',\n  "ring": {jsontext.dumps(line.ring.label)},\n  "schema": "ringline.graph/1",'
                  f'\n  "sector": {jsontext.dumps(sector)},\n  "vertices": ', "[\n")
        for i, (a, b), c in zip(ids, vectors, codes):
            parts += (f'    {{\n      "id": "{i}",\n      "vector": [\n        {a},\n        {b}\n      ],'
                      f'\n      "weight": {masks[c].bit_count()}\n    }}', ",\n")
        parts[-1] = "[]" if parts[-1] == "[\n" else "\n  ]"
    parts.append("}\n" if fmt == "dot" else "\n}\n")
    return "".join(parts)
