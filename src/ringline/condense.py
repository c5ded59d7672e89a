"""Condensation of the non-unimodular sector and reference-line matching.

Condensing groups the vectors covered by the non-unimodular points into
classes with identical point membership (their "signature"); the classes,
with one edge per point, form a small incidence structure.  On the
order-8 ternion line this collapses the three non-unimodular points onto
four quadruples of vectors arranged exactly like the projective line over
GF(2).

Reference lines over catalog rings are condensed the same way, from
their unimodular sector.  Both are signature quotients, so no two
vertices lie on the same edges, and they are compared by exact
isomorphism.  Class sizes are structural multiplicities, not identity.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from itertools import repeat
from operator import itemgetter

from .cliques import maximum_size
from .constructors import construct
from .errors import NoAnswer, TooLarge
from .geometry import SectorIncidence, _nonempty, sector_incidence
from .line import ProjectiveLine, Vector, compute_line, mask_indices
from .rings import ISOMORPHISM_MAX_ORDER

ZERO: Vector = (0, 0)

MAX_STRUCTURE_VERTICES = 200

DEFAULT_CATALOG = ("GF(2)", "Z(4)", "D(2)", "Z(6)", "GF(2)*GF(2)", "GF(2)*GF(3)")


class VectorClass(namedtuple("VectorClass", "members signature")):
    """Vectors sharing one membership signature over the structure's edges."""


class IncidenceStructure(namedtuple("IncidenceStructure", "label vertices edges")):
    """Vector classes (vertices) and per-point vertex sets (edges).

    The edges' meet matrix, which matching and the distant analysis read,
    and their invariants are built on first use and kept with the
    structure, so a cached catalog reference builds them once per process.
    """

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.edges

    @cached_property
    def meets(self) -> tuple[tuple[int, ...], ...]:
        """``meets[i][j]``: the number of vertices edges i and j share."""
        sets = [frozenset(edge) for edge in self.edges]
        return tuple(tuple(len(s & t) for t in sets) for s in sets)

    @cached_property
    def edge_invariants(self) -> tuple[tuple, ...]:
        """Per edge: its size, its vertices' sorted degrees, its sorted meets with the other edges."""
        degrees = [len(vc.signature) for vc in self.vertices]
        return tuple(
            (len(edge), tuple(sorted(degrees[v] for v in edge)), tuple(sorted(row[:i] + row[i + 1:])))
            for i, (edge, row) in enumerate(zip(self.edges, self.meets))
        )


def condense(line: ProjectiveLine) -> IncidenceStructure:
    """Quotient the non-unimodular sector's vectors by equal signatures.

    Vertices are ordered by least member; each non-unimodular point
    becomes one edge listing the classes inside it.  The signatures are
    the sector's code-keyed ``masks``, read from ``sector_incidence``.  An
    empty sector gives the empty structure.
    """
    return _signature_quotient(f"condensate({line.ring.label})", sector_incidence(line, "nonunimodular"))


def _signature_quotient(label: str, sector: SectorIncidence) -> IncidenceStructure:
    """Classes of vectors with one mask (bit i: on point i); edge i lists the classes on point i.

    Classes are grouped and sorted as codes, which sort like the vectors,
    and decoded once.
    """
    grouped: dict[int, list[int]] = {}
    for code, mask in sector.masks.items():
        grouped.setdefault(mask, []).append(code)
    classes = sorted((sorted(codes), mask) for mask, codes in grouped.items())
    n = sector.ring.order
    vertices = tuple(
        VectorClass(tuple(map(divmod, codes, repeat(n))), frozenset(mask_indices(mask))) for codes, mask in classes
    )
    edges = [[] for _ in sector.points]  # classes ascend, so each edge's indices do
    for i, (_, mask) in enumerate(classes):
        for index in mask_indices(mask):
            edges[index].append(i)
    return IncidenceStructure(label=label, vertices=vertices, edges=tuple(map(tuple, edges)))


def private_vectors(line: ProjectiveLine, sector: str) -> dict[Vector, tuple[Vector, ...]]:
    """Per point, keyed by canonical generator, the vectors on no other point of the sector, ascending.

    Point i's are the sector's signature class {i}, which holds its
    generators.  On the order-8 ternion line these are a point's two
    generators, and two more vectors on a non-unimodular point.
    """
    data = _nonempty(line, sector)
    classes = {vc.signature: vc.members for vc in _signature_quotient(line.ring.label, data).vertices}
    return {point.generator: classes[frozenset((i,))] for i, point in enumerate(data.points)}


@cache
def reference_structure(spec: str) -> IncidenceStructure:
    """Unimodular sector of the line over a catalog ring, condensed.

    Built like a condensate: vectors on the same points form one vertex
    (the zero vector's class lies on every point), one edge per point.
    Built once per spec and process (the structure is immutable); a call
    that raises, such as TooLarge, is not cached.
    """
    ring = construct(spec)
    if ring.order > ISOMORPHISM_MAX_ORDER:
        raise TooLarge(f"reference lines are bounded to ring order {ISOMORPHISM_MAX_ORDER}, got {ring.order}")
    return _signature_quotient(f"P({ring.label})", sector_incidence(compute_line(ring), "unimodular"))


class StructureIsomorphism(namedtuple("StructureIsomorphism", "a b vertex_map edge_map")):
    """Witness of an isomorphism from structure ``a`` to structure ``b``."""

    def check(self) -> bool:
        """Re-verify that the maps preserve incidence both ways."""
        a, b = self.a, self.b
        if sorted(self.vertex_map) != list(range(len(b.vertices))):
            return False
        if sorted(self.edge_map) != list(range(len(b.edges))):
            return False
        for i, edge in enumerate(a.edges):
            if sorted(self.vertex_map[v] for v in edge) != list(b.edges[self.edge_map[i]]):
                return False
        return True


def structures_isomorphic(a: IncidenceStructure, b: IncidenceStructure) -> StructureIsomorphism | None:
    """Decide isomorphism of two incidence structures, with witness.

    Precondition, which ``condense`` and ``reference_structure`` meet: on
    each side every vertex lies on its own non-empty edge set, so a vertex
    is named by its signature.  The search backtracks over edge
    bijections, pruned by edge size, vertex-degree profile and pairwise
    intersection sizes, read from each structure's ``edge_invariants``
    and ``meets`` rows, and accepts when the induced signature
    correspondence is a vertex bijection.  The witness is the
    lexicographically least edge mapping.  TooLarge only for equal sizes
    above MAX_STRUCTURE_VERTICES.
    """
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return None
    if len(a.vertices) > MAX_STRUCTURE_VERTICES:
        raise TooLarge(f"structure isomorphism is bounded to {MAX_STRUCTURE_VERTICES} vertices")
    m = len(a.edges)
    # Not implied by the exact search: without these invariants, structures
    # that differ by one incidence cost seconds to minutes of backtracking.
    inv_a, inv_b = a.edge_invariants, b.edge_invariants
    if sorted(inv_a) != sorted(inv_b):
        return None
    candidates = [[j for j in range(m) if inv_b[j] == inv_a[i]] for i in range(m)]
    meets_a, meets_b = a.meets, b.meets

    edge_map = [0] * m  # entries below i are the partial map
    taken = [False] * m

    def extend(i: int) -> list[int] | None:
        if i == m:
            return _signature_bijection(a, b, edge_map)
        if i:  # edge i's meets with the mapped edges, and a reader of a candidate's with their
            # images (both give a tuple, or an int when i == 1)
            placed, images = itemgetter(*range(i))(meets_a[i]), itemgetter(*edge_map[:i])
        for j in candidates[i]:
            if taken[j] or i and images(meets_b[j]) != placed:
                continue
            edge_map[i] = j
            taken[j] = True
            if (vertex_map := extend(i + 1)) is not None:
                return vertex_map
            taken[j] = False
        return None

    vertex_map = extend(0)
    if vertex_map is None:
        return None
    return StructureIsomorphism(a, b, vertex_map=tuple(vertex_map), edge_map=tuple(edge_map))


def _signature_bijection(a, b, edge_map) -> list[int] | None:
    """Vertex map induced by an edge bijection, or None if it is not one."""
    by_signature = {vc.signature: i for i, vc in enumerate(b.vertices)}
    vertex_map = []
    for vc in a.vertices:
        target = by_signature.get(frozenset(edge_map[e] for e in vc.signature))
        if target is None:
            return None
        vertex_map.append(target)
    return vertex_map


class CondensateIdentification(namedtuple("CondensateIdentification", "status matches condensate")):
    """Outcome of matching a condensate against the reference catalog.

    ``status`` is "matched", "no catalog match" or "empty".
    """


def identify_condensate(
    line: ProjectiveLine, catalog: tuple[str, ...] | None = None
) -> CondensateIdentification:
    """Condense a line and report every catalog reference it matches; a
    spec listed twice in ``catalog`` is matched and reported once, in its first place."""
    specs = DEFAULT_CATALOG if catalog is None else tuple(dict.fromkeys(catalog))
    structure = condense(line)
    if structure.is_empty:
        return CondensateIdentification(status="empty", matches=(), condensate=structure)
    matches = tuple(
        spec for spec in specs if structures_isomorphic(structure, reference_structure(spec))
    )
    status = "matched" if matches else "no catalog match"
    return CondensateIdentification(status=status, matches=matches, condensate=structure)


def condensate_distant_analysis(structure: IncidenceStructure) -> int:
    """Maximum number of pairwise distant condensed points.

    Two edges count as distant when they share only the class of the zero
    vector, mirroring the orbit-intersection rule one level up.  That class
    lies on every edge, so edges i != j are distant when ``meets[i][j]`` is 1.
    """
    if structure.is_empty:
        raise NoAnswer("cannot analyse an empty incidence structure")
    zero_classes = [i for i, vc in enumerate(structure.vertices) if ZERO in vc.members]
    if len(zero_classes) != 1:
        raise NoAnswer("structure has no class containing the zero vector")
    if not all(zero_classes[0] in e for e in structure.edges):
        raise NoAnswer("the zero vector's class is not on every edge")
    rows = [sum(1 << j for j, meet in enumerate(row) if meet == 1) & ~(1 << i) for i, row in enumerate(structure.meets)]
    return maximum_size(rows)
