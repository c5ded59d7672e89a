"""Cyclic submodules of R^2 and the generalized projective line.

A point of the line is a free cyclic submodule R*v, kept as its orbit
under left multiplication.  Vectors generate the same submodule exactly
when they are unit multiples, so the scan builds each free unit class of
R^2 once, at its least member (the canonical generator), and classifies
it by whether 1 lies in r1*R + r2*R.  The scan works on vector codes
r1*n + r2, which sort like the vectors: an orbit is one sum of two
columns of the ring's code tables (``FiniteRing.scaled_columns`` and its
relatives, built once per ring), sorted as ints and read back through
``FiniteRing.vectors``, so every orbit shares one tuple per vector.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import add, itemgetter

from . import jsontext
from .errors import TooLarge
from .rings import FiniteRing, soft_max_order

Vector = tuple[int, int]


def _check_vector(ring: FiniteRing, vector: Vector) -> Vector:
    r1, r2 = vector
    if not (0 <= r1 < ring.order and 0 <= r2 < ring.order):
        raise ValueError(f"vector {vector} has components outside 0..{ring.order - 1}")
    return (r1, r2)


def unimodularity_witness(ring: FiniteRing, vector: Vector) -> Vector | None:
    """Lexicographically least (x1, x2) with r1*x1 + r2*x2 = 1, if any.

    One descending pass maps each r2*x2 to its least x2; then each x1, in
    ascending order, has one candidate: the y with r1*x1 + y = 1.
    """
    r1, r2 = _check_vector(ring, vector)
    mul, one_minus = ring.mul_table, ring.one_minus
    least_x2 = {mul[r2][x2]: x2 for x2 in reversed(ring.elements())}
    for x1 in ring.elements():
        x2 = least_x2.get(one_minus[mul[r1][x1]])
        if x2 is not None:
            return (x1, x2)
    return None


def is_unimodular(ring: FiniteRing, vector: Vector) -> bool:
    """Whether 1 lies in r1*R + r2*R: some y in r2*R lies in 1 - r1*R."""
    return _unimodular(ring, *_check_vector(ring, vector))


def _unimodular(ring: FiniteRing, r1: int, r2: int) -> bool:
    """``is_unimodular`` on components already range-checked."""
    return not ring.one_minus_multiples[r1].isdisjoint(ring.mul_table[r2])


class CyclicSubmodule(namedtuple("CyclicSubmodule", "generator orbit free unimodular generators")):
    """One left cyclic submodule of R^2: canonical generator plus orbit."""

    @cached_property
    def orbit_set(self) -> frozenset[Vector]:
        return frozenset(self.orbit)

    def __repr__(self) -> str:  # noqa: D105 - orbit elided
        sector = "unimodular" if self.unimodular else "non-unimodular"
        return f"<point R{self.generator} {sector} |orbit|={len(self.orbit)}>"


def _vectors_at(ring: FiniteRing, codes: list[int]) -> tuple[Vector, ...]:
    """The vectors with these codes, as the ring's shared ``vectors`` tuples."""
    return itemgetter(*codes)(ring.vectors) if len(codes) > 1 else (ring.vectors[codes[0]],)


def cyclic_submodule(ring: FiniteRing, vector: Vector) -> CyclicSubmodule:
    """Orbit of a vector under left multiplication, with classification.

    v is free, a -> a*v injective, when no a != 0 has a*v = 0, that is when
    the left-annihilator masks of r1 and r2 share only bit 0.  Finite rings
    have stable range 1 (Bass, *K-theory and stable algebra*, Publ. IHES
    22, 1964): if R*w = R*v, then w = a*v with R*a + ann(v) = R, so a + t is
    a unit u for some t in ann(v), and w = u*v.  If r1*x1 + r2*x2 = 1, then
    (u*r1)(x1*u^-1) + (u*r2)(x2*u^-1) = 1, so every generator, v included,
    decides unimodularity, and ``is_unimodular``'s test runs on v itself,
    on the components checked once above.  Only free vectors are tested:
    r1*x1 + r2*x2 = 1 and a*v = 0 force a = 0.
    """
    r1, r2 = _check_vector(ring, vector)
    free = ring.left_annihilators[r1] & ring.left_annihilators[r2] == 1
    return _submodule(ring, r1, r2, free, free and _unimodular(ring, r1, r2))


def _submodule(ring: FiniteRing, r1: int, r2: int, free: bool, unimodular: bool) -> CyclicSubmodule:
    """R*(r1, r2) with its classification as given; every point of a line is built here.

    The orbit is {(a*r1, a*r2)}: in codes, one sum of the scaled column of
    r1 and the column of r2, sorted as ints; a vector that is not free has
    its codes deduplicated first.  The generators of R*v are its unit
    multiples u*v, the same sum over the unit columns; the canonical one is
    the least.
    """
    orbit = map(add, ring.scaled_columns[r1], ring.columns[r2])
    units = map(add, ring.scaled_unit_columns[r1], ring.unit_columns[r2])
    if not free:  # a*v = b*v for some a != b
        orbit, units = set(orbit), set(units)
    generators = _vectors_at(ring, sorted(units))
    return CyclicSubmodule(
        generator=generators[0],
        orbit=_vectors_at(ring, sorted(orbit)),
        free=free,
        unimodular=unimodular,
        generators=generators,
    )


class ProjectiveLine(namedtuple("ProjectiveLine", "ring")):
    """All free cyclic submodules of R^2, split into the two sectors, each built on first read."""

    @cached_property
    def unimodular_points(self) -> tuple[CyclicSubmodule, ...]:
        return self._sector(True)

    @cached_property
    def nonunimodular_points(self) -> tuple[CyclicSubmodule, ...]:
        return self._sector(False)

    def _sector(self, unimodular: bool) -> tuple[CyclicSubmodule, ...]:
        """Walk R^2 for the first sector read; the other sector keeps its canonical generators.

        v is free exactly when the left-annihilator masks of r1 and r2 share
        only bit 0.  Unit multiples share that test, so in code order
        (row-major over (r1, r2)) each unseen free vector is its class's
        least member, the canonical generator, and its r1 is least in U*r1:
        other rows are skipped whole.  Each class is tested for unimodularity
        once, at that generator, and its point is built with the verdict.  A
        class of the other sector only marks its unit multiples seen; that
        sector is built from the kept generators, in order, when it is read,
        with no second test.
        """
        ring = self.ring
        if "_deferred" in self.__dict__:
            return tuple(_submodule(ring, *v, True, unimodular) for v in self.__dict__.pop("_deferred"))
        n, ann, vectors = ring.order, ring.left_annihilators, ring.vectors
        seen: set[Vector] = set()
        points, deferred = [], []
        for r1, ann1, unit_multiples in zip(ring.elements(), ann, ring.unit_columns):
            if min(unit_multiples) < r1:  # u*v < v for a unit u and every v in this row
                continue
            for ann2, v in zip(ann, vectors[r1 * n:r1 * n + n]):
                if ann1 & ann2 != 1 or v in seen:
                    continue
                if _unimodular(ring, *v) == unimodular:
                    point = _submodule(ring, *v, True, unimodular)
                    seen.update(point.generators)
                    points.append(point)
                else:
                    deferred.append(v)
                    units = map(add, ring.scaled_unit_columns[r1], ring.unit_columns[v[1]])
                    seen.update(map(vectors.__getitem__, units))
        self.__dict__["_deferred"] = deferred
        return tuple(points)

    @cached_property
    def points(self) -> tuple[CyclicSubmodule, ...]:
        points = self.unimodular_points + self.nonunimodular_points
        return tuple(sorted(points, key=lambda p: p.generator))

    @cached_property
    def derived(self) -> dict:
        """``geometry.sector_incidence``'s cache; not a field, so ``==`` and ``line_to_json`` ignore it."""
        return {}

    def point_for(self, vector: Vector) -> CyclicSubmodule:
        """The stored point equal to the submodule generated by ``vector``."""
        generator = cyclic_submodule(self.ring, vector).generator
        for point in self.points:
            if point.generator == generator:
                return point
        raise KeyError(f"vector {vector} does not generate a free submodule of this line")

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"ProjectiveLine({self.ring.label!r}, {len(self.unimodular_points)} unimodular,"
            f" {len(self.nonunimodular_points)} non-unimodular)"
        )


def incidence(orbits) -> dict[Vector, int]:
    """Each vector lying on some orbit, mapped to the mask of those orbits.

    Bit i is set when the vector lies on the i-th orbit, so a vector lies
    on k points when its mask has k bits.

    On the points of a line only zero-divisor multiples can have two bits.
    A point R*v is free, and a free w in R*v has R*w = R*v, since both have
    |R| vectors: a free vector lies on its own point alone.  For a unit a,
    a*v is free.  A non-unit a has some b != 0 with b*a = 0, since a finite
    ring is Dedekind-finite (``rings.validate_tables``), so b*(a*v) = 0 and
    a*v is not free.  So the vectors that points share are among the Z*v,
    Z the non-units, and ``geometry.SectorIncidence.shared`` indexes those
    alone for the stages that read only shared vectors.
    """
    masks: dict[Vector, int] = {}
    for index, orbit in enumerate(orbits):
        bit = 1 << index
        for v in orbit:
            masks[v] = masks.get(v, 0) | bit
    return masks


def mask_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending.

    One ``str.find`` per set bit over the binary digits, lowest first.
    """
    digits = bin(mask)[:1:-1]
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return tuple(found)


def compute_line(ring: FiniteRing) -> ProjectiveLine:
    """The generalized projective line over ``ring``; each sector is built on first read.

    The order bound is checked here, before any sector is built.
    RINGLINE_MAX_ORDER overrides the soft bound of 32.
    """
    limit = soft_max_order()
    if ring.order > limit:
        raise TooLarge(
            f"line computation is bounded to order {limit} (ring has order {ring.order});"
            " set RINGLINE_MAX_ORDER to override"
        )
    return ProjectiveLine(ring)


def line_to_dict(line: ProjectiveLine) -> dict:
    """Serializable form of a line; this is also the golden-fixture format."""
    return {
        "schema": "ringline.line/1",
        "ring": line.ring.label,
        "points": [
            {
                "generator": list(point.generator),
                "sector": "unimodular" if point.unimodular else "nonunimodular",
                "orbit": [list(v) for v in point.orbit],
            }
            for point in line.points
        ],
    }


def line_to_json(line: ProjectiveLine) -> str:
    return jsontext.dumps(line_to_dict(line)) + "\n"
