"""Cyclic submodules of R^2 and the generalized projective line.

A point of the line is a free cyclic submodule R*v, kept as its canonical
generator.  Vectors generate the same submodule exactly when they are unit
multiples, so one walk over the vector codes of R^2 (``multiple_codes``)
meets each free unit class once, at its least member (the canonical
generator), and sorts it into its sector by whether 1 lies in r1*R + r2*R.
Each sector builds its points from its generators when first read, and a
point's orbit, Z*v then U*v, is summed from the ring's zero-divisor and
unit multiples (``FiniteRing.zero_divisor_multiples``, ``unit_multiples``)
when first read.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain, repeat
from operator import add

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


def multiple_codes(vector: Vector, multiples) -> map:
    """The codes of x*v, for each x of one element subset, ascending.

    The code of a vector (r1, r2) is r1*n + r2; codes sort like the vectors
    and ``divmod(code, n)`` decodes one.  ``multiples`` is the subset's pair
    ``(scaled, columns)``, ``ring.unit_multiples`` or
    ``ring.zero_divisor_multiples``: ``columns[r][k]`` is x_k*r and
    ``scaled[r][k]`` is n*(x_k*r), so x_k*v has code
    ``scaled[r1][k] + columns[r2][k]``.
    """
    r1, r2 = vector
    scaled, columns = multiples
    return map(add, scaled[r1], columns[r2])


class CyclicSubmodule(namedtuple("CyclicSubmodule", "generator free unimodular ring")):
    """One left cyclic submodule R*v of R^2, kept as its canonical generator v.

    Its orbit {a*v}, that is Z*v then U*v (Z the zero divisors, U the units),
    and its generators U*v are derived on first read: ``multiple_codes``
    over the ring's two subsets, sorted as ints (deduplicated first when
    v is not free) and decoded with ``divmod(code, n)``.
    """

    @cached_property
    def orbit(self) -> tuple[Vector, ...]:
        ring = self.ring
        return self._decoded(chain(
            multiple_codes(self.generator, ring.zero_divisor_multiples),
            multiple_codes(self.generator, ring.unit_multiples),
        ))

    @cached_property
    def generators(self) -> tuple[Vector, ...]:
        return self._decoded(multiple_codes(self.generator, self.ring.unit_multiples))

    def _decoded(self, codes) -> tuple[Vector, ...]:
        if not self.free:  # a*v = b*v for some a != b
            codes = set(codes)
        return tuple(map(divmod, sorted(codes), repeat(self.ring.order)))

    def __repr__(self) -> str:  # noqa: D105 - a free orbit has |R| vectors
        sector = "unimodular" if self.unimodular else "non-unimodular"
        size = self.ring.order if self.free else len(self.orbit)
        return f"<point R{self.generator} {sector} |orbit|={size}>"


def cyclic_submodule(ring: FiniteRing, vector: Vector) -> CyclicSubmodule:
    """R*v at its canonical generator, the least unit multiple u*v, with classification.

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
    least = min(multiple_codes((r1, r2), ring.unit_multiples))
    return _submodule(ring, *divmod(least, ring.order), free, free and _unimodular(ring, r1, r2))


def _submodule(ring: FiniteRing, r1: int, r2: int, free: bool, unimodular: bool) -> CyclicSubmodule:
    """R*(r1, r2), at its canonical generator, classified as given; every point of a line is built here."""
    return CyclicSubmodule(generator=(r1, r2), free=free, unimodular=unimodular, ring=ring)


class ProjectiveLine(namedtuple("ProjectiveLine", "ring")):
    """All free cyclic submodules of R^2, split into the two sectors, each built on first read."""

    @cached_property
    def unimodular_points(self) -> tuple[CyclicSubmodule, ...]:
        return tuple(_submodule(self.ring, r1, r2, True, True) for r1, r2 in self._generators[True])

    @cached_property
    def nonunimodular_points(self) -> tuple[CyclicSubmodule, ...]:
        return tuple(_submodule(self.ring, r1, r2, True, False) for r1, r2 in self._generators[False])

    @cached_property
    def _generators(self) -> dict[bool, list[Vector]]:
        """Both sectors' canonical generators, in code order, keyed by unimodularity, from one walk of R^2.

        v is free exactly when the left-annihilator masks of r1 and r2 share
        only bit 0.  Unit multiples share that test, so in code order each
        unseen free vector is its class's least member, the canonical
        generator, and its r1 is least in U*r1: other rows are skipped whole.
        Each class marks its unit multiples seen and is tested once, at that
        generator.
        """
        ring = self.ring
        n, ann = ring.order, ring.left_annihilators
        seen: set[int] = set()
        sectors: dict[bool, list[Vector]] = {True: [], False: []}
        for r1, ann1 in enumerate(ann):
            row = r1 * n
            if min(multiple_codes((r1, 0), ring.unit_multiples)) < row:  # u*v < v for a unit u and every v in this row
                continue
            for r2, ann2 in enumerate(ann):
                if ann1 & ann2 != 1 or row + r2 in seen:
                    continue
                seen.update(multiple_codes((r1, r2), ring.unit_multiples))
                sectors[_unimodular(ring, r1, r2)].append((r1, r2))
        return sectors

    @cached_property
    def points(self) -> tuple[CyclicSubmodule, ...]:
        points = self.unimodular_points + self.nonunimodular_points
        return tuple(sorted(points, key=lambda p: p.generator))

    @cached_property
    def derived(self) -> dict:
        """``geometry.sector_incidence``'s cache; not a field, so ``==`` and ``line_to_json`` ignore it."""
        return {}

    def __repr__(self) -> str:  # noqa: D105
        return (
            f"ProjectiveLine({self.ring.label!r}, {len(self.unimodular_points)} unimodular,"
            f" {len(self.nonunimodular_points)} non-unimodular)"
        )


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
