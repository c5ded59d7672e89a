"""Cyclic submodules of R^2 and the generalized projective line.

A point of the line is a free cyclic submodule R*v, kept as its orbit
under left multiplication.  Vectors generate the same submodule exactly
when they are unit multiples, so the scan builds each free unit class of
R^2 once, at its least member (the canonical generator), and classifies
it by whether 1 lies in r1*R + r2*R.  Every step reads the ring's column
tables (``FiniteRing.columns`` and its relatives), built once per ring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import OrderTooLarge
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
    """Whether 1 lies in r1*R + r2*R: some y in r2*R has 1 - y in r1*R."""
    r1, r2 = _check_vector(ring, vector)
    mul = ring.mul_table
    return not set(mul[r1]).isdisjoint(map(ring.one_minus.__getitem__, mul[r2]))


@dataclass(frozen=True)
class CyclicSubmodule:
    """One left cyclic submodule of R^2: canonical generator plus orbit."""

    generator: Vector
    orbit: tuple[Vector, ...]
    free: bool
    unimodular: bool
    generators: tuple[Vector, ...]

    @cached_property
    def orbit_set(self) -> frozenset[Vector]:
        return frozenset(self.orbit)

    def __repr__(self) -> str:  # noqa: D105 - orbit elided
        sector = "unimodular" if self.unimodular else "non-unimodular"
        return f"<point R{self.generator} {sector} |orbit|={len(self.orbit)}>"


def cyclic_submodule(ring: FiniteRing, vector: Vector) -> CyclicSubmodule:
    """Orbit of a vector under left multiplication, with classification.

    The orbit is {(a*r1, a*r2)}, one zip of two columns of the
    multiplication table.  The generators of R*v are its unit multiples
    u*v, the same zip over the unit columns; the canonical one is the
    least.  Finite rings have stable range 1 (Bass, *K-theory and stable
    algebra*, Publ. IHES 22, 1964): if R*w = R*v, then w = a*v with
    R*a + ann(v) = R, so a + t is a unit u for some t in ann(v), and
    w = u*v.  If r1*x1 + r2*x2 = 1, then (u*r1)(x1*u^-1) + (u*r2)(x2*u^-1)
    = 1, so every generator, v included, decides unimodularity, and
    ``is_unimodular`` tests v itself.  Only free vectors are tested:
    r1*x1 + r2*x2 = 1 and a*v = 0 force a = 0.
    """
    r1, r2 = _check_vector(ring, vector)
    columns, unit_columns = ring.columns, ring.unit_columns
    orbit = set(zip(columns[r1], columns[r2]))
    generators = tuple(sorted(set(zip(unit_columns[r1], unit_columns[r2]))))
    free = len(orbit) == ring.order
    return CyclicSubmodule(
        generator=generators[0],
        orbit=tuple(sorted(orbit)),
        free=free,
        unimodular=free and is_unimodular(ring, vector),
        generators=generators,
    )


@dataclass(frozen=True)
class ProjectiveLine:
    """All free cyclic submodules of R^2, split into the two sectors."""

    ring: FiniteRing
    unimodular_points: tuple[CyclicSubmodule, ...]
    nonunimodular_points: tuple[CyclicSubmodule, ...]

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
    """Scan all of R^2 and assemble the generalized projective line.

    v is free exactly when no a != 0 has a*r1 = a*r2 = 0, that is when
    the left-annihilator masks of r1 and r2 share only bit 0.  Unit
    multiples share that test, so row-major over (r1, r2), each unseen
    free vector gets one ``cyclic_submodule`` call, which marks its unit
    class seen.  A smaller class member would have come first, so each
    point is built at its canonical generator, in sorted order.
    RINGLINE_MAX_ORDER overrides the soft bound of 32.
    """
    limit = soft_max_order()
    if ring.order > limit:
        raise OrderTooLarge(
            f"line computation is bounded to order {limit} (ring has order {ring.order});"
            " set RINGLINE_MAX_ORDER to override"
        )
    ann = ring.left_annihilators
    seen: set[Vector] = set()
    unimodular: list[CyclicSubmodule] = []
    nonunimodular: list[CyclicSubmodule] = []
    for r1, ann1 in enumerate(ann):
        for r2, ann2 in enumerate(ann):
            if ann1 & ann2 == 1 and (r1, r2) not in seen:
                point = cyclic_submodule(ring, (r1, r2))
                seen.update(point.generators)
                (unimodular if point.unimodular else nonunimodular).append(point)
    return ProjectiveLine(
        ring=ring,
        unimodular_points=tuple(unimodular),
        nonunimodular_points=tuple(nonunimodular),
    )


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
    return json.dumps(line_to_dict(line), indent=2, sort_keys=True) + "\n"
