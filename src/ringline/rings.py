"""Finite associative rings with unity, presented by explicit Cayley tables.

Elements are opaque indices ``0..n-1``; index 0 is the additive identity
and index 1 the multiplicative identity.  Every check here is exhaustive
(triple loops over the tables), which stays cheap at the orders this
package targets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from .errors import AxiomViolation, IdentityMissing, OrderTooLarge, ParseError

Table = tuple[tuple[int, ...], ...]

DEFAULT_MAX_ORDER = 32
ISOMORPHISM_MAX_ORDER = 16

_MAX_ORDER_ENV = "RINGLINE_MAX_ORDER"


def soft_max_order() -> int:
    """Soft order bound for line scans and ideal enumeration; RINGLINE_MAX_ORDER overrides it."""
    raw = os.environ.get(_MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{_MAX_ORDER_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class FiniteRing:
    """A validated finite ring: two Cayley tables plus derived element sets."""

    order: int
    add_table: Table
    mul_table: Table
    units: frozenset[int]
    zero_divisors: frozenset[int]
    label: str

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    @cached_property
    def is_commutative(self) -> bool:
        mul = self.mul_table
        return all(
            mul[a][b] == mul[b][a]
            for a in self.elements()
            for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:  # noqa: D105 - compact form, tables elided
        return f"FiniteRing({self.label!r}, order={self.order})"


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as its element set."""

    elements: frozenset[int]

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def __repr__(self) -> str:  # noqa: D105
        return f"Ideal({self.sorted_elements})"


def _normalize(table, name: str) -> Table:
    rows = tuple(tuple(int(x) for x in row) for row in table)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AxiomViolation("shape", (name, i), f"{name} row {i} has length {len(row)}, expected {n}")
        for j, x in enumerate(row):
            if not 0 <= x < n:
                raise AxiomViolation("closure", (name, i, j), f"{name}[{i}][{j}] = {x} is out of range")
    return rows


def validate_tables(add_table, mul_table, label: str | None = None) -> FiniteRing:
    """Validate a pair of Cayley tables and derive the unit/zero-divisor split.

    Checks exhaustively that the addition table is an abelian group with
    identity at index 0, that multiplication is associative with a two-sided
    identity at index 1, and that both distributive laws hold.  Tables whose
    additive identity sits elsewhere are rejected, never relabeled.

    Raises AxiomViolation (carrying the failed axiom name and a witness
    tuple) or IdentityMissing.
    """
    add = _normalize(add_table, "add")
    mul = _normalize(mul_table, "mul")
    n = len(add)
    if n < 2:
        raise IdentityMissing("a ring needs 1 != 0, so the order must be at least 2")
    if len(mul) != n:
        raise AxiomViolation("shape", ("mul", n), "add and mul tables have different sizes")

    for i in range(n):
        if add[0][i] != i or add[i][0] != i:
            raise AxiomViolation("additive_identity", (i,))
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                raise AxiomViolation("additive_commutativity", (a, b))
    for a in range(n):
        if 0 not in add[a]:
            raise AxiomViolation("additive_inverse", (a,))
    for i in range(n):
        if mul[1][i] != i or mul[i][1] != i:
            raise IdentityMissing(f"no two-sided multiplicative identity at index 1 (element {i} misbehaves)")

    for a in range(n):
        add_a = add[a]
        mul_a = mul[a]
        for b in range(n):
            ab_sum = add_a[b]
            ab_prod = mul_a[b]
            for c in range(n):
                if add[ab_sum][c] != add_a[add[b][c]]:
                    raise AxiomViolation("additive_associativity", (a, b, c))
                if mul[ab_prod][c] != mul_a[mul[b][c]]:
                    raise AxiomViolation("multiplicative_associativity", (a, b, c))
                if mul_a[add[b][c]] != add[ab_prod][mul_a[c]]:
                    raise AxiomViolation("left_distributivity", (a, b, c))
                if mul[add_a[b]][c] != add[mul[a][c]][mul[b][c]]:
                    raise AxiomViolation("right_distributivity", (a, b, c))

    units = frozenset(
        x for x in range(n) if any(mul[x][y] == 1 and mul[y][x] == 1 for y in range(n))
    )
    zero_divisors = frozenset(range(n)) - units
    # In a finite ring every non-unit annihilates something nonzero; assert
    # rather than assume.  Note that 0 itself is counted as a zero divisor.
    for x in zero_divisors:
        if not any(mul[x][y] == 0 or mul[y][x] == 0 for y in range(1, n)):
            raise AxiomViolation("unit_or_zero_divisor", (x,), f"element {x} is neither a unit nor a zero divisor")

    return FiniteRing(
        order=n,
        add_table=add,
        mul_table=mul,
        units=units,
        zero_divisors=zero_divisors,
        label=label if label is not None else f"ring{n}",
    )


def _principal_ideal(ring: FiniteRing, a: int) -> frozenset[int]:
    """Two-sided ideal generated by one element, closed to a fixed point."""
    add, mul = ring.add_table, ring.mul_table
    members = {0, a}
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for x in snapshot:
            for y in snapshot:
                s = add[x][y]
                if s not in members:
                    members.add(s)
                    changed = True
            for r in ring.elements():
                for p in (mul[r][x], mul[x][r]):
                    if p not in members:
                        members.add(p)
                        changed = True
    return frozenset(members)


def enumerate_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All two-sided ideals of the ring, {0} and R included.

    Computed as sums of principal two-sided ideals, closed under pairwise
    sum to a fixed point.  Exhaustive, hence bounded like line scans:
    RINGLINE_MAX_ORDER overrides the soft bound of 32.
    """
    limit = soft_max_order()
    if ring.order > limit:
        raise OrderTooLarge(
            f"ideal enumeration is bounded to order {limit}, got {ring.order};"
            " set RINGLINE_MAX_ORDER to override"
        )
    add = ring.add_table
    ideals: set[frozenset[int]] = {_principal_ideal(ring, a) for a in ring.elements()}
    frontier = list(ideals)
    while frontier:
        fresh = []
        for left in frontier:
            for right in list(ideals):
                summed = frozenset(add[x][y] for x in left for y in right)
                if summed not in ideals:
                    ideals.add(summed)
                    fresh.append(summed)
        frontier = fresh
    return tuple(Ideal(s) for s in sorted(ideals, key=lambda s: (len(s), sorted(s))))


def ideal_size_census(ring: FiniteRing) -> dict[int, int]:
    """Map ideal cardinality -> number of ideals of that cardinality."""
    census: dict[int, int] = {}
    for ideal in enumerate_ideals(ring):
        census[ideal.cardinality] = census.get(ideal.cardinality, 0) + 1
    return dict(sorted(census.items()))


def are_isomorphic(ring_a: FiniteRing, ring_b: FiniteRing) -> tuple[int, ...] | None:
    """Search for a bijection preserving both tables.

    Returns the mapping (index in ring_a -> index in ring_b) or None.
    Backtracking assigns elements in index order, tries images in index
    order and keeps only partial homomorphisms, so the returned witness
    is the lexicographically least one.
    """
    bound = ISOMORPHISM_MAX_ORDER
    if ring_a.order > bound or ring_b.order > bound:
        raise OrderTooLarge(f"isomorphism search is bounded to order {bound}")
    n = ring_a.order
    if n != ring_b.order:
        return None

    add_a, mul_a = ring_a.add_table, ring_a.mul_table
    add_b, mul_b = ring_b.add_table, ring_b.mul_table
    image = [-1] * n
    taken = [False] * n

    def consistent(k: int) -> bool:
        # Pruning only: pairs involving the newest element, where the result
        # is already mapped (or its target image is already taken).  Pairs
        # whose result gets mapped later are settled by the leaf check.
        for i in range(k + 1):
            for x, y in ((i, k), (k, i)):
                for ta, tb in ((add_a, add_b), (mul_a, mul_b)):
                    r = ta[x][y]
                    rb = tb[image[x]][image[y]]
                    if r <= k:
                        if rb != image[r]:
                            return False
                    elif taken[rb]:
                        return False
        return True

    def complete() -> bool:
        for a in range(n):
            for b in range(n):
                if image[add_a[a][b]] != add_b[image[a]][image[b]]:
                    return False
                if image[mul_a[a][b]] != mul_b[image[a]][image[b]]:
                    return False
        return True

    def extend(k: int) -> bool:
        if k == n:
            return complete()
        for y in range(n):
            if taken[y]:
                continue
            image[k] = y
            taken[y] = True
            if consistent(k) and extend(k + 1):
                return True
            taken[y] = False
            image[k] = -1
        return False

    if not extend(0):
        return None
    return tuple(image)
