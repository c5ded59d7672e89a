"""Finite associative rings with unity, presented by explicit Cayley tables.

Elements are opaque indices ``0..n-1``; index 0 is the additive identity
and index 1 the multiplicative identity.  Validation is an exact proof on
an additive generating set, O(n^2 k) for k <= log2 n generators; the
full triple loop over the tables runs only to name the first failure.
Ideal enumeration and the isomorphism search stay exhaustive, which is
cheap at the orders this package targets.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, product
from operator import itemgetter

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


class FiniteRing(namedtuple("FiniteRing", "order add_table mul_table units zero_divisors label")):
    """A validated finite ring: two Cayley tables plus derived element sets."""

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    @cached_property
    def is_commutative(self) -> bool:
        return self.mul_table == self.columns

    @cached_property
    def columns(self) -> Table:
        """The multiplication table's columns: ``columns[r][x] = x*r``."""
        return tuple(zip(*self.mul_table))

    @cached_property
    def scaled_columns(self) -> Table:
        """``columns`` times n, so x*(r1, r2) has code ``scaled_columns[r1][x] + columns[r2][x]``.

        The code of a vector (r1, r2) of R^2 is r1*n + r2; ``vectors`` maps it back.
        """
        return _scaled_columns(self.mul_table, self.order)

    @cached_property
    def unit_columns(self) -> Table:
        """``columns`` restricted to the units: ``unit_columns[r][k] = u_k*r``, units ascending."""
        return tuple(zip(*(self.mul_table[u] for u in sorted(self.units))))

    @cached_property
    def scaled_unit_columns(self) -> Table:
        """``unit_columns`` times n, the first digit of the codes of the unit multiples."""
        return _scaled_columns([self.mul_table[u] for u in sorted(self.units)], self.order)

    @cached_property
    def vectors(self) -> tuple[tuple[int, int], ...]:
        """Every vector of R^2 at its code: ``vectors[r1*n + r2] = (r1, r2)``."""
        return tuple(product(self.elements(), repeat=2))

    @cached_property
    def left_annihilators(self) -> tuple[int, ...]:
        """Bit a of entry r is set when a*r = 0, so bit 0 is always set."""
        return tuple(sum(1 << a for a, x in enumerate(col) if not x) for col in self.columns)

    @cached_property
    def one_minus(self) -> tuple[int, ...]:
        """``one_minus[y] = 1 - y``."""
        return tuple(row.index(1) for row in self.add_table)

    @cached_property
    def one_minus_multiples(self) -> tuple[frozenset[int], ...]:
        """``one_minus_multiples[r]`` is the set 1 - r*R.

        1 lies in r1*R + r2*R exactly when r2*R meets ``one_minus_multiples[r1]``.
        """
        return tuple(frozenset(itemgetter(*row)(self.one_minus)) for row in self.mul_table)

    def __repr__(self) -> str:  # noqa: D105 - compact form, tables elided
        return f"FiniteRing({self.label!r}, order={self.order})"


def _scaled_columns(rows, n: int) -> Table:
    """The columns of ``rows`` with every entry y read as n*y, one shared int per value."""
    scaled = tuple(range(0, n * n, n))
    return tuple(zip(*(itemgetter(*row)(scaled) for row in rows)))


def _normalize(table, name: str) -> Table:
    """The table as int tuples; the first shape or closure violation raises.

    A table whose rows are already tuples of ints is kept as it is; any
    other is copied through ``int()``.  Rows are checked whole by length
    and ``min``/``max``; only a failing table is walked entry by entry, to
    name the first violation.
    """
    rows = tuple(table)
    if set(map(type, rows)) != {tuple} or set(map(type, chain.from_iterable(rows))) != {int}:
        rows = tuple(tuple(map(int, row)) for row in rows)
    n = len(rows)
    if not (all(len(row) == n for row in rows) and (not rows or 0 <= min(map(min, rows)) and max(map(max, rows)) < n)):
        for i, row in enumerate(rows):
            if len(row) != n:
                raise AxiomViolation("shape", (name, i), f"{name} row {i} has length {len(row)}, expected {n}")
            for j, x in enumerate(row):
                if not 0 <= x < n:
                    raise AxiomViolation("closure", (name, i, j), f"{name}[{i}][{j}] = {x} is out of range")
    return rows


def _additive_generators(add: Table) -> list[int] | None:
    """A greedy generating set of (R, +), or None if (R, +) cannot be a group.

    Each step takes the least element outside the closure, the set reached
    from 0 by adding generators on the right.  In a group the closure is
    the subgroup generated, and each new generator at least doubles it, so
    more than ``n.bit_length()`` generators mean (R, +) is not a group.
    """
    n = len(add)
    member = [True] + [False] * (n - 1)
    gens: list[int] = []
    while False in member:
        if len(gens) == n.bit_length():
            return None
        gens.append(member.index(False))
        closure = [m for m in range(n) if member[m]]
        for m in closure:  # grows while it is walked: a BFS
            for g in gens:
                s = add[m][g]
                if not member[s]:
                    member[s] = True
                    closure.append(s)
    return gens


def _holds_on_generators(add: Table, mul: Table) -> bool:
    """Prove the triple axioms from checks on an additive generating set A.

    Assumes the pairwise checks passed: 0 is an additive identity, + is
    commutative and every element has an additive inverse.  True means
    all ring axioms hold; False means one fails or (R, +) is not a group.
    Each step rests on the one before it:

    1. Additive associativity by Light's test: (x+g)+y == x+(g+y) for all
       x, y in R and g in A.  The elements g that satisfy this identity
       form a submagma of (R, +) that contains 0 and A, so it is all of R.
    2. Right distributivity (x+g)a == xa + ga and left distributivity
       a(x+g) == ax + ag for all x, a in R and g in A.  Now that (R, +) is
       an abelian group, the elements for which a distributive law holds
       are closed under +, and every element is a nonempty sum of
       generators (0 included, as a multiple of one), so both laws hold.
    3. Multiplicative associativity on A^3 only.  Under both distributive
       laws the associator (ab)c - a(bc) is additive in each argument, so
       it vanishes on R^3 once it vanishes on A^3.

    Cost O(n^2 k) for k generators, with k <= log2 n in a group.
    """
    gens = _additive_generators(add)
    if gens is None:
        return False
    # Each check compares two tuples over all x, gathered in one C-level call:
    # plus_g(t)[x] == t[x+g] (+ commutes), row_of[a](t)[x] == t[a*x] and
    # col_of[a](t)[x] == t[x*a].
    cols = tuple(zip(*mul))
    row_of = [itemgetter(*row) for row in mul]
    col_of = [itemgetter(*col) for col in cols]
    for g in gens:
        plus_g = itemgetter(*add[g])
        if any(add[add_x[g]] != plus_g(add_x) for add_x in add):  # (x+g)+y == x+(g+y)
            return False
        for a in range(len(mul)):
            if plus_g(cols[a]) != col_of[a](add[mul[g][a]]):  # (x+g)a == ga + xa
                return False
            if plus_g(mul[a]) != row_of[a](add[mul[a][g]]):  # a(x+g) == ag + ax
                return False
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a in gens for b in gens for c in gens)


def _raise_first_violation(add: Table, mul: Table) -> None:
    """Scan every triple (a, b, c) and raise AxiomViolation at the first failure."""
    n = len(add)
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


def validate_tables(add_table, mul_table, label: str | None = None) -> FiniteRing:
    """Validate a pair of Cayley tables and derive the unit/zero-divisor split.

    Checks that the addition table is an abelian group with identity at
    index 0, that multiplication is associative with a two-sided identity
    at index 1, and that both distributive laws hold.  Tables whose
    additive identity sits elsewhere are rejected, never relabeled.

    Identities, additive commutativity and inverses are checked on all
    pairs; the three axioms that quantify over triples are then proved
    on an additive generating set (see ``_holds_on_generators``).  Only
    when that proof fails does the full triple loop run, and it reports
    the first failing triple in (a, b, c) order.

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

    if not _holds_on_generators(add, mul):
        _raise_first_violation(add, mul)

    # A finite ring is Dedekind-finite: xy = 1 makes z -> yz injective, hence
    # onto, so yz = 1 for some z = xyz = x.  So a unit is an element with a
    # right inverse, and a non-unit x (0 included) is a zero divisor, as
    # z -> xz is not onto, hence not injective.
    units = frozenset(x for x, row in enumerate(mul) if 1 in row)
    zero_divisors = frozenset(range(n)) - units

    return FiniteRing(
        order=n,
        add_table=add,
        mul_table=mul,
        units=units,
        zero_divisors=zero_divisors,
        label=label if label is not None else f"ring{n}",
    )


def _principal_ideal(ring: FiniteRing, a: int) -> frozenset[int]:
    """Two-sided ideal generated by a: in a ring with 1, the additive span of r*a*s over r, s in R."""
    add = ring.add_table
    products = {x for ra in set(ring.columns[a]) for x in ring.mul_table[ra]}
    members = [0]
    seen = {0}
    for m in members:  # grows while it is walked: a BFS over sums of products
        for p in products:
            s = add[m][p]
            if s not in seen:
                seen.add(s)
                members.append(s)
    return frozenset(seen)


def enumerate_ideals(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """All two-sided ideals of the ring, {0} and R included, by size then elements.

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
    return tuple(sorted(ideals, key=lambda s: (len(s), sorted(s))))


def ideal_size_census(ring: FiniteRing) -> dict[int, int]:
    """Map ideal cardinality -> number of ideals of that cardinality."""
    return dict(sorted(Counter(map(len, enumerate_ideals(ring))).items()))


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
