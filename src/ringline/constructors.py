"""Named ring constructions and the ring-spec mini-language.

Grammar::

    expr := term ('*' term)*
    term := 'Z(' int ')' | 'GF(' int ')' | 'T(' int ')' | 'D(' int ')'
          | 'file:' path

``Z(n)`` are the integers mod n, ``GF(q)`` the fields of order
q in {2, 3, 4, 5, 7}, ``T(q)`` the upper-triangular 2x2 matrices over
GF(q), ``D(q)`` the dual numbers GF(q)[x]/(x^2), and products combine
Cayley tables componentwise.  Each construction lists its elements zero
first and labels them by list position: residues for ``Z(n)`` and
``GF(p)``, bit masks of polynomials over GF(2) for ``GF(4)``, pairs
(a, b) at a*q + b for ``D(q)``, digit triples for ``T(q)`` and pairs
(i, j) at i*|right| + j for products.  The identity then swaps labels
with the element listed second, so 0 and 1 are the two identities.
"""

from __future__ import annotations

import itertools
import re
from importlib import resources
from pathlib import Path

from .errors import FileError, ParseError, UnsupportedField
from .rings import FiniteRing, Table, validate_tables

SUPPORTED_FIELD_ORDERS = (2, 3, 4, 5, 7)

# GF(4) as polynomials over GF(2) modulo x^2 + x + 1, elements encoded as
# bit masks 0, 1, x, x+1.
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _field_tables(q: int) -> tuple[Table, Table]:
    if q not in SUPPORTED_FIELD_ORDERS:
        raise UnsupportedField(f"GF({q}) is not supported; q must be one of {SUPPORTED_FIELD_ORDERS}")
    if q == 4:
        add = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
        return add, _GF4_MUL
    add = tuple(tuple((i + j) % q for j in range(q)) for i in range(q))
    mul = tuple(tuple((i * j) % q for j in range(q)) for i in range(q))
    return add, mul


def _field_enumeration(q: int, mul: Table) -> list[int]:
    """Field elements as 0, 1, then powers of the least primitive element."""
    if q == 2:
        return [0, 1]
    generator = None
    for g in range(2, q):
        power, order = g, 1
        while power != 1:
            power = mul[power][g]
            order += 1
        if order == q - 1:
            generator = g
            break
    assert generator is not None, f"GF({q}) has a primitive element"
    seq = [0, 1]
    power = generator
    while power != 1:
        seq.append(power)
        power = mul[power][generator]
    return seq


def _ring(label: str, elements, one, add, mul) -> FiniteRing:
    """Validate the tables of ``add`` and ``mul`` on a listed element set.

    ``elements`` lists the ring zero first.  Each element is labelled by
    its list position, except that ``one`` and the element listed second
    swap labels, so the identity gets label 1.
    """
    elements = list(elements)
    k = elements.index(one)
    elements[1], elements[k] = elements[k], elements[1]
    index = {x: i for i, x in enumerate(elements)}
    add_table = tuple(tuple([index[add(x, y)] for y in elements]) for x in elements)
    mul_table = tuple(tuple([index[mul(x, y)] for y in elements]) for x in elements)
    return validate_tables(add_table, mul_table, label=label)


def integers_mod(n: int) -> FiniteRing:
    if n < 2:
        raise ParseError(f"Z({n}) is not a ring with 1 != 0; n must be at least 2")
    return _ring(f"Z({n})", range(n), 1, lambda x, y: (x + y) % n, lambda x, y: x * y % n)


def galois_field(q: int) -> FiniteRing:
    add, mul = _field_tables(q)
    return validate_tables(add, mul, label=f"GF({q})")


def dual_numbers(q: int) -> FiniteRing:
    """GF(q)[x]/(x^2): pairs a + b*x with (a,b)(c,d) = (ac, ad + bc).

    The pair (a, b) of field labels is listed at a*q + b; the identity
    (1, 0) then swaps labels with the pair listed second.
    """
    fadd, fmul = _field_tables(q)
    return _ring(
        f"D({q})", itertools.product(range(q), repeat=2), (1, 0),
        lambda x, y: (fadd[x[0]][y[0]], fadd[x[1]][y[1]]),
        lambda x, y: (fmul[x[0]][y[0]], fadd[fmul[x[0]][y[1]]][fmul[x[1]][y[0]]]),
    )


def ternions(q: int) -> FiniteRing:
    """Upper-triangular 2x2 matrices (a b; 0 c) over GF(q).

    The matrix with digits (a, b, c) is listed at pos(a)*q^2 + pos(b)*q
    + pos(c), where pos lists the field as 0, 1, then generator powers;
    the identity (1, 0, 1) then swaps labels with the matrix listed second.
    """
    fadd, fmul = _field_tables(q)
    return _ring(
        f"T({q})", itertools.product(_field_enumeration(q, fmul), repeat=3), (1, 0, 1),
        lambda x, y: (fadd[x[0]][y[0]], fadd[x[1]][y[1]], fadd[x[2]][y[2]]),
        lambda x, y: (fmul[x[0]][y[0]], fadd[fmul[x[0]][y[1]]][fmul[x[1]][y[2]]], fmul[x[2]][y[2]]),
    )


def product(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Componentwise direct product.

    The pair (i, j) is listed at i*|right| + j; the identity (1, 1) then
    swaps labels with the pair listed second.
    """
    ladd, lmul, radd, rmul = left.add_table, left.mul_table, right.add_table, right.mul_table
    return _ring(
        f"{left.label}*{right.label}", itertools.product(left.elements(), right.elements()), (1, 1),
        lambda x, y: (ladd[x[0]][y[0]], radd[x[1]][y[1]]),
        lambda x, y: (lmul[x[0]][y[0]], rmul[x[1]][y[1]]),
    )


_TERM_RE = re.compile(r"(Z|GF|T|D)\((\d+)\)\Z")


def _term(text: str) -> FiniteRing:
    if text.startswith("file:"):
        path = text[len("file:"):].strip()
        if not path:
            raise ParseError("file: spec needs a path")
        return load_ring_file(path)
    match = _TERM_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"bad ring spec term {text!r}")
    family, number = match.group(1), int(match.group(2))
    if family == "Z":
        return integers_mod(number)
    if family == "GF":
        return galois_field(number)
    if family == "T":
        return ternions(number)
    return dual_numbers(number)


def construct(spec: str) -> FiniteRing:
    """Build the ring described by a spec string like "GF(2)*T(2)"."""
    terms = [t.strip() for t in spec.split("*")]
    if not terms or any(not t for t in terms):
        raise ParseError(f"bad ring spec {spec!r}")
    ring = _term(terms[0])
    for term in terms[1:]:
        ring = product(ring, _term(term))
    return ring


def load_ring_file(path: str | Path) -> FiniteRing:
    """Parse and validate the text Cayley-table format.

    Layout: a ``ring <n>`` header, an ``add`` line followed by n rows of n
    integers, then ``mul`` and n more rows.  Lines starting with ``#`` are
    comments; blank lines are ignored.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"cannot read ring file {path}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("ring "):
        raise FileError(f"{path}: expected a 'ring <n>' header line")
    head = lines[0].split()
    try:
        n = int(head[1])
    except ValueError:
        raise FileError(f"{path}: malformed header {lines[0]!r}") from None
    if len(head) != 2 or n < 0:
        raise FileError(f"{path}: malformed header {lines[0]!r}")
    if len(lines) != 2 * n + 3:
        raise FileError(f"{path}: expected {2 * n + 3} content lines, found {len(lines)}")
    if lines[1] != "add" or lines[n + 2] != "mul":
        raise FileError(f"{path}: expected 'add' and 'mul' section markers")

    def rows(start: int) -> list[list[int]]:
        out = []
        for offset, line in enumerate(lines[start:start + n]):
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise FileError(f"{path}: non-integer entry in row {offset}: {line!r}") from None
            if len(row) != n:
                raise FileError(f"{path}: row {offset} has {len(row)} entries, expected {n}")
            out.append(row)
        return out

    return validate_tables(rows(2), rows(n + 3), label=f"file:{path}")


def write_ring_file(path: str | Path, ring: FiniteRing) -> None:
    """Write a ring in the canonical text Cayley-table format."""
    lines = [f"ring {ring.order}", "add"]
    lines += [" ".join(str(x) for x in row) for row in ring.add_table]
    lines.append("mul")
    lines += [" ".join(str(x) for x in row) for row in ring.mul_table]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def bundled_ring_path(name: str = "ternions8") -> Path:
    """Filesystem path of a ring file shipped with the package."""
    resource = resources.files("ringline").joinpath("rings", f"{name}.ring")
    with resources.as_file(resource) as concrete:
        return Path(concrete)
