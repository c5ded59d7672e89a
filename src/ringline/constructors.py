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

import re
from os import PathLike

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


def _residue_tables(n: int) -> tuple[Table, Table]:
    """The tables of the residues mod n, for ``Z(n)`` and prime ``GF(p)``."""
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple(i * j % n for j in range(n)) for i in range(n))
    return add, mul


def _field_tables(q: int, term: str) -> tuple[Table, Table]:
    """GF(q)'s tables; ``term`` (``GF(q)``, ``D(q)``, ``T(q)``) names an unsupported q."""
    if q not in SUPPORTED_FIELD_ORDERS:
        raise UnsupportedField(f"{term} is not supported; q must be one of {SUPPORTED_FIELD_ORDERS}")
    if q == 4:
        add = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
        return add, _GF4_MUL
    return _residue_tables(q)


def _field_enumeration(q: int, mul: Table) -> list[int]:
    """Field elements as 0, 1, then powers of the least primitive element."""
    for g in range(1, q):
        seq = [0, 1]
        while (power := mul[seq[-1]][g]) != 1:
            seq.append(power)
        if len(seq) == q:
            return seq


def _identity_swap(n: int, k: int) -> list[int]:
    """Label of each of n listed positions when the identity, listed at k,
    swaps labels with the element listed second (an involution)."""
    swap = list(range(n))
    swap[1], swap[k] = k, 1
    return swap


def integers_mod(n: int) -> FiniteRing:
    if n < 2:
        raise ParseError(f"Z({n}) is not a ring with 1 != 0; n must be at least 2")
    return validate_tables(*_residue_tables(n), label=f"Z({n})")


def galois_field(q: int) -> FiniteRing:
    add, mul = _field_tables(q, f"GF({q})")
    return validate_tables(add, mul, label=f"GF({q})")


def dual_numbers(q: int) -> FiniteRing:
    """GF(q)[x]/(x^2): pairs a + b*x with (a,b)(c,d) = (ac, ad + bc).

    The pair (a, b) of field labels is listed at a*q + b; the identity
    (1, 0) then swaps labels with the pair listed second.
    """
    fadd, fmul = _field_tables(q, f"D({q})")
    swap = _identity_swap(q * q, q)  # (1, 0) is listed at q
    pairs = [divmod(listed, q) for listed in swap]  # label -> (a, b)
    add = tuple(tuple([swap[fadd[a][c] * q + fadd[b][d]] for c, d in pairs]) for a, b in pairs)
    mul = tuple(
        tuple([swap[fmul[a][c] * q + fadd[fmul[a][d]][fmul[b][c]]] for c, d in pairs]) for a, b in pairs
    )
    return validate_tables(add, mul, label=f"D({q})")


def ternions(q: int) -> FiniteRing:
    """Upper-triangular 2x2 matrices (a b; 0 c) over GF(q).

    The matrix with digits (a, b, c) is listed at pos(a)*q^2 + pos(b)*q
    + pos(c), where pos lists the field as 0, 1, then generator powers;
    the identity (1, 0, 1) then swaps labels with the matrix listed second.
    """
    fadd, fmul = _field_tables(q, f"T({q})")
    listed = _field_enumeration(q, fmul)
    pos = [listed.index(x) for x in range(q)]
    fadd, fmul = ([[pos[table[x][y]] for y in listed] for x in listed] for table in (fadd, fmul))
    swap = _identity_swap(q ** 3, q * q + 1)  # (1, 0, 1) is listed at q^2 + 1
    triples = [(k // (q * q), k // q % q, k % q) for k in swap]  # label -> pos digits
    add = tuple(
        tuple([swap[(fadd[a][d] * q + fadd[b][e]) * q + fadd[c][f]] for d, e, f in triples])
        for a, b, c in triples
    )
    mul = tuple(
        tuple([swap[(fmul[a][d] * q + fadd[fmul[a][e]][fmul[b][f]]) * q + fmul[c][f]] for d, e, f in triples])
        for a, b, c in triples
    )
    return validate_tables(add, mul, label=f"T({q})")


def product(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Componentwise direct product.

    The pair (i, j) is listed at i*|right| + j; the identity (1, 1) then
    swaps labels with the pair listed second.  Both tables are read by
    that index arithmetic through the swap, with no element tuples.
    """
    m = right.order
    swap = _identity_swap(left.order * m, m + 1)  # (1, 1) is listed at m + 1
    pairs = [divmod(listed, m) for listed in swap]  # label -> (i, j)

    def table(left_table: Table, right_table: Table) -> Table:
        return tuple(
            tuple([swap[lrow[k] * m + rrow[l]] for k, l in pairs])
            for lrow, rrow in [(left_table[i], right_table[j]) for i, j in pairs]
        )

    return validate_tables(
        table(left.add_table, right.add_table), table(left.mul_table, right.mul_table),
        label=f"{left.label}*{right.label}",
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


def load_ring_file(path: str | PathLike) -> FiniteRing:
    """Parse and validate the text Cayley-table format.

    Layout: a ``ring <n>`` header, an ``add`` line followed by n rows of n
    integers, then ``mul`` and n more rows.  Lines starting with ``#`` are
    comments; blank lines are ignored.  Entries are read through a table
    of the labels 0..n-1; only a row holding another token goes through
    ``int()``, so out-of-range entries reach ``validate_tables``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
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

    as_label = {str(i): i for i in range(n)}.__getitem__

    def rows(start: int) -> list[tuple[int, ...]]:
        out = []
        for offset, line in enumerate(lines[start:start + n]):
            tokens = line.split()
            try:
                row = tuple(map(as_label, tokens))
            except KeyError:  # not a label 0..n-1: int() reads it, or names the fault
                try:
                    row = tuple(map(int, tokens))
                except ValueError:
                    raise FileError(f"{path}: non-integer entry in row {offset}: {line!r}") from None
            if len(row) != n:
                raise FileError(f"{path}: row {offset} has {len(row)} entries, expected {n}")
            out.append(row)
        return out

    return validate_tables(rows(2), rows(n + 3), label=f"file:{path}")


def write_ring_file(path: str | PathLike, ring: FiniteRing) -> None:
    """Write a ring in the canonical text Cayley-table format."""
    lines = [f"ring {ring.order}", "add"]
    lines += [" ".join(str(x) for x in row) for row in ring.add_table]
    lines.append("mul")
    lines += [" ".join(str(x) for x in row) for row in ring.mul_table]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def bundled_ring_path(name: str = "ternions8") -> PathLike:
    """Filesystem path, a ``pathlib.Path``, of a ring file shipped with the package."""
    from importlib import resources
    from pathlib import Path

    resource = resources.files("ringline").joinpath("rings", f"{name}.ring")
    with resources.as_file(resource) as concrete:
        return Path(concrete)
