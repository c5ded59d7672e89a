"""Exception types shared across the package."""


class RinglineError(Exception):
    """Base class for every error raised by this package."""


class AxiomViolation(RinglineError):
    """A Cayley table fails a ring axiom.

    ``kind`` names the failed axiom (e.g. "multiplicative_associativity"),
    ``witness`` is the element tuple exhibiting the failure.
    """

    def __init__(self, kind: str, witness: tuple, message: str | None = None):
        self.kind = kind
        self.witness = witness
        super().__init__(message or f"{kind} fails at {witness}")


class IdentityMissing(RinglineError):
    """No two-sided multiplicative identity at index 1 (or order < 2)."""


class OrderTooLarge(RinglineError):
    """Ring order exceeds the bound of an exhaustive method."""


class ParseError(RinglineError):
    """Malformed ring-spec string."""


class UnsupportedField(RinglineError):
    """GF(q) requested for an unsupported q."""


class FileError(RinglineError):
    """A ring file is unreadable or malformed."""


class SamePoint(RinglineError):
    """The neighbour/distant relation was asked for a point and itself."""


class EmptySector(RinglineError):
    """An operation needs a non-empty line sector."""


class NotPartition(RinglineError):
    """Neighbourship to a maximum distant clique does not partition the sector."""

    def __init__(self, message: str, witness: tuple | None = None):
        self.witness = witness
        super().__init__(message)


class UnknownFormat(RinglineError):
    """Unsupported graph export format."""


class TooLarge(RinglineError):
    """Incidence structure exceeds the isomorphism-search bound."""


class EmptyStructure(RinglineError):
    """An operation needs a non-empty incidence structure."""
