"""The package's exceptions: one class per way a command reacts to them."""


class RinglineError(Exception):
    """Base class for every error raised by this package.

    ``witness``, when given, holds what exhibits the failure.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        self.witness = witness
        super().__init__(message)


class BadInput(RinglineError):
    """The input is refused: a malformed spec or file, tables that are no ring, ...

    ``kind`` names a failed ring axiom (e.g. "multiplicative_associativity"),
    whose ``witness`` is the element tuple exhibiting the failure.
    """

    def __init__(self, message: str, witness: tuple | None = None, kind: str | None = None):
        self.kind = kind
        super().__init__(message, witness)


class TooLarge(RinglineError):
    """The input exceeds the bound of an exhaustive method."""


class NoAnswer(RinglineError):
    """A stage has no answer for this input: an empty sector, no canonical partition, ..."""
