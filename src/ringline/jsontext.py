"""JSON text laid out as ``json.dumps(value, indent=2, sort_keys=True)`` lays it out.

With ``indent`` set, CPython's ``json`` encodes through its pure-Python
encoder, one call per value.  ``dumps`` writes the same bytes for the
values the CLI prints: dicts with str keys (in sorted order), lists and
tuples (as arrays), str, int, bool and None, of exactly these types.
Strings go through the C ``encode_basestring_ascii``, ints through
``int.__repr__``; an array of ints, or of non-empty arrays of ints, is
joined without a call per item.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii

_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT = {int}
_ARRAYS = {list, tuple}


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, for the value types above; TypeError for others."""
    return _dumps(value, "\n")


def _dumps(value, newline: str) -> str:
    """``value`` at the depth whose lines start with ``newline``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _CONSTANTS[value]
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind not in _ARRAYS:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "[]"
    kinds = {*map(type, value)}
    if kinds == _INT:
        items = map(int.__repr__, value)
    elif kinds <= _ARRAYS and all(value) and {*map(type, chain.from_iterable(value))} == _INT:
        deeper = inner + "  "
        items = ["[" + deeper + ("," + deeper).join(map(int.__repr__, row)) + inner + "]" for row in value]
    else:
        items = [_dumps(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"
