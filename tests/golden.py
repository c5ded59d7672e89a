"""Golden description of the projective line over the order-8 ternion ring.

Hand-transcribed orbit listing for the ring shipped as
``src/ringline/rings/ternions8.ring``: each entry gives the two
generating vectors of a point and its full orbit.  This is the reference
the computed line is compared against, element for element.
"""

UNIMODULAR = [
    (((1, 0), (2, 0)), {(0, 0), (6, 0), (4, 0), (7, 0), (5, 0), (3, 0), (2, 0), (1, 0)}),
    (((1, 6), (2, 6)), {(0, 0), (6, 0), (4, 0), (7, 0), (5, 6), (3, 6), (2, 6), (1, 6)}),
    (((1, 3), (2, 3)), {(0, 0), (6, 0), (4, 0), (7, 0), (5, 3), (3, 3), (2, 3), (1, 3)}),
    (((1, 5), (2, 5)), {(0, 0), (6, 0), (4, 0), (7, 0), (5, 5), (3, 5), (2, 5), (1, 5)}),
    (((7, 3), (4, 3)), {(0, 0), (6, 0), (4, 0), (7, 0), (0, 3), (6, 3), (4, 3), (7, 3)}),
    (((7, 5), (4, 5)), {(0, 0), (6, 0), (4, 0), (7, 0), (0, 5), (6, 5), (4, 5), (7, 5)}),
    (((1, 7), (2, 4)), {(0, 0), (6, 6), (4, 4), (7, 7), (5, 6), (3, 0), (2, 4), (1, 7)}),
    (((1, 4), (2, 7)), {(0, 0), (6, 6), (4, 4), (7, 7), (5, 0), (3, 6), (2, 7), (1, 4)}),
    (((1, 1), (2, 2)), {(0, 0), (6, 6), (4, 4), (7, 7), (5, 5), (3, 3), (2, 2), (1, 1)}),
    (((1, 2), (2, 1)), {(0, 0), (6, 6), (4, 4), (7, 7), (5, 3), (3, 5), (2, 1), (1, 2)}),
    (((4, 1), (7, 2)), {(0, 0), (6, 6), (4, 4), (7, 7), (0, 5), (6, 3), (7, 2), (4, 1)}),
    (((7, 1), (4, 2)), {(0, 0), (6, 6), (4, 4), (7, 7), (0, 3), (6, 5), (4, 2), (7, 1)}),
    (((3, 7), (3, 4)), {(0, 0), (0, 6), (0, 4), (0, 7), (3, 0), (3, 6), (3, 4), (3, 7)}),
    (((5, 7), (5, 4)), {(0, 0), (0, 6), (0, 4), (0, 7), (5, 0), (5, 6), (5, 4), (5, 7)}),
    (((5, 1), (5, 2)), {(0, 0), (0, 6), (0, 4), (0, 7), (5, 5), (5, 3), (5, 2), (5, 1)}),
    (((3, 1), (3, 2)), {(0, 0), (0, 6), (0, 4), (0, 7), (3, 5), (3, 3), (3, 2), (3, 1)}),
    (((6, 1), (6, 2)), {(0, 0), (0, 6), (0, 4), (0, 7), (6, 5), (6, 3), (6, 2), (6, 1)}),
    (((0, 1), (0, 2)), {(0, 0), (0, 6), (0, 4), (0, 7), (0, 5), (0, 3), (0, 2), (0, 1)}),
]

NONUNIMODULAR = [
    (((4, 6), (7, 6)), {(0, 0), (6, 0), (0, 6), (6, 6), (4, 0), (7, 0), (7, 6), (4, 6)}),
    (((4, 7), (7, 4)), {(0, 0), (6, 0), (0, 6), (6, 6), (4, 4), (7, 7), (7, 4), (4, 7)}),
    (((6, 4), (6, 7)), {(0, 0), (6, 0), (0, 6), (6, 6), (0, 4), (0, 7), (6, 7), (6, 4)}),
]

# The three neighbour classes of the unimodular sector (the drawing's
# colour classes), as canonical generators.
COLOUR_CLASSES = [
    {(1, 0), (1, 6), (1, 3), (1, 5), (4, 3), (4, 5)},
    {(1, 7), (1, 4), (1, 1), (1, 2), (4, 1), (4, 2)},
    {(3, 4), (5, 4), (5, 1), (3, 1), (6, 1), (0, 1)},
]

# Condensation of the non-unimodular sector: the four vector quadruples.
CONDENSATE_UNIVERSAL = {(0, 0), (6, 0), (0, 6), (6, 6)}
CONDENSATE_PRIVATE = [
    {(4, 0), (7, 0), (7, 6), (4, 6)},
    {(4, 4), (7, 7), (7, 4), (4, 7)},
    {(0, 4), (0, 7), (6, 7), (6, 4)},
]


def points():
    """All 21 golden points as (sector, generator pair, orbit set)."""
    for pair, orbit in UNIMODULAR:
        yield "unimodular", pair, orbit
    for pair, orbit in NONUNIMODULAR:
        yield "nonunimodular", pair, orbit


def as_line_dict(ring_label):
    """The golden line in the ``ringline.line/1`` serialization schema."""
    entries = [
        {
            "generator": list(min(pair)),
            "sector": sector,
            "orbit": [list(v) for v in sorted(orbit)],
        }
        for sector, pair, orbit in points()
    ]
    entries.sort(key=lambda e: e["generator"])
    return {"schema": "ringline.line/1", "ring": ring_label, "points": entries}
