from pathlib import Path

import pytest

from ringline import bundled_ring_path, compute_line, construct, load_ring_file

DATA = Path(__file__).parent / "data"

# Rings swept by the exhaustive property tests.  Kept small enough that the
# whole sweep stays in the low seconds.
CATALOG_SPECS = (
    "GF(2)",
    "GF(3)",
    "GF(4)",
    "GF(5)",
    "Z(4)",
    "Z(6)",
    "Z(8)",
    "Z(9)",
    "D(2)",
    "D(3)",
    "T(2)",
    "GF(2)*GF(2)",
    "GF(2)*GF(3)",
    "GF(2)*T(2)",
)

# Commutative rings of order at most 16, for the empty-non-unimodular-sector
# sweep.
COMMUTATIVE_SPECS = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)",
    "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(10)", "Z(12)", "Z(14)", "Z(15)", "Z(16)",
    "D(2)", "D(3)",
    "GF(2)*GF(2)", "GF(2)*GF(3)", "GF(2)*GF(4)", "GF(2)*Z(4)", "GF(2)*D(2)",
    "GF(3)*GF(3)", "GF(4)*GF(4)", "Z(4)*Z(4)", "GF(2)*GF(2)*GF(2)",
    "GF(2)*GF(2)*GF(4)", "GF(2)*GF(2)*Z(4)",
)

# The named order-16 candidates of `ring info`: the one-term specs, then the
# products of one-term specs, in the order `cli._named_candidates` lists them.
ORDER_16_SPECS = (
    "Z(16)", "D(4)", "GF(2)*GF(2)*GF(2)*GF(2)", "GF(2)*GF(2)*D(2)", "GF(2)*GF(2)*GF(4)",
    "GF(2)*GF(2)*Z(4)", "GF(2)*T(2)", "GF(2)*Z(8)", "D(2)*D(2)", "D(2)*GF(4)", "D(2)*Z(4)",
    "GF(4)*GF(4)", "GF(4)*Z(4)", "Z(4)*Z(4)",
)


@pytest.fixture(scope="session")
def ternions8():
    return load_ring_file(bundled_ring_path())


@pytest.fixture(scope="session")
def ternion_line(ternions8):
    return compute_line(ternions8)


@pytest.fixture(scope="session")
def catalog():
    return {spec: construct(spec) for spec in CATALOG_SPECS}


@pytest.fixture(scope="session")
def catalog_lines(catalog):
    return {spec: compute_line(ring) for spec, ring in catalog.items()}


@pytest.fixture(scope="session")
def gf3_t2_line():
    return compute_line(construct("GF(3)*T(2)"))


@pytest.fixture(scope="session")
def amphibian16_path():
    return DATA / "amphibian16.ring"


@pytest.fixture(scope="session")
def amphibian16(amphibian16_path):
    return load_ring_file(amphibian16_path)
