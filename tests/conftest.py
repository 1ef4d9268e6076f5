"""Shared helpers for the test suite."""

import random

import pytest

from artifact import (Arc, build_dissection, classify_realizability, glue,
                      polygon, quiddity_new, quiddity_of,
                      parse_dissection_text)


def cyc_eq(row, expected):
    """Equality of two sequences up to cyclic rotation."""
    n = len(expected)
    if len(row) != n:
        return False
    return any(all(row[(k + r) % n] == expected[k] for k in range(n))
               for r in range(n))


def cyc_eq_either(row, expected):
    """Equality up to cyclic rotation and orientation reversal."""
    return cyc_eq(row, expected) or cyc_eq(row, list(reversed(expected)))


@pytest.fixture
def rng():
    return random.Random(20260824)


# punctured-disc cores: the one-vertex cycle (2) and the cycle (2r2, r2)
DISC_CORES = ([(3, 3)], [(4, 4), (4,)])


def random_disc(rng):
    """(Q, classification) of a punctured-disc cycle: one to four seeded
    3-, 4- or 5-gon ears glued onto a disc core.  ``suites.random_witness``
    almost never draws a disc, so tests of the disc side take theirs from
    here."""
    Q = quiddity_new(rng.choice(DISC_CORES))
    for _ in range(rng.randint(1, 4)):
        Q = glue(Q, rng.choice((3, 4, 5)), rng.randint(1, Q.n))
    cls = classify_realizability(Q)
    assert cls.kind == "punctured_disc", Q.A
    return Q, cls


# the dissected annulus used for the running matching-weight example:
# a triangle ear over v2, two bridging arcs at v1 and v3, and a third
# bridging arc from v3 wrapping to the next period's inner vertex
ANNULUS_334_TEXT = """annulus 3 3
bridge 1 1 0
bridge 3 2 0
bridge 3 1 1
peri 1 3
"""


@pytest.fixture
def annulus_334():
    return parse_dissection_text(ANNULUS_334_TEXT)


@pytest.fixture
def hexagon_13_35():
    """Hexagon with diagonals (1,3) and (3,5): quiddity
    (1+r2, 1, 2+r2, 1, 1+r2, r2)."""
    return build_dissection(polygon(6), [Arc("diag", 1, 3), Arc("diag", 3, 5)])


@pytest.fixture
def pentagon_24_25():
    """Pentagon with diagonals (2,4) and (2,5): quiddity (1,3,1,2,2)."""
    return build_dissection(polygon(5), [Arc("diag", 2, 4), Arc("diag", 2, 5)])
