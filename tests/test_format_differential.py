"""Differential test of ``ring.format_elem`` against the term-by-term
formatter it replaced.

``format_elem`` builds its exact part from per-degree term templates and
fixes the sign of the first term afterwards.  The oracle below is the
former body: it formats each nonzero coefficient on its own and picks the
first term's sign form as it goes.  The two are compared on random
coefficient vectors of every degree the ring tests use, on chosen edge
cases, on the zero element and on every cell of the golden L = 60 ``gen``
inputs, with and without the decimal hint.
"""

import json
import os
import random

import pytest

from artifact import FriezeTable, make_context, parse_quiddity_text
from artifact.ring import RingElem, format_elem

LEVELS = (3, 4, 5, 6, 7, 11, 12, 15, 20, 60)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def oracle_format(a, approx=True):
    """The former ``format_elem``: one term per nonzero coefficient."""
    terms = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        elif k == 1:
            body = "%s*m" % abs(c) if abs(c) != 1 else "m"
        else:
            body = ("%s*m^%d" % (abs(c), k)) if abs(c) != 1 else ("m^%d" % k)
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    exact = " ".join(terms) if terms else "0"
    if not approx:
        return exact
    return "%s : %.6g" % (exact, a.approx())


def assert_same(a):
    for approx in (True, False):
        assert format_elem(a, approx) == oracle_format(a, approx), a.coeffs


def random_coeff(rng):
    """0, +-1, a small or a large integer (above 2^64), either sign."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((1, -1))
    bits = rng.choice((2, 8, 30, 65, 100, 200))
    return rng.choice((1, -1)) * rng.randint(2, 1 << bits)


@pytest.mark.parametrize("L", LEVELS)
def test_random_elements_format_as_before(L):
    ctx = make_context([L])
    d = ctx.degree
    rng = random.Random(300 + L)
    for _ in range(300):
        assert_same(RingElem(ctx, [random_coeff(rng) for _ in range(d)]))
    # every power alone with the coefficients whose form is special
    for k in range(d):
        for c in (1, -1, 2, -2, 3, -3, 1 << 64, -(1 << 64) - 1, 10 ** 40):
            assert_same(RingElem(ctx, (0,) * k + (c,) + (0,) * (d - 1 - k)))
    # units everywhere, and a negative leading term before each sign
    for lead in (-1, -3, -(1 << 70)):
        for rest in (1, -1, 5, -5):
            assert_same(RingElem(ctx, (lead,) + (rest,) * (d - 1)))
            assert_same(RingElem(ctx, (0,) * (d - 1) + (lead,)))
    assert_same(ctx.zero())


def test_special_forms():
    ctx = make_context([4])
    assert format_elem(RingElem(ctx, (3, 3))) == "3 + 3*m : 7.24264"
    assert format_elem(RingElem(ctx, (0, -3)), False) == "-3*m"
    assert format_elem(RingElem(ctx, (-1, 1)), False) == "-1 + m"
    assert format_elem(RingElem(ctx, (1, -1)), False) == "1 - m"
    assert format_elem(ctx.zero()) == "0 : 0"
    assert format_elem(ctx.zero(), False) == "0"
    ctx = make_context([5])
    assert format_elem(RingElem(ctx, (0, -1)), False) == "-m"
    assert format_elem(RingElem(ctx, (2, -3)), False) == "2 - 3*m"


def golden_gen_cells():
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        cases = json.load(fh)
    for case in cases:
        argv = case["argv"]
        if argv[0] == "gen" and "l60" in argv[1]:
            with open(os.path.join(GOLDEN, argv[1])) as fh:
                Q = parse_quiddity_text(fh.read().split("#", 1)[0].strip())
            F = FriezeTable(Q)
            depth = int(argv[argv.index("--depth") + 1])
            yield case["name"], [e for t in range(1, depth + 1)
                                 for e in F.row(t)]


def test_golden_l60_gen_cells_format_as_before():
    seen = 0
    for name, cells in golden_gen_cells():
        for e in cells:
            assert_same(e)
        seen += 1
    assert seen >= 4
