"""Differential test of ``FriezeTable.width`` against the row scan
``frieze_oracle.scan_width``.

``width`` reads the width off the trace of the transfer matrix of the
quiddity's minimal period g: it is r's denominator times g, minus 3, for
the angle r of that trace when r's numerator is odd.  A width is at most
max(L, 3) g - 3, so the scan below max(L, 3) n - 2 rows sees every width
and its None proves the frieze infinite.  A frieze with |s_1| > 2 is
infinite (M_n has infinite order), so its scan stops at n + 2 rows, as the
growth probe did: such friezes take most of the deep scan's time.

The cycles are every cycle of length n <= 2 over the multisets of one to
three sizes from {3, 4, 5}, a seeded sample of 1,000 cycles of length 3
over them, the p-gon friezes [p]^t, whose minimal period is 1 (their M_t
is -I only for t an odd multiple of p), and repeats of the finite cycles
found.
``[3] [3] [4]`` has trace -2 without M = -I: its frieze is infinite.
"""

import itertools
import random

from artifact import FriezeTable, quiddity_new
from artifact.ring import sign_of

from frieze_oracle import scan_width

MULTISETS = [m for k in (1, 2, 3)
             for m in itertools.combinations_with_replacement((3, 4, 5), k)]


def _cycles():
    short = [A for n in (1, 2) for A in itertools.product(MULTISETS, repeat=n)]
    three = random.Random(18).sample(
        list(itertools.product(MULTISETS, repeat=3)), 1000)
    polygons = [((p,),) * t for p in range(3, 16) for t in (1, 2, 3, p, 2 * p)]
    return short + three + polygons + [((3,), (3,), (4,))]


def _scan(A):
    Q = quiddity_new(A)
    F, n, two = FriezeTable(Q), Q.n, Q.context.from_int(2)
    s1 = F.entry(0, n + 1) - F.entry(1, n)
    bounded = sign_of(s1 - two) <= 0 <= sign_of(s1 + two)
    return scan_width(F, max(Q.context.L, 3) * n - 2 if bounded else n + 2)


def test_width_matches_the_row_scan():
    finite = []
    for A in _cycles():
        want = _scan(A)
        assert FriezeTable(quiddity_new(A)).width == want, A
        if want is not None:
            finite.append(A)
    assert len(finite) > 30
    # a repeated finite cycle has the same minimal period, so the same
    # width, though its M_n is -I only for some repeat counts
    for A, t in itertools.product(finite[:40], (2, 3, 4)):
        Q = quiddity_new(A * t)
        assert FriezeTable(Q).width == _scan(A * t) is not None, (A, t)


def _period(xs):
    n = len(xs)
    return next(g for g in range(1, n + 1)
                if n % g == 0 and xs[g:] + xs[:g] == xs)


def test_the_multisets_and_the_entries_have_one_minimal_period():
    # ``width`` reads g off the multisets; the values determine the
    # multisets, so the entries have the same minimal period
    periods = set()
    for A in _cycles():
        Q = quiddity_new(A)
        g = _period(Q.A)
        assert g == _period(tuple(e.coeffs for e in Q.entries)), A
        periods.add((Q.n, g))
    assert {(2, 1), (2, 2), (3, 1), (3, 3)} <= periods
