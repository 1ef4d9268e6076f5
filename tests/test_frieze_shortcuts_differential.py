"""Differential tests of the two places where the frieze code stops
computing values that are already fixed.

``FriezeTable._row`` fills every row from a finite frieze's closing row
K = width + 3 on (row K all zeros, row K - 1 all ones) as row d - K
negated; ``KernelRows`` in ``frieze_oracle`` fills every row from the
recurrence, and both must store the same rows.  ``check_positivity``
returns ``entries >= 2`` from the multisets alone and reads diagonal 0
otherwise; the row scan to depth 12n (``assert_positivity_decided``) must
give the same kind.

The short cycles are every cycle of length n <= 3 over the multisets of
one or two sizes from {3, 4, 5}, each read one to three times: 2,457
cycles, 147 of them finite.  K is not always a multiple of n: ``[5]^7``
closes at K = 5 and ``[4] [3,4]`` read three times at K = 8.
"""

import itertools
import os
import random

import pytest

from artifact import FriezeTable, check_positivity, quiddity_new, quiddity_of
from artifact.frieze import parse_quiddity_text
from artifact.ring import make_context, sign_of
from artifact.suites import random_polygon_dissection

from frieze_oracle import (KernelRows, assert_positivity_decided,
                           first_nonpositive, sweep_cycles)

MULTISETS = [m for k in (1, 2)
             for m in itertools.combinations_with_replacement((3, 4, 5), k)]

SHORT = [quiddity_new(A * t) for n in (1, 2, 3)
         for A in itertools.product(MULTISETS, repeat=n) for t in (1, 2, 3)]


def _polygons():
    """Random dissected polygons, and the 16-gon whose golden ``gen`` case
    at depth 48 prints 33 sign-flipped rows."""
    rng = random.Random(19)
    with open(os.path.join(os.path.dirname(__file__), "golden", "inputs",
                           "polygon_l60_n16.txt")) as fh:
        golden = parse_quiddity_text(fh.read())
    return [golden] + [quiddity_of(random_polygon_dissection(rng, 4, 16))
                       for _ in range(60)]


def assert_rows_match(Q):
    """Every stored row to depth 3n + K is the kernel's, K the width plus 3
    for a finite frieze and 0 for an infinite one, and the kernel fills
    rows 2..K-1 of a finite frieze alone."""
    F = FriezeTable(Q)
    K = 0 if F.width is None else F.width + 3
    depth = 3 * Q.n + K
    calls = []
    F._kernels = [lambda x, y, f=f: calls.append(f) or f(x, y)
                  for f in F._kernels]
    F._row(depth)
    G = KernelRows(Q)
    G._row(depth)
    assert F._rows == G._rows, Q
    assert len(calls) == Q.n * ((K or depth + 1) - 2), Q
    return K


def test_sign_flipped_rows_match_the_kernel_on_short_cycles():
    assert len(SHORT) == 2457
    closings = [(Q, K) for Q, K in zip(SHORT, map(assert_rows_match, SHORT))
                if K]
    assert len(closings) == 147
    assert any(K % Q.n for Q, K in closings)


@pytest.mark.parametrize("A, K", [
    ([(5,)] * 7, 5),
    ([(4,), (3, 4)] * 3, 8),
])
def test_closing_row_off_the_period(A, K):
    assert assert_rows_match(quiddity_new(A)) == K


def test_sign_flipped_rows_match_the_kernel_on_polygons():
    # a dissected n-gon closes at K = n
    for Q in _polygons():
        assert assert_rows_match(Q) == Q.n


@pytest.fixture(scope="module")
def sweep13():
    return sweep_cycles(13, 300)


def test_positivity_matches_the_scan_on_short_cycles():
    # A read t times has the frieze of A: the scan decides A, and A * t
    # must get A's verdict and witness, though its period, trace and
    # window differ
    for n in (1, 2, 3):
        for A in itertools.product(MULTISETS, repeat=n):
            v = assert_positivity_decided(quiddity_new(A))
            for t in (2, 3):
                assert check_positivity(FriezeTable(quiddity_new(A * t))) \
                    == v, (A, t)


def test_positivity_matches_the_scan_on_seed13_sweep(sweep13):
    assert len(sweep13) == 600
    for Q in sweep13:
        assert_positivity_decided(Q)


def test_two_sizes_everywhere_leaves_no_nonpositive_entry(sweep13):
    # the self-check that check_positivity made before its shortcut
    checked = 0
    for Q in SHORT + sweep13:
        if all(len(a) >= 2 for a in Q.A):
            assert first_nonpositive(KernelRows(Q), 3 * Q.n) is None, Q
            assert check_positivity(FriezeTable(Q)).reason == "entries >= 2"
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("sizes", [
    (3, 4, 5, 6), (5, 7), (7, 9), (11,), (13,), (30,),
])
def test_entry_at_least_two_exactly_with_two_sizes(sizes):
    # lambda_p = 2cos(pi/p) lies in [1, 2)
    ctx = make_context(sizes)
    two = ctx.from_int(2)
    ps = [p for p in range(3, ctx.L + 1) if ctx.L % p == 0]
    for k in (1, 2, 3):
        for a in itertools.combinations_with_replacement(ps, k):
            q = sum((ctx.lam(p) for p in a), ctx.zero())
            assert (sign_of(q - two) >= 0) == (len(a) >= 2), (sizes, a)
