"""Exact arithmetic in Z[2cos(pi/L)] and the Chebyshev kernel."""

import random
from fractions import Fraction

from artifact import (RingContext, make_context, chebyshev_u, sign_of,
                      format_elem)
from artifact.ring import MAX_DEGREE, _totient


def U(ctx, k, p):
    return chebyshev_u(ctx, k, ctx.lam(p))


def test_lambda_values_approximate():
    ctx = make_context([3, 4, 5, 6])
    import math
    for p in (3, 4, 5, 6):
        assert abs(ctx.lam(p).approx() - 2 * math.cos(math.pi / p)) < 1e-6


def test_chebyshev_value_table():
    # U_k(lam_p) for k <= 5, p in {3,4,5,6}: 1 and 0 rows are integers,
    # the others are lam_4 = sqrt(2), lam_5 = golden ratio, lam_6 = sqrt(3)
    ctx = make_context([3, 4, 5, 6])
    one = ctx.one()
    r2, phi, r3 = ctx.lam(4), ctx.lam(5), ctx.lam(6)
    two = ctx.from_int(2)
    table = {
        3: [one, one, ctx.zero(), -one, -one, ctx.zero()],
        4: [one, r2, one, ctx.zero(), -one, -r2],
        5: [one, phi, phi, one, ctx.zero(), -one],
        6: [one, r3, two, r3, one, ctx.zero()],
    }
    for p, col in table.items():
        for k, expected in enumerate(col):
            assert U(ctx, k, p) == expected, (k, p)


def test_chebyshev_periodicity():
    # U_{k+p}(lam_p) = -U_k(lam_p); in particular U_{p-1}(lam_p) = 0
    ctx = make_context([3, 4, 5, 6])
    for p in (3, 4, 5, 6):
        assert U(ctx, p - 1, p).is_zero()
        for k in range(-1, 12):
            assert U(ctx, k + p, p) == -U(ctx, k, p)


def test_chebyshev_side_independence_and_positivity():
    # U_k(lam_p) = U_{p-2-k}(lam_p), and U_k(lam_p) >= 1 on 0 <= k <= p-2
    ctx = make_context([3, 4, 5, 6])
    one = ctx.one()
    for p in (3, 4, 5, 6):
        for k in range(0, p - 1):
            assert U(ctx, k, p) == U(ctx, p - 2 - k, p)
            assert sign_of(U(ctx, k, p) - one) >= 0


def test_chebyshev_product_identity():
    # U_{m+1} U_{n+1} - U_m U_n = U_{m+n+2}
    ctx = make_context([3, 4, 5, 6])
    for p in (3, 4, 5, 6):
        x = ctx.lam(p)
        for m in range(-1, 7):
            for n in range(-1, 7):
                lhs = (chebyshev_u(ctx, m + 1, x) * chebyshev_u(ctx, n + 1, x)
                       - chebyshev_u(ctx, m, x) * chebyshev_u(ctx, n, x))
                assert lhs == chebyshev_u(ctx, m + n + 2, x)


def test_long_constant_run_forces_zero_entry():
    # a row of p-2 entries lam_p multiplies out to m_{0,p} = 0:
    # the product telescope is exactly U_{p-1}(lam_p)
    ctx = make_context([3, 4, 5, 6])
    for p in (3, 4, 5, 6):
        below, cur = ctx.zero(), ctx.one()
        for _ in range(p - 1):
            below, cur = cur, ctx.lam(p) * cur - below
        assert cur.is_zero()


def test_sign_of_exact():
    ctx = make_context([4, 6])
    r2, r3 = ctx.lam(4), ctx.lam(6)
    assert sign_of(r3 - r2) == 1          # sqrt(3) > sqrt(2)
    assert sign_of(r2 - r3) == -1
    assert sign_of(r2 * r2 - ctx.from_int(2)) == 0
    # deliberately tiny differences around convergents of sqrt(2)
    assert sign_of(ctx.from_int(70) * r2 - ctx.from_int(99)) == -1
    assert sign_of(ctx.from_int(169) * r2 - ctx.from_int(239)) == 1


def test_equality_requires_shared_context():
    # make_context shares one context per L; contexts built directly stay
    # private and never compare equal
    assert make_context([4]) is make_context([4]) is make_context({4})
    c1 = RingContext(4)
    c2 = RingContext(4)
    assert c1.lam(4) == c1.lam(4)
    assert not (c1.lam(4) == c2.lam(4))


def test_context_covers_lcm():
    ctx = make_context([4, 6])
    assert ctx.L == 12
    # lam_3 = 1 is available in every context
    assert ctx.lam(3) == ctx.one()


def test_format_elem_roundtrip_reading():
    ctx = make_context([4])
    x = ctx.from_int(7) + ctx.from_int(6) * ctx.lam(4)
    s = format_elem(x)
    assert ":" in s          # exact form plus decimal hint
    assert format_elem(x, approx=False).count(":") == 0


def test_ring_axioms_random(rng):
    ctx = make_context([4, 5, 6])
    deg = len(ctx.lam(4).coeffs)

    def rand_elem():
        from artifact.ring import RingElem
        return RingElem(ctx, tuple(rng.randint(-3, 3) for _ in range(deg)))

    rng = random.Random(7)
    for _ in range(40):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == ctx.zero()
        assert a * ctx.one() == a


def _rank(vectors):
    """The rank over Q of integer vectors, by exact elimination."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_lambdas_independent_in_every_ring():
    # 1 and lambda_p for the p >= 4 dividing L are linearly independent over
    # Q in every ring within MAX_DEGREE (167 rings, L <= 255 at degree 64):
    # an integer relation would give two multisets with equal sums, so a
    # value is a sum of lambda_p in at most one way
    rings = [L for L in range(3, 4 * MAX_DEGREE ** 2 + 1)
             if _totient(2 * L) // 2 <= MAX_DEGREE]
    assert len(rings) >= 3
    for L in rings:
        ctx = RingContext(L)
        vectors = [ctx.one().coeffs] + [ctx.lam(p).coeffs
                                        for p in range(4, L + 1) if L % p == 0]
        assert _rank(vectors) == len(vectors), L
