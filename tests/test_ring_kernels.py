"""Differential tests of the ring kernels against their slow forms.

The oracles are the arithmetic the kernels replaced: the schoolbook
product reduced one top coefficient at a time by the minimal polynomial,
and the sign read from a ``Fraction`` interval evaluation on a bisected
``Fraction`` enclosure of mu.  ``sign_of`` must also make the decisions
and the enclosure refinements of a loop that sums both integer bounds in
one pass.  Both Kronecker and schoolbook products are checked in every
context, whichever of the two the context selects.  The
fixed-multiplier kernel of the frieze recurrence is checked against q x - y
through the general product at one-word and multi-word digit widths, and
``FriezeTable``, which fills whole rows with that kernel, against a walk
down each diagonal.
"""

import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact import (FriezeTable, growth_coefficient, make_context,
                      parse_quiddity_text, quiddity_new, sign_of)
from artifact import ring
from artifact.ring import (KRONECKER_DEGREE, MAX_DEGREE, FixedMultiplier,
                           RingContext, RingElem)

LEVELS = (3, 4, 5, 6, 7, 11, 12, 15, 20, 60)
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "inputs")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_mul(psi, a, b):
    """Schoolbook product, reduced top-down by the monic minimal polynomial."""
    d = len(psi) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for j in range(d + 1):
                prod[k - d + j] -= c * psi[j]
        prod.pop()
    return tuple(prod + [0] * (d - len(prod)))


def interval_value(coeffs, lo, hi):
    """Fraction bounds of the element's value given lo <= mu <= hi, lo > 0."""
    vlo = vhi = Fraction(0)
    plo = phi = Fraction(1)
    for c in coeffs:
        if c > 0:
            vlo += c * plo
            vhi += c * phi
        elif c < 0:
            vlo += c * phi
            vhi += c * plo
        plo *= lo
        phi *= hi
    return vlo, vhi


class FractionSign:
    """The sign of elements of one context, decided on a Fraction enclosure
    of mu that is bisected by the sign of the minimal polynomial."""

    def __init__(self, ctx):
        self.psi = ctx.minpoly
        self.L = ctx.L
        if ctx.degree == 1:
            root = Fraction(-self.psi[0], self.psi[1])
            self.lo = self.hi = root
        else:
            lo = Fraction(2 * math.cos(1.5 * math.pi / ctx.L))
            self.lo = lo.limit_denominator(10**9)
            self.hi = Fraction(2)
            assert self.psi_at(self.lo) < 0 < self.psi_at(self.hi)

    def psi_at(self, x):
        acc = Fraction(0)
        for c in reversed(self.psi):
            acc = acc * x + c
        return acc

    def refine(self):
        mid = (self.lo + self.hi) / 2
        if self.psi_at(mid) < 0:
            self.lo = mid
        else:
            self.hi = mid

    def value_near(self, coeffs, width):
        while self.hi - self.lo > width:
            self.refine()
        return interval_value(coeffs, self.lo, self.hi)[0]

    def __call__(self, coeffs):
        if not any(coeffs):
            return 0
        while True:
            vlo, vhi = interval_value(coeffs, self.lo, self.hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self.refine()


def loop_sign(x):
    """The sign of x by a per-coefficient loop over the enclosure's powers
    lo_k = a^k N^(D-k) and hi_k = b^k N^(D-k), summing both bounds v_lo
    and v_hi in one pass before it decides, and refining x's context until
    they exclude zero: the decision rule ``sign_of`` must follow."""
    if x.is_zero():
        return 0
    ctx = x.context
    D = ctx.degree - 1
    while True:
        a, b, den = ctx._enclosure
        vlo = vhi = 0
        for k, c in enumerate(x.coeffs):
            pl, ph = a ** k * den ** (D - k), b ** k * den ** (D - k)
            if c > 0:
                vlo += c * pl
                vhi += c * ph
            elif c < 0:
                vlo += c * ph
                vhi += c * pl
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        ctx._refine_enclosure_once()


# ---------------------------------------------------------------------------
# element generators
# ---------------------------------------------------------------------------

def random_coeffs(rng, d, bits):
    return tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(d))


def extremal_coeffs(rng, d, bits):
    """Coefficients of the largest magnitude below 2^bits, with signs that
    are all equal or alternate, so product digits reach their bound."""
    m = (1 << bits) - 1
    signs = rng.choice([(1,) * d, (-1,) * d,
                        tuple((-1) ** k for k in range(d))])
    return tuple(s * m for s in signs)


def boundary_bits(ctx):
    """Operand bit lengths (ba, bb) whose digit width sits just below, at
    and just above a multiple of 64 bits."""
    out = []
    for target in (64, 128, 320):
        for total in (target - 1, target, target + 1):
            need = total - ctx._slack
            if need >= 2:
                out.append((need // 2, need - need // 2))
    return out


def frieze_entries(A, depth):
    F = FriezeTable(quiddity_new(A))
    return F, [F.entry(i, i + t + 1) for t in range(1, depth + 1)
               for i in range(F.n)]


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", LEVELS)
def test_both_product_kernels_match_the_oracle(L):
    ctx = make_context([L])
    d = ctx.degree
    rng = random.Random(L)
    pairs = []
    for bits in (0, 1, 3, 8, 31, 32, 33, 63, 64, 65, 127, 200, 400):
        for _ in range(6):
            pairs.append((random_coeffs(rng, d, bits),
                          random_coeffs(rng, d, rng.choice([0, 2, bits]))))
        pairs.append((extremal_coeffs(rng, d, max(bits, 1)),
                       extremal_coeffs(rng, d, max(bits, 1))))
    for ba, bb in boundary_bits(ctx):
        for _ in range(4):
            pairs.append((extremal_coeffs(rng, d, ba),
                          extremal_coeffs(rng, d, bb)))
    for a, b in pairs:
        want = oracle_mul(ctx.minpoly, a, b)
        assert ctx._kronecker(a, b) == want, (a, b)
        assert ctx._schoolbook(a, b) == want, (a, b)
        assert (RingElem(ctx, a) * RingElem(ctx, b)).coeffs == want


def test_kernel_choice_follows_the_degree():
    for L in LEVELS:
        ctx = make_context([L])
        want = (ctx._kronecker if ctx.degree >= KRONECKER_DEGREE
                else ctx._schoolbook)
        assert ctx._mul == want
    # the benchmark contexts lie on both sides of the crossover
    assert (make_context([3]).degree < KRONECKER_DEGREE
            <= make_context([60]).degree)


def test_frieze_recurrence_products_match_the_oracle():
    for A in ([(3, 4), (4, 5), (3, 5), (3, 4, 5), (4, 5), (3, 5, 5)],
              [(4, 5), (4, 5, 5), (5,), (4, 4, 5), (4, 5)],
              [(3, 4), (4,), (3, 3, 4), (4,), (3, 4)]):
        _F, es = frieze_entries(A, 3 * len(A))
        psi = es[0].context.minpoly
        for x, y in zip(es, es[len(A):]):
            assert (x * y).coeffs == oracle_mul(psi, x.coeffs, y.coeffs)


def test_size_sets_with_one_lcm_share_a_context():
    c1, c2 = make_context([4, 5]), make_context([20])
    assert c1.L == c2.L == 20 and c1 is c2
    assert c1.lam(5) == c2.lam(5) and c1.lam(4) == c2.lam(4)
    # contexts of different L never mix
    c4, c5 = make_context([4]), make_context([5])
    assert c4 is not c5
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="ring context mismatch"):
            getattr(c4.lam(4), op)(c5.lam(5))
    assert c4.one() != c5.one()
    # lambda_q are the old Chebyshev-like products mu t_(k-1) - t_(k-2)
    mu = c1.mu()
    prev, cur = c1.from_int(2), mu
    for k in range(2, 6):
        prev, cur = cur, mu * cur - prev
    assert cur == c1.lam(4)


def test_ring_degree_is_capped(monkeypatch):
    assert make_context([255]).degree == MAX_DEGREE
    # refused before the ring of L is built
    monkeypatch.setattr(ring, "_context_for", None)
    for levels in ([131], [1009], [10007], [16384], [16385], [7, 11, 13],
                   [10 ** 40 + 1]):
        with pytest.raises(ValueError, match="above %d" % MAX_DEGREE):
            make_context(levels)


# ---------------------------------------------------------------------------
# the fixed-multiplier kernel and the frieze fill
# ---------------------------------------------------------------------------

def multiplier_sizes(L, rng):
    """lambda_p alone for every size p dividing L, and a few multisets."""
    sizes = [p for p in range(3, L + 1) if L % p == 0]
    return [(p,) for p in sizes] + [
        tuple(sorted(rng.choice(sizes) for _ in range(rng.randint(2, 4))))
        for _ in range(4)]


def row_matched_coeffs(cols, bits):
    """Coefficients of magnitude 2^bits - 1 with the signs of the row of
    largest absolute sum of the matrix with columns ``cols``: that digit of
    the product reaches its bound."""
    row = max(zip(*cols), key=lambda r: sum(map(abs, r)))
    m = (1 << bits) - 1
    return tuple(m if c >= 0 else -m for c in row)


@pytest.mark.parametrize("L", LEVELS)
def test_fixed_multiplier_matches_the_general_product(L):
    ctx = make_context([L])
    d = ctx.degree
    rng = random.Random(200 + L)
    for sizes in multiplier_sizes(L, rng):
        M = FixedMultiplier(ctx, sizes)
        q = sum((ctx.lam(p) for p in sizes), ctx.zero())
        cols = [(q * RingElem(ctx, (0,) * k + (1,) + (0,) * (d - 1 - k))).coeffs
                for k in range(d)]
        xs = []
        for bits in (0, 1, 3, 8, 31, 63, 64, 65, 127, 200, 400):
            xs += [random_coeffs(rng, d, bits),
                   extremal_coeffs(rng, d, max(bits, 1))]
        # kernel widths just below, at and just above a multiple of 64 bits
        for total in (63, 64, 65, 127, 128, 129, 447, 448, 449):
            bits = total - M._bits - 1
            if bits >= 1:
                xs += [row_matched_coeffs(cols, bits),
                       extremal_coeffs(rng, d, bits)]
        for x in xs:
            top = max(map(int.bit_length, x)) + M._bits
            # a small y, and a y larger than q x
            for y in (random_coeffs(rng, d, rng.choice([0, 8, 64])),
                      extremal_coeffs(rng, d, top + 2)):
                want = q * RingElem(ctx, x) - RingElem(ctx, y)
                assert M.times_minus(x, y) == want.coeffs, (sizes, x, y)
        # both unpacks ran: signed 64-bit words, and the shift/mask loop
        assert 64 in M._packed and max(M._packed) > 64, sorted(M._packed)


class DiagonalWalk:
    """The frieze table computed one cell at a time: a miss on m_{i,j}
    walks the whole diagonal ending at j from m_{j-1,j} down to i, probing
    every memo key and multiplying ring elements."""

    def __init__(self, Q):
        self.Q, self.n, self.memo = Q, Q.n, {}

    def entry(self, i, j):
        ctx = self.Q.context
        if j - i < 2:
            return ctx.one() if j - i else ctx.zero()
        hit = self.memo.get((i % self.n, j - i))
        if hit is not None:
            return hit
        below, cur = ctx.zero(), ctx.one()
        for k in range(j - 2, i - 1, -1):
            key = (k % self.n, j - k)
            hit = self.memo.get(key)
            if hit is None:
                # m_{k,k+2} is the quiddity entry centered at k+1
                hit = self.memo[key] = self.Q.entries[k % self.n] * cur - below
            below, cur = cur, hit
        return cur


FILL_CYCLES = st.lists(st.lists(st.sampled_from([3, 4, 5, 6]), min_size=1,
                                max_size=3), min_size=1, max_size=7)


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(FILL_CYCLES, st.data())
def test_entry_in_any_access_order_matches_the_diagonal_walk(A, data):
    Q = quiddity_new(A)
    n = Q.n
    F, oracle = FriezeTable(Q), DiagonalWalk(Q)
    cells = data.draw(st.lists(st.tuples(st.integers(-2 * n, 2 * n),
                                         st.integers(0, 3 * n + 2)),
                               min_size=1, max_size=40))
    if data.draw(st.booleans()):
        # a row-by-row prefix, as gen and the scans read the table
        cells = [(i, t + 1) for t in range(1, 4) for i in range(n)] + cells
    for i, d in cells:
        assert F.entry(i, i + d) == oracle.entry(i, i + d), (i, i + d)
    assert F.trace() == oracle.entry(0, n + 1) - oracle.entry(1, n)
    # every stored row is the oracle's, the trivial rows 0 and 1 included
    for d, row in enumerate(F._rows):
        assert len(row) == n
        for i, v in enumerate(row):
            assert v == oracle.entry(i, i + d), (i, i + d)


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

def near_zero(ctx, oracle, coeffs, digits):
    """q x - p for a rational p/q close to the value of x: a small element
    whose sign needs many bisections."""
    v = oracle.value_near(coeffs, Fraction(1, 10 ** (2 * digits + 8)))
    approx = v.limit_denominator(10 ** digits)
    x = RingElem(ctx, coeffs)
    return x * approx.denominator - approx.numerator


@pytest.mark.parametrize("L", LEVELS)
def test_sign_of_matches_the_fraction_oracle(L):
    # a private context, whose enclosure no earlier test has refined
    ctx = RingContext(L)
    oracle = FractionSign(ctx)
    d = ctx.degree
    rng = random.Random(100 + L)
    elems = [RingElem(ctx, random_coeffs(rng, d, bits))
             for bits in (0, 1, 4, 30, 64, 200, 400) for _ in range(8)]
    elems += [near_zero(ctx, oracle, random_coeffs(rng, d, bits), digits)
              for bits in (2, 10) for digits in (6, 15, 30)]
    start = ctx._enclosure[2]
    for x in elems:
        assert sign_of(x) == oracle(x.coeffs), x
        assert sign_of(-x) == -oracle(x.coeffs)
    if d > 1:
        # the near-zero elements made the enclosure bisect many times
        assert ctx._enclosure[2] >= start << 60


@pytest.mark.parametrize("L", (3, 4, 5, 12, 20, 60))
def test_sign_of_decides_and_refines_as_the_coefficient_loop(L):
    # two private contexts of one L: sign_of refines one, the loop the
    # other, and their enclosures must stay equal after every call
    ctx, twin = RingContext(L), RingContext(L)
    d = ctx.degree
    rng = random.Random(300 + L)
    cases = [random_coeffs(rng, d, bits)
             for bits in (0, 1, 4, 30, 64, 200) for _ in range(6)]
    oracle = FractionSign(ctx)
    cases += [near_zero(ctx, oracle, random_coeffs(rng, d, bits),
                        digits).coeffs
              for bits in (2, 10) for digits in (3, 6, 15, 30)]
    if L % 5 == 0:   # 1000 lambda_5 - 1618 = 0.034...
        cases.append((ctx.lam(5) * 1000 - 1618).coeffs)
    start = ctx._enclosure
    for coeffs in cases:
        for c in (coeffs, tuple(-v for v in coeffs)):
            assert sign_of(RingElem(ctx, c)) == loop_sign(RingElem(twin, c)), c
            assert ctx._enclosure == twin._enclosure, c
    if d > 1:
        assert ctx._enclosure[2] >= start[2] << 60


def test_sign_of_on_frieze_growth_and_entry_differences():
    # s_1 - 2 is exactly 0 on discs and positive on annuli; differences of
    # entries of one frieze include nearly equal pairs
    with open(os.path.join(INPUTS, "disc_ears_n40.txt")) as fh:
        disc = parse_quiddity_text(fh.read())
    annulus = quiddity_new([(3, 3, 4), (3,), (3, 3, 4, 4)])
    for Q, s1_sign in ((disc, 0), (annulus, 1)):
        F = FriezeTable(Q)
        s1 = growth_coefficient(F, 1)
        assert sign_of(s1 - 2) == s1_sign
        assert FractionSign(F.context)((s1 - 2).coeffs) == s1_sign
    for A in ([(3, 4), (4, 5), (3, 5), (3, 4, 5), (4, 5), (3, 5, 5)],
              [(3, 4), (4,), (3, 3, 4), (4,), (3, 4)]):
        _F, es = frieze_entries(A, 2 * len(A))
        oracle = FractionSign(es[0].context)
        es.sort(key=lambda e: e.approx())
        for x, y in zip(es, es[1:]):
            assert sign_of(x - y) == oracle((x - y).coeffs)
            assert sign_of(y - x) == oracle((y - x).coeffs)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def elements(draw, count, bits=300):
    L = draw(st.sampled_from(LEVELS))
    ctx = make_context([L])
    coeff = st.integers(-(1 << bits), 1 << bits)
    return [RingElem(ctx, tuple(draw(coeff) for _ in range(ctx.degree)))
            for _ in range(count)]


@PROPERTY
@given(elements(3))
def test_ring_axioms(abc):
    a, b, c = abc
    ctx = a.context
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == ctx.zero()
    assert a * ctx.one() == a
    assert (a * ctx.zero()).is_zero()
    assert (a * b).coeffs == oracle_mul(ctx.minpoly, a.coeffs, b.coeffs)


@PROPERTY
@given(elements(1, bits=20))
def test_sign_of_agrees_with_approx_when_well_separated(a):
    (x,) = a
    v = x.approx()
    mu = 2 * math.cos(math.pi / x.context.L)
    scale = sum(abs(c) * mu ** k for k, c in enumerate(x.coeffs)) + 1
    if abs(v) > 1e-9 * scale:
        assert sign_of(x) == (1 if v > 0 else -1)
    else:
        assert sign_of(x) == FractionSign(x.context)(x.coeffs)
