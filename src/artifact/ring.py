"""Exact arithmetic in the real cyclotomic ring Z[2cos(pi/L)].

All frieze entries and matching weights of Type Lambda_{p_1,...,p_s} live in
the ring generated by the numbers lambda_p = 2cos(pi/p).  For a declared set
of subgon sizes we work in the single field Q(mu) with mu = 2cos(pi/L) and
L = lcm of the sizes; every lambda_p is an integer polynomial in mu, so one
reduction rule serves all mixed products.

Elements are stored as integer coefficient vectors in the power basis
1, mu, ..., mu^(d-1), reduced modulo the minimal polynomial Psi of mu.
Equality is coefficient equality and zero is the all-zero vector.  The
ring depends on L alone, so one context per L holds Psi, the reduction
rows, the lambda_q and the enclosure of mu, and every set of sizes with
that L shares it.

A product is reduced with the precomputed rows mu^m mod Psi, m = d..2d-2.
From degree ``KRONECKER_DEGREE`` on, both factors are packed into one
integer each (Kronecker substitution, one signed digit per coefficient), so
the polynomial product is a single bigint multiplication; below it the
schoolbook product is faster.

Every frieze entry comes from m_{i,j} = q m_{i+1,j} - m_{i+2,j} with q one
of the n quiddity entries.  ``FixedMultiplier`` fuses that step: the columns
C_k = q mu^k mod Psi of multiplication by q are sums of the columns of the
lambda_p, kept per L, and the context builds one multiplier per multiset
(``multiplier``).  Packed at digit width w, q x - y is read from the d
digits of bias + sum_k x_k C_k(w), with y subtracted in the unpack.  Digit
j of q x is sum_k x_k c_kj, below 2^bits(x) B in magnitude for the column
bound B = max_j sum_k |c_kj| <= d max |c_kj|, so w = bits(x) + bits(B) + 1,
rounded up to whole 64-bit words, holds every signed digit.

The sign of a nonzero element is decided in integers.  The certified
enclosure lo < mu < hi is kept as lo = a/N, hi = b/N.  With D = d - 1, the
element's value lies between the integer sums sum_k c_k x_k^k N^(D-k),
divided by N^D, where x_k is a for positive and b for negative
coefficients (lower bound) or the other way round (upper bound).  While
the two bounds do not exclude zero, the enclosure is bisected by the sign
of Psi at its midpoint.  No float enters a decision.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache


def _poly_mul(a, b):
    """Product of two integer coefficient lists (ascending degree)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_exact(num, den):
    """Divide integer polynomials, requiring an exact division.

    Used for the recursive cyclotomic-polynomial computation where the
    quotient is known to have integer coefficients.
    """
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dden)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dden]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division (remainder)")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    return tuple(_poly_divmod_exact(num, den))


def _totient(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _minpoly_from_cyclotomic(L):
    """Minimal polynomial Psi of 2cos(pi/L), via Phi_2L(z) = z^d Psi(z + 1/z).

    Phi_2L is palindromic of degree 2d, so z^(-d) Phi_2L(z) is a symmetric
    Laurent polynomial and can be rewritten in powers of y = z + 1/z by
    peeling off the top coefficient repeatedly.
    """
    phi = list(cyclotomic_poly(2 * L))
    deg = len(phi) - 1
    if deg % 2 != 0:
        raise ArithmeticError("cyclotomic polynomial of odd degree")
    d = deg // 2
    # balanced coefficients b[k] for z^k, k = -d..d, stored at index k + d
    bal = phi[:]  # same list read with offset d
    # (z + 1/z)^k in balanced form, computed incrementally
    psi = [0] * (d + 1)
    for k in range(d, -1, -1):
        c = bal[k + d]
        psi[k] = c
        if c:
            # subtract c * (z + 1/z)^k
            for t in range(0, k + 1):
                bal[(k - 2 * t) + d] -= c * math.comb(k, t)
    if any(bal):
        raise ArithmeticError("palindromic substitution failed")
    return psi


def _homogeneous(poly, a, den):
    """den^deg * poly(a/den) as an integer; its sign is that of poly(a/den)."""
    acc = 0
    scale = 1
    for c in reversed(poly):
        acc = acc * a + c * scale
        scale *= den
    return acc


# Smallest degree at which the Kronecker product beats the schoolbook one.
KRONECKER_DEGREE = 5
# Largest ring degree phi(2L)/2 a context may have.  phi(m) >= sqrt(m/2), so
# an L above 4 MAX_DEGREE^2 is refused without factoring it.
MAX_DEGREE = 64


class RingContext:
    """The ring Z[mu], mu = 2cos(pi/L).

    Attributes
    ----------
    L : int
        The ring is Z[2cos(pi/L)]; lambda_p lies in it for every p | L.
    degree : int
        Degree d = phi(2L)/2 of the minimal polynomial of mu.
    minpoly : tuple of int
        Monic minimal polynomial Psi of mu, ascending coefficients.

    ``rows[m - d]`` is mu^m mod Psi for m = d..2d-2, ``two_cos(k)`` the
    coefficients of 2cos(k pi/L), ``columns(p, w)`` the columns of
    multiplication by lambda_p, ``_mul`` the product kernel for the degree
    and ``multiplier(sizes)`` the ``FixedMultiplier`` of a multiset.  Packed
    rows and columns and the multipliers' digit layout are kept per width.

    A context is immutable after creation apart from these caches and the
    refinement of its certified enclosure of mu.  Elements of different
    contexts never mix (no implicit coercion).  ``make_context`` hands out
    one shared context per L; a context built directly is private and
    starts from a fresh enclosure.
    """

    def __init__(self, L):
        psi = _minpoly_from_cyclotomic(L)
        d = len(psi) - 1
        if d != _totient(2 * L) // 2:
            raise ArithmeticError("minimal polynomial degree self-check failed")
        self.L = L
        self.minpoly = tuple(psi)
        self.degree = d
        self._top = tuple(-c for c in psi[:-1])    # mu^d = sum top_k mu^k
        rows = []
        row = self._top
        for _ in range(d - 1):
            rows.append(row)
            row = self._times_mu(row)
        self.rows = tuple(rows)
        # a product digit is below d 2^(bits a + bits b), a reduced digit
        # below col times that: at width w >= bits a + bits b + slack every
        # signed digit fits in w - 1 bits
        col = max((1 + sum(abs(r[j]) for r in rows) for j in range(d)),
                  default=1)
        self._slack = d.bit_length() + col.bit_length() + 1
        self._packed = {}
        self._digits = {}
        self._multipliers = {}
        self._columns = {}
        self._lams = {}
        self._zeros = (0,) * (d - 1)
        self._two_cos = [(2,) + self._zeros,
                         self._times_mu((1,) + self._zeros)]
        self._enclosure = self._initial_enclosure()
        self._powers = None
        self._mul = (self._kronecker if d >= KRONECKER_DEGREE
                     else self._schoolbook)

    def _times_mu(self, x):
        top = x[-1]
        return tuple([top * self._top[0]]
                     + [a + top * t for a, t in zip(x, self._top[1:])])

    def _initial_enclosure(self):
        """A certified enclosure (a, b, N), a/N < mu < b/N, of the root
        mu = 2cos(pi/L) of Psi alone.

        mu is the largest real root; the next root 2cos(k pi/L) has k >= 3,
        so any rational lo strictly between them works.  The float seed is
        validated by exact sign checks before use.
        """
        if self.degree == 1:
            # mu is rational (only L = 3 here: mu = 1)
            return (-self.minpoly[0], -self.minpoly[0], 1)
        lo = Fraction(2 * math.cos(1.5 * math.pi / self.L))
        a, den = lo.limit_denominator(10**9).as_integer_ratio()
        if not (_homogeneous(self.minpoly, a, den) < 0
                < _homogeneous(self.minpoly, 2 * den, den)):
            raise ArithmeticError("could not certify initial root enclosure")
        return (a, 2 * den, den)

    def two_cos(self, k):
        """Coefficients of 2cos(k pi/L): t_0 = 2, t_1 = mu,
        t_k = mu t_(k-1) - t_(k-2)."""
        t = self._two_cos
        while len(t) <= k:
            t.append(tuple(x - y for x, y in
                           zip(self._times_mu(t[-1]), t[-2])))
        return t[k]

    def columns(self, p, w=0):
        """(B, C): the columns C_k = lambda_p mu^k mod Psi, k = 0..d-1, of
        multiplication by lambda_p, packed at digit width w if w > 0, and
        their column bound B = max_j sum_k |c_kj|."""
        key = (p, w)
        if key not in self._columns:
            if w:
                bound, cols = self.columns(p)
                cols = [_pack(c, w) for c in cols]
            else:
                cols = [self.two_cos(self.L // p)]
                for _ in range(self.degree - 1):
                    cols.append(self._times_mu(cols[-1]))
                bound = max(sum(map(abs, r)) for r in zip(*cols))
            self._columns[key] = (bound, tuple(cols))
        return self._columns[key]

    def multiplier(self, sizes):
        """The ``FixedMultiplier`` of the sorted multiset ``sizes``, built
        once per context and shared by every frieze table."""
        if sizes not in self._multipliers:
            self._multipliers[sizes] = FixedMultiplier(self, sizes)
        return self._multipliers[sizes]

    def _schoolbook(self, a, b):
        d = self.degree
        prod = _poly_mul(a, b)
        out = prod[:d]
        for c, row in zip(prod[d:], self.rows):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        return tuple(out)

    def _pack_rows(self, w):
        """The rows packed at digit width w, with the bias that makes every
        digit of a packed product nonnegative."""
        d = self.degree
        half = 1 << (w - 1)
        packed = (tuple(_pack(row, w) for row in self.rows),
                  sum(half << (w * k) for k in range(2 * d - 1)))
        self._packed[w] = packed
        return packed

    def _digit_layout(self, w):
        """(bias, half, mask, shifts) of d signed digits of width w."""
        if w not in self._digits:
            half, d = 1 << (w - 1), self.degree
            self._digits[w] = (_pack((half,) * d, w), half, (1 << w) - 1,
                               range(0, d * w, w))
        return self._digits[w]

    def _kronecker(self, a, b):
        """Product by Kronecker substitution at a digit width that holds
        every signed digit of the product and of its reduction."""
        d = self.degree
        w = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
             + self._slack + 63) >> 6 << 6
        rows, bias = self._packed.get(w) or self._pack_rows(w)
        half = 1 << (w - 1)
        mask = (1 << w) - 1
        low = d * w
        # all 2d - 1 digits of the product, each shifted into [0, 2^w)
        prod = _pack(a, w) * _pack(b, w) + bias
        out = prod & ((1 << low) - 1)
        prod >>= low
        for row in rows:
            out += ((prod & mask) - half) * row
            prod >>= w
        return tuple([((out >> s) & mask) - half for s in range(0, low, w)])

    # -- the enclosure of mu -------------------------------------------------

    def _refine_enclosure_once(self):
        a, b, den = self._enclosure
        mid = a + b
        v = _homogeneous(self.minpoly, mid, 2 * den)
        if v == 0:
            raise ArithmeticError(
                "rational midpoint is a root (impossible for d >= 2)")
        if v < 0:
            self._enclosure = (mid, 2 * b, 2 * den)
        else:
            self._enclosure = (2 * a, mid, 2 * den)
        self._powers = None

    def _enclosure_powers(self):
        """(a^k N^(D-k), b^k N^(D-k)) for k = 0..D, for the current
        enclosure (a, b, N); rebuilt only after the enclosure moves."""
        if self._powers is None:
            a, b, den = self._enclosure
            D = self.degree - 1
            self._powers = tuple(tuple(x ** k * den ** (D - k)
                                       for k in range(D + 1)) for x in (a, b))
        return self._powers

    # -- element constructors ------------------------------------------------

    def from_int(self, c):
        return RingElem(self, (int(c),) + self._zeros)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def mu(self):
        return RingElem(self, self.two_cos(1))

    def lam(self, p):
        """lambda_p = 2cos(pi/p), for p dividing L; built once."""
        val = self._lams.get(p)
        if val is None:
            if self.L % p != 0:
                raise ValueError("size %d is not covered by this context" % p)
            val = self._lams[p] = RingElem(self, self.two_cos(self.L // p))
        return val

    def __repr__(self):
        return "RingContext(L=%d, degree=%d)" % (self.L, self.degree)


def _pack(coeffs, w):
    """sum coeffs[k] * 2^(w k), the Kronecker substitution x = 2^w."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << w) + c
    return acc


class FixedMultiplier:
    """Multiplication by q = sum of lambda_p over the multiset ``sizes`` (each
    p dividing L) fused with a subtraction: ``times_minus(x, y)`` is q x - y
    on coefficient tuples.  The column bound of q is taken as the sum of the
    bounds of its lambda_p."""

    def __init__(self, context, sizes):
        self._context = context
        self._sizes = sizes
        self._bits = sum(context.columns(p)[0] for p in sizes).bit_length()
        self._packed = {}

    def times_minus(self, x, y):
        w = (max(map(int.bit_length, x)) + self._bits + 64) >> 6 << 6
        if w not in self._packed:
            ctx = self._context
            cols = [ctx.columns(p, w)[1] for p in self._sizes]
            self._packed[w] = ((tuple(map(sum, zip(*cols))),)
                               + ctx._digit_layout(w))
        cols, bias, half, mask, shifts = self._packed[w]
        out = sum(map(operator.mul, x, cols), bias)
        if w == 64:
            # flipping bit 63 of each biased digit leaves it in two's
            # complement, so the digits are read as signed words at once
            raw = (out ^ bias).to_bytes(8 * len(x), sys.byteorder)
            return tuple(map(operator.sub, memoryview(raw).cast("q"), y))
        return tuple([(out >> s & mask) - half - c for s, c in zip(shifts, y)])


class RingElem:
    """An element of Z[mu] in reduced power-basis form."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs):
        self.context = context
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if isinstance(other, int):
            other = self.context.from_int(other)
        if other.context is not self.context:
            raise ValueError("ring context mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return RingElem(self.context,
                        tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return RingElem(self.context,
                        tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return RingElem(self.context, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other):
        other = self._check(other)
        return RingElem(self.context,
                        self.context._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.context.from_int(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.context is other.context and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.context), self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def approx(self):
        """Floating point approximation (display only, never authoritative)."""
        x = 2.0 * math.cos(math.pi / self.context.L)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return format_elem(self)


def make_context(levels):
    """The ring context for a set of subgon sizes (each >= 3): the one
    shared context of L = lcm of the sizes.  Size sets with the same L get
    the same context, so their elements compare everywhere.  A ring of
    degree above MAX_DEGREE is refused before it is built."""
    levels = sorted({int(p) for p in levels})
    if not levels:
        raise ValueError("levels must be nonempty")
    if levels[0] < 3:
        raise ValueError("every level must be >= 3")
    L = math.lcm(*levels)
    if L > 4 * MAX_DEGREE ** 2 or _totient(2 * L) // 2 > MAX_DEGREE:
        raise ValueError("the ring for subgon sizes %s has degree "
                         "phi(2L)/2 above %d" % (levels, MAX_DEGREE))
    return _context_for(L)


@lru_cache(maxsize=None)
def _context_for(L):
    return RingContext(L)


def chebyshev_u(ctx, k, x):
    """Normalized Chebyshev polynomial of the second kind, evaluated at x.

    U_{-1} = 0, U_0 = 1, U_k = x U_{k-1} - U_{k-2}.
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    if isinstance(x, int):
        x = ctx.from_int(x)
    if k == -1:
        return ctx.zero()
    prev = ctx.zero()
    cur = ctx.one()
    for _ in range(k):
        prev, cur = cur, x * cur - prev
    return cur


def sign_of(a):
    """Sign in {-1, 0, 1}; zero is decided syntactically, otherwise by
    integer bounds on a refinable certified enclosure of mu.

    The enclosure lies in (0, 2], so powers are monotone on it: the lower
    bound takes lo^k for positive and hi^k for negative coefficients, the
    upper bound the other way round, summed only when the lower bound is
    not positive.
    """
    if a.is_zero():
        return 0
    ctx, coeffs = a.context, a.coeffs
    while True:
        lo, hi = ctx._enclosure_powers()
        if _bound(coeffs, lo, hi) > 0:
            return 1
        if _bound(coeffs, hi, lo) < 0:
            return -1
        ctx._refine_enclosure_once()


def _bound(coeffs, pos, neg):
    """sum_k c_k x_k with x_k = pos[k] for positive and neg[k] for negative
    c_k, skipping the zero coefficients."""
    v = 0
    for c, p, q in zip(coeffs, pos, neg):
        if c > 0:
            v += c * p
        elif c < 0:
            v += c * q
    return v


@lru_cache(maxsize=None)
def _term_templates(d):
    """Per power k < d: the templates of a term with coefficient above 1 and
    below -1, and the terms of the coefficients 1 and -1."""
    out = []
    for k in range(d):
        m = ("*m" if k == 1 else "*m^%d" % k) if k else ""
        unit = m[1:] or "1"
        out.append(("+ %d" + m, "- %d" + m, {1: "+ " + unit, -1: "- " + unit}))
    return tuple(out)


def format_elem(a, approx=True):
    """Textual form: integer polynomial in m = 2cos(pi/L), with a decimal
    hint, e.g. ``3 + 3*m : 7.24264``.  The exact part is authoritative."""
    coeffs = a.coeffs
    templates = _term_templates(len(coeffs))
    terms = [pos % c if c > 1 else neg % -c if c < -1 else unit[c]
             for (pos, neg, unit), c in zip(templates, coeffs) if c]
    if terms:
        exact = " ".join(terms)
        # the first term carries its sign without a space: "-3*m", "m"
        exact = exact[2:] if exact[0] == "+" else "-" + exact[2:]
    else:
        exact = "0"
    if not approx:
        return exact
    return "%s : %.6g" % (exact, a.approx())
