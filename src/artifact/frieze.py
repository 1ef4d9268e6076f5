"""Quiddity cycles and frieze tables over Z[2cos(pi/L)].

A quiddity cycle is a cyclic sequence of finite multisets A_1,...,A_n of
integers >= 3; the derived entries m_{i-1,i+1} = sum_{p in A_i} lambda_p
generate an (infinite or finite) frieze pattern via the division-free
recurrence m_{i,j} = m_{i,i+2} m_{i+1,j} - m_{i+2,j}.

The multiset sequence, not the ring values, is the primary input: the
realizability machinery needs the sets A_i themselves, and decomposing a
ring element into a sum of lambda_p is not well defined in general.

Indices follow the paper: quiddity positions are 1-based and cyclic mod n;
frieze table indices (i, j) are arbitrary integers with j >= i.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import index
from typing import Optional

from .ring import FixedMultiplier, RingElem, make_context, sign_of


def _as_multiset(a):
    t = tuple(sorted(map(int, a)))
    if not t:
        raise ValueError("empty multiset in quiddity cycle")
    if t[0] < 3:
        raise ValueError("multiset entries must be >= 3")
    return t


def _sizes(A):
    """The frozenset of the entries of the multisets A."""
    return frozenset(chain.from_iterable(A))


def _with(a, p):
    """The sorted tuple a with one more p."""
    k = bisect_right(a, p)
    return a[:k] + (p,) + a[k:]


class QuiddityCycle:
    """Cyclic sequence of multisets with derived ring entries.

    ``A`` is stored as a tuple of sorted int tuples; ``entries[i - 1]`` is
    the derived value m_{i-1,i+1} for the 1-based position i, summed on
    first read (classification never reads it).

    The constructor checks its input.  A cycle derived from a checked one
    (``rotated``, ``glue``, ``cut``) is built by ``_trusted`` without the
    check.
    """

    def __init__(self, A, context=None):
        A = tuple(_as_multiset(a) for a in A)
        if not A:
            raise ValueError("quiddity cycle must have period >= 1")
        sizes = _sizes(A)
        if context is None:
            context = make_context(sizes)
        else:
            for p in sizes:
                if context.L % p != 0:
                    raise ValueError("context does not cover size %d" % p)
        self.A, self.n, self.context = A, len(A), context

    @classmethod
    def _trusted(cls, A, context):
        """A cycle from multisets already in checked form: A a nonempty
        tuple of sorted int tuples with entries >= 3 and context a ring
        covering them."""
        Q = cls.__new__(cls)
        Q.A, Q.n, Q.context = A, len(A), context
        return Q

    @cached_property
    def entries(self):
        ctx = self.context
        return tuple(sum((ctx.lam(p) for p in a), ctx.zero()) for a in self.A)

    def rotated(self, r):
        """The same cycle started r positions later (position 1+r first)."""
        r %= self.n
        return QuiddityCycle._trusted(self.A[r:] + self.A[:r], self.context)

    def __eq__(self, other):
        return isinstance(other, QuiddityCycle) and self.A == other.A

    def __hash__(self):
        return hash(self.A)

    def __repr__(self):
        return "QuiddityCycle(%s)" % (format_quiddity(self),)


def quiddity_new(A):
    """Build a quiddity cycle from a sequence of multisets of sizes >= 3."""
    return QuiddityCycle(A)


def format_quiddity(q):
    return " ".join("[%s]" % ",".join(str(p) for p in a) for a in q.A)


class FriezeTable:
    """Lazily computed frieze pattern determined by a quiddity cycle.

    The table is stored as whole rows: ``_rows[d][i]`` is m_{i,i+d} for one
    period, i = 0..n-1, and m_{i+n,j+n} = m_{i,j}.  Rows 0 and 1 hold the
    zeros and ones; row d is filled in one pass from rows d-1 and d-2 by
    m_{i,i+d} = m_{i,i+2} m_{i+1,i+d} - m_{i+2,i+d}, on coefficient tuples,
    with the fixed-multiplier kernel of the quiddity entry m_{i,i+2}, built
    once per distinct multiset.  Once a filled row K is all zeros after a
    row of ones, every later row d is row d-K negated, with no kernel call
    (README, "Finite friezes").
    """

    def __init__(self, quiddity):
        self.quiddity = quiddity
        self.n = n = quiddity.n
        self.context = ctx = quiddity.context
        kernels = {a: FixedMultiplier(ctx, a).times_minus
                   for a in set(quiddity.A)}
        self._kernels = [kernels[a] for a in quiddity.A]
        self._rows = [[ctx.zero()] * n, [ctx.one()] * n]
        self._closing = 0    # K, the row of zeros after the ones, once seen

    def _row(self, d):
        """The stored row d (d >= 0), filling the rows up to it in order."""
        rows, ctx, r = self._rows, self.context, 2 % self.n
        while len(rows) <= d:
            if self._closing:
                rows.append([-e for e in rows[len(rows) - self._closing]])
                continue
            # m_{i+1,i+d} is row d-1 rotated by 1, m_{i+2,i+d} row d-2 by 2
            x, y = rows[-1], rows[-2]
            rows.append([RingElem(ctx, f(a.coeffs, b.coeffs)) for f, a, b
                         in zip(self._kernels, x[1:] + x[:1], y[r:] + y[:r])])
            if rows[-1] == rows[0] and x == rows[1]:
                self._closing = len(rows) - 1
        return rows[d]

    def entry(self, i, j):
        """m_{i,j} for j >= i, from the rows up to j - i."""
        if j < i:
            raise ValueError("entry requires j >= i")
        return self._row(j - i)[i % self.n]

    def row(self, t):
        """Nontrivial row t (t >= 1): entries m_{i, i+t+1} for one period."""
        return list(self._row(t + 1))

    def trace(self):
        """s_1 = m_{0,n+1} - m_{1,n}, the trace of the period's transfer
        matrix M_n, computed once per table."""
        return self._s1

    @cached_property
    def _s1(self):
        return self._trace(self.n)

    def _trace(self, g):
        """tr M_g = m_{0,g+1} - m_{1,g}, M_g the transfer matrix of the
        first g positions, by two diagonal climbs that store nothing: O(g)."""
        return self._climb(0, g + 1) - self._climb(1, g)

    def _climb(self, i, j):
        """m_{i,j} (j >= i) up its diagonal from m_{j-1,j} = 1, m_{j,j} = 0."""
        zero, one = self._rows[0][0], self._rows[1][0]
        if i == j:
            return zero
        kernels, n = self._kernels, self.n
        x, y = one.coeffs, zero.coeffs
        for k in range(j - 2, i - 1, -1):
            x, y = kernels[k % n](x, y), x
        return RingElem(self.context, x)

    @cached_property
    def width(self):
        """The width w of a finite frieze (row w+1 all ones, row w+2 all
        zeros), or None for an infinite one: w = kg - 3 for the least k
        with M_g^k = -I, g the minimal period of the quiddity entries.
        Then tr M_g = 2cos(r pi) with r in ``_angles`` and r's numerator
        odd, k is r's denominator, and at r = 1 (trace -2) M_g must be -I.
        M_n is a power of M_g, so an s_1 outside ``_angles`` proves the
        frieze infinite at once (README, "Finite friezes").
        """
        angles = _angles(self.context)
        if self._s1.coeffs not in angles:
            return None
        E, n = [e.coeffs for e in self.quiddity.entries], self.n
        g = next(g for g in range(1, n + 1)
                 if n % g == 0 and E[g:] + E[:g] == E)
        r = angles.get((self._s1 if g == n else self._trace(g)).coeffs)
        if r is None or r.numerator % 2 == 0:
            return None
        if r == 1 and not (self._climb(0, g).is_zero()
                           and self._climb(1, g + 1).is_zero()):
            return None
        return r.denominator * g - 3


@lru_cache(maxsize=None)
def _angles(ctx):
    """r for each trace 2cos(r pi) of a matrix of finite order over the
    ring ``ctx``, keyed by its coefficients: 2cos(k pi/L) for k = 0..L,
    and the rational traces 0, 1 and -1 (r = 1/2, 1/3, 2/3); the field
    holds no other (README, "Finite friezes")."""
    L = ctx.L
    angles = {ctx.two_cos(k): Fraction(k, L) for k in range(L + 1)}
    zeros = (0,) * (ctx.degree - 1)
    for t, r in ((0, Fraction(1, 2)), (1, Fraction(1, 3)),
                 (-1, Fraction(2, 3))):
        angles.setdefault((t,) + zeros, r)
    return angles


def _first_nonpositive(F, depth):
    """The first (i, j), row by row over rows 1..depth, whose entry is not
    positive, or None."""
    for t in range(1, depth + 1):
        for i, e in enumerate(F.row(t)):
            if sign_of(e) <= 0:
                return (i, i + t + 1)
    return None


def growth_coefficients(F, k):
    """Growth coefficients s_1, ..., s_k, s_j = tr M^j = m_{0,jn+1} -
    m_{1,jn}, of an infinite frieze, by s_0 = 2 and s_{j+1} = s_1 s_j -
    s_{j-1}.  A finite width below jn + 2 raises ValueError in place of s_j.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s1, width = F.trace(), F.width
    s_prev, s = F.context.from_int(2), s1
    for j in range(1, k + 1):
        if j > 1:
            s_prev, s = s, s1 * s - s_prev
        if width is not None and width < j * F.n + 2:
            raise ValueError("growth coefficient undefined for finite friezes")
        yield s


def growth_coefficient(F, k):
    """The growth coefficient s_k, the last of ``growth_coefficients``."""
    *_, s = growth_coefficients(F, k)
    return s


@dataclass
class PositivityVerdict:
    kind: str                     # "provably_positive" | "nonpositive_found" | "inconclusive"
    witness: Optional[tuple] = None   # (i, j) for nonpositive_found
    reason: Optional[str] = None


def check_positivity(F, depth):
    """Positivity verdict for the frieze.

    provably_positive when every quiddity entry is >= 2, read off the
    multisets with no row filled, or when the first n nontrivial rows are
    positive and s_1 >= 2 (Progression-Formula criterion);
    nonpositive_found when a scan to `depth` hits a violation; otherwise
    inconclusive.  A finite frieze is scanned over its interior rows, when
    its width lies below `depth` (below max(depth, n + 2) when depth >= n);
    an infinite one with s_1 >= 2 and depth >= n over rows 1..n, any other
    over rows 1..depth.
    """
    # lambda_p lies in [1, 2): an entry is >= 2 exactly when its multiset
    # has two or more sizes, and then every entry of the frieze is positive
    if all(len(a) >= 2 for a in F.quiddity.A):
        return PositivityVerdict("provably_positive", reason="entries >= 2")
    n, two = F.n, F.context.from_int(2)
    s1_vs_2 = sign_of(F.trace() - two)
    width = F.width
    finite = width is not None and width < (depth if depth < n
                                            else max(depth, n + 2))
    if not finite and depth >= n and s1_vs_2 >= 0:
        depth = n
    # a finite frieze is scanned over its interior rows only
    scan_depth = width if finite else depth
    violation = _first_nonpositive(F, scan_depth)
    if violation is not None:
        return PositivityVerdict("nonpositive_found", witness=violation)
    if not finite and scan_depth >= n and s1_vs_2 >= 0:
        return PositivityVerdict("provably_positive",
                                 reason="first n rows positive and s1 >= 2")
    if finite:
        return PositivityVerdict("provably_positive",
                                 reason="finite frieze, all interior rows scanned")
    return PositivityVerdict("inconclusive")


# ---------------------------------------------------------------------------
# cutting and gluing (ear removal / attachment at the quiddity level)
# ---------------------------------------------------------------------------

def cut(Q, i, p):
    """Cut at the interval [i, i+p-3]: remove p-2 consecutive {p}-singleton
    entries and one lambda_p from each flanking multiset.

    i is 1-based; the interval may wrap.  Requires n >= p-1; the n = p-2
    all-lambda_p cycle has no cut.  The child keeps the original cyclic
    order, starting from the first surviving position, and the context.
    """
    L = list(Q.A)
    _cut_in_place(L, (i - 1) % Q.n, p)
    return QuiddityCycle._trusted(tuple(L), Q.context)


def _cut_in_place(L, first, p):
    """The cut of ``cut`` at the 0-based ``first``, done in place on the
    list L of multisets, each a sorted tuple; L is left as it was when the
    cut is refused with ValueError.  Returns the step (g, p, r) of
    ``surface.glue_ears`` that glues the ear back onto a witness of the
    child: insert it after the left flank, v_g of the child, then relabel
    by r so that the parent's first position leads again.  The right
    flank follows v_g."""
    n = len(L)
    if p < 3:
        raise ValueError("p must be >= 3")
    if n == p - 2:
        raise ValueError("cut undefined when n = p - 2")
    if n < p - 1:
        raise ValueError("period too small to cut a %d-ear" % p)
    end = first + p - 2          # the interval is first..end-1 mod n
    if any(L[pos % n] != (p,) for pos in range(first, end)):
        raise ValueError("interval is not a constant {%d} run" % p)
    left, right = (first - 1) % n, end % n
    # the last copies of p go; a flank [3,...,3,4] finds its 3s in O(log n)
    for k, copies in ((left, 1), (right, 1 + (left == right))):
        j = bisect_right(L[k], p)
        if j < copies or L[k][j - copies] != p:
            raise ValueError(
                "flanking multiset lacks %d; cut would create an invalid entry" % p)
        if len(L[k]) == copies:
            raise ValueError(
                "flanking multiset exhausted; cut would create an invalid entry")
    for k in (left, right):
        j = bisect_right(L[k], p) - 1
        L[k] = L[k][:j] + L[k][j + 1:]
    if end > n:                  # the run crosses the head
        head = end - n
        del L[first:]
        del L[:head]
    else:
        head = 0 if first else end
        del L[first:end]
    return (first - head if first else len(L)), p, -head


def glue(Q, p, i):
    """p-glue between positions i and i+1 (1-based): add lambda_p at i,
    insert p-2 singleton {p} entries, add lambda_p at the new i+(p-1).
    The child keeps the context when it covers p; it costs O(n) copying."""
    if p < 3:
        raise ValueError("p must be >= 3")
    n = Q.n
    if not 1 <= i <= n:
        raise ValueError("glue position out of range")
    p, A = index(p), list(Q.A)
    A[i - 1] = _with(A[i - 1], p)
    A[i % n] = _with(A[i % n], p)    # the old i+1; i itself when n = 1
    A[i:i] = ((p,),) * (p - 2)
    A = tuple(A)
    ctx = Q.context if Q.context.L % p == 0 else make_context(_sizes(A))
    return QuiddityCycle._trusted(A, ctx)


def singleton_runs(Q):
    """Maximal cyclic runs of singleton-{p} entries.

    Returns a list of (start, length, p) with 1-based start positions.  A
    cycle consisting entirely of {p} singletons yields the single run
    (1, n, p).
    """
    A = Q.A
    if len(A[0]) == 1 and A.count(A[0]) == len(A):
        return [(1, len(A), A[0][0])]
    return [(s + 1, length, A[s][0]) for s, length in _runs_from(A, 0)]


def _runs_from(A, k):
    """(start, length) of each maximal cyclic run of singleton entries
    that starts at a 0-based position >= k, in order.  The one run of a
    constant singleton cycle has no start, so it yields nothing."""
    n = len(A)
    while k < n:
        if len(A[k]) == 1 and A[k - 1] != A[k]:
            length = 1
            while length < n and A[(k + length) % n] == A[k]:
                length += 1
            yield k, length
            k += length
        else:
            k += 1


def _meets(a, b):
    """True when neighbouring multisets share a size (sets the shorter)."""
    if len(a) > len(b):
        a, b = b, a
    return not set(a).isdisjoint(b)


@dataclass
class TestVerdict:
    ok: bool
    reason: Optional[str] = None
    position: Optional[int] = None
    p: Optional[int] = None


def realizability_test(Q):
    """The quiddity-level necessary test for realizability.

    Fails when some adjacent intersection A_i and A_{i+1} is empty, or when
    some p has a cyclic run of more than p-2 consecutive singleton-{p}
    entries while not every entry is {p}.
    """
    return _realizability_verdict(Q.A)


def _realizability_verdict(A):
    """The test on a plain tuple of multisets."""
    n = len(A)
    for i in range(n):
        if not _meets(A[i], A[(i + 1) % n]):
            return TestVerdict(False, "empty_intersection", position=i + 1)
    for start, length in _runs_from(A, 0):
        p = A[start][0]
        if length > p - 2:
            return TestVerdict(False, "long_run", position=start + 1, p=p)
    return TestVerdict(True)


def is_skeletal_quiddity(Q):
    """True iff every maximal cyclic run of singleton-{p} entries is shorter
    than p-2 (read literally: a single {3} entry already fails)."""
    for _start, length, p in singleton_runs(Q):
        if length >= p - 2:
            return False
    return True
