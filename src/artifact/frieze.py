"""Quiddity cycles and frieze tables over Z[2cos(pi/L)].

A quiddity cycle is a cyclic sequence of finite multisets A_1,...,A_n of
integers >= 3; the derived entries m_{i-1,i+1} = sum_{p in A_i} lambda_p
generate an (infinite or finite) frieze pattern via the division-free
recurrence m_{i,j} = m_{i,i+2} m_{i+1,j} - m_{i+2,j}.

The multiset sequence, not the ring values, is the primary input: the
realizability machinery needs the sets A_i themselves.  The values would
determine them: in every ring within MAX_DEGREE, 1 and the lambda_p for
p | L are linearly independent over Q, so a value is a sum of lambda_p in
at most one way.

Indices follow the paper: quiddity positions are 1-based and cyclic mod n;
frieze table indices (i, j) are arbitrary integers with j >= i.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, count
from operator import index
from typing import Optional

from .ring import RingElem, make_context, sign_of


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

    Each diagonal solves the discrete Hill equation w_{k+1} = c_k w_k -
    w_{k-1}, c_k = m_{k,k+2}: m_{i,j} = w_{j-1} for the solution with
    w_{i-1} = 0 and w_i = 1.  The table keeps two runs of that equation as
    coefficient lists that grow as they are read (``_w``): run 0 from
    (w_{-1}, w_0) = (0, 1), which is diagonal 0, and run 1 from (1, 0).
    The transfer matrices ``_matrix(g)`` and ``monodromy`` are read off
    them, and the trace, the width and ``check_positivity`` read those
    and run 0, so each run is computed once per table.

    The table is stored as whole rows: ``_rows[d][i]`` is m_{i,i+d} for one
    period, i = 0..n-1, and m_{i+n,j+n} = m_{i,j}.  Rows 0 and 1 hold the
    zeros and ones; row d is filled in one pass from rows d-1 and d-2 by
    m_{i,i+d} = m_{i,i+2} m_{i+1,i+d} - m_{i+2,i+d}, on coefficient tuples,
    with the fixed-multiplier kernel of the quiddity entry m_{i,i+2}, which
    the context builds once per multiset.  From a finite frieze's closing
    row K = width + 3 on, row d is row d-K negated, with no kernel call
    (README, "Finite friezes").
    """

    def __init__(self, quiddity):
        self.quiddity = quiddity
        self.n = n = quiddity.n
        self.context = ctx = quiddity.context
        self._kernels = [ctx.multiplier(a).times_minus for a in quiddity.A]
        self._rows = [[ctx.zero()] * n, [ctx.one()] * n]
        zero, one = ctx.zero().coeffs, ctx.one().coeffs
        self._runs = ([zero, one], [one, zero])

    def _row(self, d):
        """The stored row d (d >= 0), filling the rows up to it in order."""
        rows, ctx, r, w = self._rows, self.context, 2 % self.n, self.width
        while len(rows) <= d:
            if w is not None and len(rows) >= w + 3:   # from row K = w + 3 on
                rows.append([-e for e in rows[len(rows) - w - 3]])
                continue
            # m_{i+1,i+d} is row d-1 rotated by 1, m_{i+2,i+d} row d-2 by 2
            x, y = rows[-1], rows[-2]
            rows.append([RingElem(ctx, f(a.coeffs, b.coeffs)) for f, a, b
                         in zip(self._kernels, x[1:] + x[:1], y[r:] + y[:r])])
        return rows[d]

    def entry(self, i, j):
        """m_{i,j} for j >= i, from the rows up to j - i."""
        if j < i:
            raise ValueError("entry requires j >= i")
        return self._row(j - i)[i % self.n]

    def row(self, t):
        """Row t (t >= -1): m_{i,i+t+1} for one period (-1 zeros, 0 ones)."""
        if t < -1:
            raise ValueError("row requires t >= -1")
        return list(self._row(t + 1))

    def _w(self, run, j):
        """w_{j-1} of the stored run 0 or 1 (coefficients), run forward to
        it as needed: m_{0,j} on run 0, -m_{1,j} on run 1."""
        w, kernels, n = self._runs[run], self._kernels, self.n
        for k in range(len(w), j + 1):
            w.append(kernels[(k - 2) % n](w[-1], w[-2]))
        return w[j]

    def _matrix(self, g):
        """M_g = ((A, B), (C, D)), the transfer matrix of positions 0..g-1:
        (w_{g-1}, w_g) = M_g (w_{-1}, w_0) for every run, so B = m_{0,g},
        D = m_{0,g+1}, A = -m_{1,g} and C = -m_{1,g+1}, read off the runs."""
        ctx = self.context
        A, C, B, D = (RingElem(ctx, self._w(run, j))
                      for run in (1, 0) for j in (g, g + 1))
        return (A, B), (C, D)

    @cached_property
    def monodromy(self):
        """M_n, the transfer matrix of one period, computed once per table."""
        return self._matrix(self.n)

    def trace(self):
        """s_1 = A + D = m_{0,n+1} - m_{1,n}, the trace of ``monodromy``."""
        (A, _), (_, D) = self.monodromy
        return A + D

    @cached_property
    def width(self):
        """The width w of a finite frieze (row w+1 all ones, row w+2 all
        zeros), or None for an infinite one: w = kg - 3 for the least k
        with M_g^k = -I, g the minimal period of the multisets A_i (and of
        the entries, as the values determine the multisets).
        Then tr M_g = 2cos(r pi) with r in ``_angles`` and r's numerator
        odd, k is r's denominator, and at r = 1 (trace -2) M_g must be -I.
        M_n is a power of M_g, so an s_1 outside ``_angles`` proves the
        frieze infinite at once (README, "Finite friezes").
        """
        angles = _angles(self.context)
        if self.trace().coeffs not in angles:
            return None
        S, n = self.quiddity.A, self.n
        g = next(g for g in range(1, n + 1)
                 if n % g == 0 and S[g:] + S[:g] == S)
        (A, B), (C, D) = self._matrix(g)
        r = angles.get((A + D).coeffs)
        if r is None or r.numerator % 2 == 0:
            return None
        if r == 1 and not (B.is_zero() and C.is_zero()):
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
    kind: str                     # "provably_positive" | "nonpositive_found"
    witness: Optional[tuple] = None   # (i, j) for nonpositive_found
    reason: Optional[str] = None


def check_positivity(F, depth=None):
    """Positivity verdict for the frieze, decided for every frieze (README,
    "Positivity"): provably_positive when every entry m_{i,j} with
    j - i >= 2 is positive (below the closing row, for a finite frieze),
    nonpositive_found with the first m_{0,j} <= 0 as witness otherwise.

    Every multiset with two or more sizes makes every entry >= 2, read off
    the multisets.  Otherwise diagonal 0 decides, read from the table's
    stored run 0, which the trace has already run to m_{0,n+1}: up to
    m_{0,w+2} for a finite frieze of width w, up to m_{0,n} for an
    infinite one with s_1 >= 2.  An infinite frieze with s_1 < 2 is
    nonpositive, and its diagonal 0 meets a nonpositive entry within
    ceil(pi/theta) + 1 periods, s_1 = 2cos(theta) (within 2 when
    s_1 <= -2); the run is extended only past m_{0,n+1}.  ``depth`` is
    accepted and ignored, so that callers that pass a scan depth, as the
    benchmark's positivity op does, keep working.
    """
    # lambda_p lies in [1, 2): an entry is >= 2 exactly when its multiset
    # has two or more sizes, and then every entry of the frieze is positive
    if all(len(a) >= 2 for a in F.quiddity.A):
        return PositivityVerdict("provably_positive", reason="entries >= 2")
    ctx, width = F.context, F.width
    if width is not None:
        last, reason = width + 2, "finite, diagonal 0 positive"
    elif sign_of(F.trace() - ctx.from_int(2)) >= 0:
        last, reason = F.n, "s1 >= 2, diagonal 0 positive"
    else:
        last = reason = None     # s1 < 2: the run meets a nonpositive entry
    for j in count(1) if last is None else range(1, last + 1):
        if sign_of(RingElem(ctx, F._w(0, j))) <= 0:
            return PositivityVerdict("nonpositive_found", witness=(0, j))
    return PositivityVerdict("provably_positive", reason=reason)


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
