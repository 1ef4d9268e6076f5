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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .ring import FixedMultiplier, RingElem, make_context, sign_of


def _as_multiset(a):
    t = tuple(sorted(int(p) for p in a))
    if not t:
        raise ValueError("empty multiset in quiddity cycle")
    if any(p < 3 for p in t):
        raise ValueError("multiset entries must be >= 3")
    return t


class QuiddityCycle:
    """Cyclic sequence of multisets with derived ring entries.

    ``A`` is stored as a tuple of sorted tuples; ``entries[i - 1]`` is the
    derived value m_{i-1,i+1} for the 1-based position i, summed on first
    read (classification never reads it).
    """

    def __init__(self, A, context=None):
        self.A = tuple(_as_multiset(a) for a in A)
        self.n = len(self.A)
        if self.n < 1:
            raise ValueError("quiddity cycle must have period >= 1")
        sizes = set()
        for a in self.A:
            sizes.update(a)
        if context is None:
            context = make_context(sizes)
        else:
            for p in sizes:
                if context.L % p != 0:
                    raise ValueError("context does not cover size %d" % p)
        self.context = context

    @cached_property
    def entries(self):
        ctx = self.context
        return tuple(sum((ctx.lam(p) for p in a), ctx.zero()) for a in self.A)

    def rotated(self, r):
        """The same cycle started r positions later (position 1+r first)."""
        r %= self.n
        return QuiddityCycle(self.A[r:] + self.A[:r], self.context)

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

    Entries are memoized on (i mod n, j - i); m_{i+n,j+n} = m_{i,j}.  A miss
    on m_{i,j} climbs its diagonal from i to the first two known entries
    m_{k,j}, m_{k+1,j} (at the latest m_{j-1,j} = 1 and m_{j,j} = 0) and
    fills back down to i, storing every entry it computes.  The fill runs
    on coefficient tuples, with the fixed-multiplier kernel of the quiddity
    entry m_{k,k+2}, built once per distinct multiset.  The table also
    remembers how far it has scanned for a finite width.
    """

    def __init__(self, quiddity):
        self.quiddity = quiddity
        self.n = quiddity.n
        self.context = ctx = quiddity.context
        self._memo = {}
        mults = {a: FixedMultiplier(ctx, a) for a in set(quiddity.A)}
        self._mults = [mults[a] for a in quiddity.A]
        self._trivial = (ctx.zero().coeffs, ctx.one().coeffs)
        self._scanned = 0        # widths below this were ruled out ...
        self._width = None       # ... or this one was found

    def _known(self, k, j):
        """The coefficients of m_{k,j} if known, else None."""
        if j - k < 2:
            return self._trivial[j - k]
        hit = self._memo.get((k % self.n, j - k))
        return None if hit is None else hit.coeffs

    def entry(self, i, j):
        """m_{i,j} for j >= i, by the recurrence
        m_{i,j} = m_{i,i+2} m_{i+1,j} - m_{i+2,j}."""
        if j < i:
            raise ValueError("entry requires j >= i")
        d = j - i
        if d == 0:
            return self.context.zero()
        if d == 1:
            return self.context.one()
        memo, n = self._memo, self.n
        hit = memo.get((i % n, d))
        if hit is not None:
            return hit
        k, x, y = i, None, self._known(i + 1, j)
        while x is None or y is None:
            k += 1
            x, y = y, self._known(k + 1, j)
        # x = m_{k,j}, y = m_{k+1,j}; row k multiplies by m_{k,k+2}, the
        # quiddity entry at position k+1
        for k in range(k - 1, i - 1, -1):
            x, y = self._mults[k % n].times_minus(x, y), x
            hit = memo[(k % n, j - k)] = RingElem(self.context, x)
        return hit

    def row(self, t, start=0):
        """Nontrivial row t (t >= 1): entries m_{i, i+t+1} for one period."""
        return [self.entry(i, i + t + 1) for i in range(start, start + self.n)]

    def finite_width(self, limit):
        """The first w < limit with row w+1 all ones and row w+2 all zeros
        (the width of a finite frieze), or None.  Rows scanned by an earlier
        call are not scanned again."""
        one = self.context.one()
        while self._width is None and self._scanned < limit:
            w, self._scanned = self._scanned, self._scanned + 1
            if all(self.entry(i, i + w + 2) == one for i in range(self.n)) and \
               all(self.entry(i, i + w + 3).is_zero() for i in range(self.n)):
                self._width = w
        return None if self._width is None or self._width >= limit \
            else self._width


@dataclass
class ExtentReport:
    kind: str                     # "finite" | "infinite"
    width: Optional[int]          # set when finite
    period: int
    first_nonpositive: Optional[tuple]  # (i, j) or None


def _first_nonpositive(F, depth):
    """The first (i, j), row by row over rows 1..depth, whose entry is not
    positive, or None."""
    for t in range(1, depth + 1):
        for i in range(F.n):
            if sign_of(F.entry(i, i + t + 1)) <= 0:
                return (i, i + t + 1)
    return None


def extent(F, probe_depth):
    """Scan nontrivial rows up to probe_depth.

    Reports finite width w when row w+1 is all ones and row w+2 all zeros;
    otherwise "infinite" means only "no termination within probe_depth".
    Also records the first nonpositive interior entry encountered.
    """
    if probe_depth < F.n + 2:
        raise ValueError("probe_depth must be at least n + 2")
    width = F.finite_width(probe_depth - 1)
    interior_depth = width if width is not None else probe_depth
    first_nonpositive = _first_nonpositive(F, interior_depth)
    if width is not None:
        return ExtentReport("finite", width, F.n, first_nonpositive)
    return ExtentReport("infinite", None, F.n, first_nonpositive)


def is_finite_within(F, depth):
    """True if an all-ones row followed by an all-zeros row occurs by depth."""
    return F.finite_width(depth) is not None


def growth_coefficient(F, k):
    """Growth coefficient s_k = m_{0,kn+1} - m_{1,kn} of an infinite frieze.

    Asserts the difference is the same for i = 0..n-1 before returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = F.n
    if is_finite_within(F, k * n + 2):
        raise ValueError("growth coefficient undefined for finite friezes")
    s = F.entry(0, k * n + 1) - F.entry(1, k * n)
    for i in range(1, n):
        si = F.entry(i, i + k * n + 1) - F.entry(i + 1, i + k * n)
        if si != s:
            raise AssertionError("growth coefficient not constant across i")
    return s


@dataclass
class PositivityVerdict:
    kind: str                     # "provably_positive" | "nonpositive_found" | "inconclusive"
    witness: Optional[tuple] = None   # (i, j) for nonpositive_found
    reason: Optional[str] = None


def check_positivity(F, depth):
    """Positivity verdict for the frieze.

    provably_positive when every quiddity entry is >= 2, or when the first n
    nontrivial rows are positive and s_1 >= 2 (Progression-Formula
    criterion); nonpositive_found when a scan to `depth` hits a violation;
    otherwise inconclusive.
    """
    n = F.n
    width = F.finite_width(depth)
    finite = width is not None
    # a finite frieze is scanned over its interior rows only
    scan_depth = width if finite else depth
    violation = _first_nonpositive(F, scan_depth)
    two = F.context.from_int(2)
    crit_a = all(sign_of(q - two) >= 0 for q in F.quiddity.entries)
    crit_b = False
    if not finite and scan_depth >= n and violation is None:
        s1 = growth_coefficient(F, 1)
        crit_b = sign_of(s1 - two) >= 0
    if violation is not None:
        if crit_a:
            raise AssertionError("positivity criterion contradicted by scan")
        return PositivityVerdict("nonpositive_found", witness=violation)
    if crit_a:
        return PositivityVerdict("provably_positive", reason="entries >= 2")
    if crit_b:
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
    order, starting from the first surviving position.
    """
    A, _info = _cut_multisets(Q.A, i, p)
    return QuiddityCycle(A, Q.context)


def _cut_multisets(A, i, p):
    """The cut of ``cut`` on a plain tuple of multisets.  Returns the
    child's multisets and the step (g, p, r) of ``surface.glue_ears`` that
    glues the ear back onto a witness of the child: insert it after the
    left flank, v_g of the child, then relabel by r so that the parent's
    first position leads again."""
    n = len(A)
    if p < 3:
        raise ValueError("p must be >= 3")
    if n == p - 2:
        raise ValueError("cut undefined when n = p - 2")
    if n < p - 1:
        raise ValueError("period too small to cut a %d-ear" % p)
    first = (i - 1) % n           # 0-based; the interval is first..end-1 mod n
    end = first + p - 2
    if any(A[pos % n] != (p,) for pos in range(first, end)):
        raise ValueError("interval is not a constant {%d} run" % p)
    left = (first - 1) % n
    right = end % n
    if end <= n:
        survivors = list(range(first)) + list(range(end, n))
        child = list(A[:first] + A[end:])
    else:
        survivors = list(range(end - n, first))
        child = list(A[end - n:first])
    g = survivors.index(left)
    for k in (g, survivors.index(right)):
        entry = list(child[k])
        if p not in entry:
            raise ValueError(
                "flanking multiset lacks %d; cut would create an invalid entry" % p)
        entry.remove(p)
        if not entry:
            raise ValueError(
                "flanking multiset exhausted; cut would create an invalid entry")
        child[k] = tuple(entry)
    return tuple(child), (g + 1, p, -survivors[0])


def glue(Q, p, i):
    """p-glue between positions i and i+1 (1-based): add lambda_p at i,
    insert p-2 singleton {p} entries, add lambda_p at the new i+(p-1)."""
    if p < 3:
        raise ValueError("p must be >= 3")
    n = Q.n
    if not 1 <= i <= n:
        raise ValueError("glue position out of range")
    A = [list(a) for a in Q.A]
    j = i % n  # 0-based position of the old i+1
    A[i - 1] = sorted(A[i - 1] + [p])
    A[j] = sorted(A[j] + [p])
    ins = [(p,)] * (p - 2)
    out = [tuple(a) for a in A]
    new = out[:i] + ins + out[i:]
    ctx = Q.context if Q.context.L % p == 0 else None
    return QuiddityCycle(new, ctx)


def singleton_runs(Q):
    """Maximal cyclic runs of singleton-{p} entries.

    Returns a list of (start, length, p) with 1-based start positions.  A
    cycle consisting entirely of {p} singletons yields the single run
    (1, n, p).
    """
    return _singleton_runs(Q.A)


def _singleton_runs(A):
    n = len(A)
    runs = []
    is_single = [len(a) == 1 for a in A]
    if all(is_single) and len(set(A)) == 1:
        return [(1, n, A[0][0])]
    covered = [False] * n
    for s in range(n):
        if not is_single[s] or covered[s]:
            continue
        prev = (s - 1) % n
        if is_single[prev] and A[prev] == A[s]:
            continue  # not the start of a maximal run
        length = 0
        pos = s
        while is_single[pos] and A[pos] == A[s] and length < n:
            covered[pos] = True
            length += 1
            pos = (pos + 1) % n
        runs.append((s + 1, length, A[s][0]))
    return runs


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
    return _realizability_verdict(Q.A, _singleton_runs(Q.A))


def _realizability_verdict(A, runs):
    """The test on a plain tuple of multisets, given their singleton runs."""
    n = len(A)
    for i in range(n):
        if not set(A[i]) & set(A[(i + 1) % n]):
            return TestVerdict(False, "empty_intersection", position=i + 1)
    all_same_singleton = all(a == A[0] and len(a) == 1 for a in A)
    if not all_same_singleton:
        for start, length, p in runs:
            if length > p - 2:
                return TestVerdict(False, "long_run", position=start, p=p)
    return TestVerdict(True)


def is_skeletal_quiddity(Q):
    """True iff every maximal cyclic run of singleton-{p} entries is shorter
    than p-2 (read literally: a single {3} entry already fails)."""
    for _start, length, p in singleton_runs(Q):
        if length >= p - 2:
            return False
    return True
