"""The table-scan forms of ``FriezeTable.width``, ``frieze.growth_coefficient``
and ``frieze.check_positivity``, kept as the oracles of the transfer-matrix
code, and the kernel-only row fill, the oracle of the sign-flipped rows.

``KernelRows`` is a ``FriezeTable`` that fills every row through the
multiplier kernels, past a finite frieze's closing row too.

``scan_width`` seeks a finite width row by row below a limit.
``growth_by_table`` scans for a finite width to kn + 2 rows and reads s_k
off the frieze table for every i = 0..n-1, asserting it is constant.
``positivity_by_table`` scans the finite width and the rows to ``depth``
(``first_nonpositive``) before it reads s_1 from the table; it reads no
trace or width of ``FriezeTable``.  It can answer ``inconclusive``, and at
n <= depth <= n + 1 it raises ``ValueError`` on a finite frieze whose width
lies in [depth, n + 2), which the scan of ``growth_by_table`` finds and the
width scan to ``depth`` misses.  ``assert_positivity_decided`` holds
``check_positivity`` to it at depth 12n.
"""

import io
import random

import artifact.suites
from artifact.frieze import FriezeTable, PositivityVerdict, check_positivity
from artifact.ring import RingElem, sign_of


class KernelRows(FriezeTable):
    """A frieze table whose every row comes from the recurrence."""

    def _row(self, d):
        rows, ctx, r = self._rows, self.context, 2 % self.n
        while len(rows) <= d:
            # m_{i+1,i+d} is row d-1 rotated by 1, m_{i+2,i+d} row d-2 by 2
            x, y = rows[-1], rows[-2]
            rows.append([RingElem(ctx, f(a.coeffs, b.coeffs)) for f, a, b
                         in zip(self._kernels, x[1:] + x[:1], y[r:] + y[:r])])
        return rows[d]


def first_nonpositive(F, depth):
    """The first (i, j), row by row over rows 1..depth, whose entry is not
    positive, or None."""
    for t in range(1, depth + 1):
        for i, e in enumerate(F.row(t)):
            if sign_of(e) <= 0:
                return (i, i + t + 1)
    return None


def scan_width(F, limit):
    """The first w < limit with row w+1 all ones and row w+2 all zeros (the
    width of a finite frieze), or None."""
    one = F.context.one()
    for w in range(limit):
        if all(e == one for e in F.row(w + 1)) and \
           all(e.is_zero() for e in F.row(w + 2)):
            return w
    return None


def growth_by_table(F, k):
    """Growth coefficient s_k = m_{0,kn+1} - m_{1,kn} of an infinite frieze.

    Asserts the difference is the same for i = 0..n-1 before returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = F.n
    if scan_width(F, k * n + 2) is not None:
        raise ValueError("growth coefficient undefined for finite friezes")
    s = F.entry(0, k * n + 1) - F.entry(1, k * n)
    for i in range(1, n):
        si = F.entry(i, i + k * n + 1) - F.entry(i + 1, i + k * n)
        if si != s:
            raise AssertionError("growth coefficient not constant across i")
    return s


def positivity_by_table(F, depth):
    """Positivity verdict from a scan of the finite width and of rows
    1..depth (1..width for a finite frieze), then s_1 >= 2."""
    n = F.n
    width = scan_width(F, depth)
    finite = width is not None
    scan_depth = width if finite else depth
    violation = first_nonpositive(F, scan_depth)
    two = F.context.from_int(2)
    crit_a = all(sign_of(q - two) >= 0 for q in F.quiddity.entries)
    crit_b = False
    if not finite and scan_depth >= n and violation is None:
        s1 = growth_by_table(F, 1)
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


def assert_positivity_decided(Q, check=check_positivity):
    """``check`` decides Q's frieze, whatever the depth passed, as
    ``positivity_by_table`` does at depth 12n; where that scan is
    inconclusive, Q is nonpositive with s_1 < 2.  A witness is a nontrivial
    entry with sign <= 0.  Returns the verdict."""
    n = Q.n
    got = check(FriezeTable(Q))
    for depth in (n, 3 * n, 12 * n):
        assert check(FriezeTable(Q), depth) == got, (Q, depth)
    G = KernelRows(Q)
    want = positivity_by_table(G, 12 * n)
    if want.kind == "inconclusive":
        s1 = growth_by_table(G, 1)
        assert sign_of(s1 - Q.context.from_int(2)) < 0, Q
        assert got.kind == "nonpositive_found", Q
    else:
        assert got.kind == want.kind, (Q, got, want)
    if got.kind == "nonpositive_found":
        i, j = got.witness
        assert j - i >= 2 and sign_of(G.entry(i, j)) <= 0, Q
    return got


def sweep_cycles(seed, count):
    """The cycles ``verify positivity-sweep --seed SEED --count COUNT``
    checks, in order."""
    seen = []

    def recording(F, *depth):
        seen.append(F.quiddity)
        return saved(F, *depth)

    saved = artifact.suites.check_positivity
    artifact.suites.check_positivity = recording
    try:
        artifact.suites.SUITES["positivity-sweep"](random.Random(seed), count,
                                                   io.StringIO())
    finally:
        artifact.suites.check_positivity = saved
    return seen
