"""The table-scan forms of ``FriezeTable.width``, ``frieze.growth_coefficient``
and ``frieze.check_positivity``, kept as the oracles of the trace-based code,
and the kernel-only row fill, the oracle of the sign-flipped rows.

``KernelRows`` is a ``FriezeTable`` that fills every row through the
multiplier kernels, past a finite frieze's closing row too.
``positivity_by_scan`` is ``check_positivity`` as it was before the
entries >= 2 criterion was read off the multisets: it reads s_1 and the
width and scans the rows first, and raises ``AssertionError`` when that
scan contradicts the criterion.

``scan_width`` seeks a finite width row by row below a limit.
``growth_by_table`` scans for a finite width to kn + 2 rows and reads s_k
off the frieze table for every i = 0..n-1, asserting it is constant.
``positivity_by_table`` scans the finite width and the rows to ``depth``
before it reads s_1; at n <= depth <= n + 1 it raises ``ValueError`` on a
finite frieze whose width lies in [depth, n + 2), which the scan of
``growth_by_table`` finds and the width scan to ``depth`` misses.
"""

import io
import random

import artifact.cli
from artifact.frieze import FriezeTable, PositivityVerdict, _first_nonpositive
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
    violation = _first_nonpositive(F, scan_depth)
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


def positivity_by_scan(F, depth):
    """Positivity verdict from s_1, the width and a row scan, with the
    entries >= 2 criterion checked against the scan."""
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
    crit_a = all(sign_of(q - two) >= 0 for q in F.quiddity.entries)
    crit_b = (not finite and scan_depth >= n and violation is None
              and s1_vs_2 >= 0)
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


def sweep_cycles(seed, count):
    """The cycles ``verify positivity-sweep --seed SEED --count COUNT``
    checks, in order."""
    seen = []

    def recording(F, depth):
        seen.append(F.quiddity)
        return saved(F, depth)

    saved = artifact.cli.check_positivity
    artifact.cli.check_positivity = recording
    try:
        artifact.cli._SUITES["positivity-sweep"](random.Random(seed), count,
                                                 io.StringIO())
    finally:
        artifact.cli.check_positivity = saved
    return seen
