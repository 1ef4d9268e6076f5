"""Differential tests of the two runs a ``FriezeTable`` stores.

The table keeps run 0 (diagonal 0, from (w_{-1}, w_0) = (0, 1)) and run 1
(from (1, 0)) of the Hill equation and extends them only as they are read.
``monodromy``, ``_matrix(g)`` for every divisor g of n, ``width``,
``trace`` and the verdict and witness of ``check_positivity`` must match
fresh runs of the recurrence in ring arithmetic and the ``KernelRows`` /
``positivity_by_table`` oracles, whatever order the queries come in.  The
stored lists must agree with the fresh runs entry by entry.  A kernel-call
guard checks that ``check_positivity`` does not run diagonal 0 a second
time after the trace has run it.
"""

import itertools

import pytest

from artifact import FriezeTable, check_positivity
from artifact.frieze import quiddity_new
from artifact.ring import sign_of

from frieze_oracle import KernelRows, positivity_by_table, scan_width

ALPHABET = [(3,), (4,), (5,), (3, 3), (3, 4)]

# finite of width 5, so diagonal 0 is read to m_{0,7}, past n + 1; and an
# s_1 < 2 cycle whose first nonpositive m_{0,j} is j = 17, past 3n + 1
NAMED = [quiddity_new([(4,), (3, 4)]),
         quiddity_new([(5,), (4, 5), (5,)]),
         quiddity_new([(3,), (4,), (4, 5), (4, 5), (3,), (3,), (3,)])]

CYCLES = [quiddity_new(A) for n in range(1, 4)
          for A in itertools.product(ALPHABET, repeat=n)] + NAMED


def fresh_run(Q, start, last):
    """w_{-1}, ..., w_{last-1} of w_{k+1} = c_k w_k - w_{k-1} from
    (w_{-1}, w_0) = start, in ring arithmetic, c_k = m_{k,k+2}."""
    ctx = Q.context
    w = [ctx.from_int(start[0]), ctx.from_int(start[1])]
    for k in range(last - 1):
        w.append(Q.entries[k % Q.n] * w[-1] - w[-2])
    return w


def first_nonpositive_on_diagonal_0(Q, last):
    """The first j in 1..last with m_{0,j} <= 0 on a fresh run, or None."""
    w = fresh_run(Q, (0, 1), last)
    return next((j for j in range(1, last + 1) if sign_of(w[j]) <= 0), None)


def expected(Q):
    """monodromy, the M_g by divisor g, width, trace and positivity of Q's
    frieze from fresh runs and the table-scan oracles."""
    n, G = Q.n, KernelRows(Q)
    run0, run1 = fresh_run(Q, (0, 1), n + 1), fresh_run(Q, (1, 0), n + 1)
    matrices = {g: ((run1[g], run0[g]), (run1[g + 1], run0[g + 1]))
                for g in range(1, n + 1) if n % g == 0}
    # the same matrix read off the kernel-filled table
    (A, B), (C, D) = matrices[n]
    assert (A, B, C, D) == (-G.entry(1, n), G.entry(0, n),
                            -G.entry(1, n + 1), G.entry(0, n + 1)), Q
    verdict = positivity_by_table(G, 12 * n)
    kind = verdict.kind
    if kind == "inconclusive":      # s_1 < 2: the diagonal turns on
        kind = "nonpositive_found"
    witness = None
    if kind == "nonpositive_found":
        j = first_nonpositive_on_diagonal_0(Q, 24 * n)
        assert j is not None, Q
        witness = (0, j)
    return {"monodromy": matrices[n], "matrices": matrices,
            "width": scan_width(G, 12 * n), "trace": A + D,
            "positivity": (kind, witness)}


def observed(F, order):
    """The same queries of F, asked in ``order`` (names of ``QUERIES``)."""
    got = {name: QUERIES[name](F) for name in order}
    return {name: got[name] for name in QUERIES}


QUERIES = {
    "monodromy": lambda F: F.monodromy,
    "matrices": lambda F: {g: F._matrix(g) for g in range(1, F.n + 1)
                           if F.n % g == 0},
    "width": lambda F: F.width,
    "trace": lambda F: F.trace(),
    "positivity": lambda F: (lambda v: (v.kind, v.witness))(
        check_positivity(F)),
}

ORDERS = [
    tuple(QUERIES),
    ("positivity", "trace", "monodromy", "matrices", "width"),
    ("width", "monodromy", "matrices", "trace", "positivity"),
]


def assert_runs_are_fresh_runs(F):
    """Every stored entry of both runs equals the fresh run's."""
    for run, start in ((0, (0, 1)), (1, (1, 0))):
        stored = F._runs[run]
        want = fresh_run(F.quiddity, start, len(stored) - 1)
        assert [w.coeffs for w in want] == stored, (F.quiddity, run)


@pytest.mark.parametrize("order", ORDERS)
def test_stored_runs_match_fresh_runs_and_oracles(order):
    for Q in CYCLES:
        F = FriezeTable(Q)
        assert observed(F, order) == expected(Q), (Q, order)
        assert_runs_are_fresh_runs(F)


def test_named_cycles_read_past_the_period():
    finite, far = NAMED[0], NAMED[1]
    F = FriezeTable(finite)
    assert F.width == 5 and check_positivity(F).kind == "provably_positive"
    assert len(F._runs[0]) == 5 + 3 > finite.n + 2
    F = FriezeTable(far)
    assert check_positivity(F).witness == (0, 17)
    assert len(F._runs[0]) == 18 and len(F._runs[1]) == far.n + 2


def test_rows_then_positivity_read_the_runs_in_order():
    # row(3n) fills the table's rows and reads the width, which runs both
    # columns one period; positivity then extends run 0 from there
    for Q in NAMED:
        want = expected(Q)
        F = FriezeTable(Q)
        G = KernelRows(Q)
        assert F.row(3 * Q.n) == G.row(3 * Q.n)
        assert len(F._runs[0]) == len(F._runs[1]) == Q.n + 2
        assert_runs_are_fresh_runs(F)
        assert observed(F, ("positivity",) + tuple(QUERIES)) == want, Q
        assert_runs_are_fresh_runs(F)


def kernel_calls(F, f):
    """The number of multiplier-kernel calls that f(F) makes."""
    calls = []

    def counting(kernel):
        def call(x, y):
            calls.append(None)
            return kernel(x, y)
        return call

    F._kernels = [counting(k) for k in F._kernels]
    f(F)
    return len(calls)


def rerunning_check_positivity(F):
    """check_positivity on a table that forgets diagonal 0 once the trace
    has run it, as a scan that runs it again would."""
    F.trace()
    del F._runs[0][2:]
    return check_positivity(F)


def test_positivity_runs_each_column_once():
    # infinite, s_1 >= 2 and some singleton multiset: the trace runs both
    # columns n steps, and the positivity window m_{0,1..n} is read back
    cycles = [quiddity_new(A) for A in (
        [(3, 3, 4), (3,), (3, 3, 4, 4)],
        [(3,), (4,), (4, 5), (4, 5), (3,), (3,), (3,)],
        [(3,), (5,), (3, 4), (3, 4), (3,), (3,), (3,)])]
    for Q in cycles:
        F, n = FriezeTable(Q), Q.n
        assert F.width is None and \
            sign_of(F.trace() - Q.context.from_int(2)) >= 0
        assert kernel_calls(FriezeTable(Q), check_positivity) == 2 * n, Q
        # the guard can fail: running diagonal 0 again costs n - 1 more
        assert kernel_calls(FriezeTable(Q), rerunning_check_positivity) \
            == 3 * n - 1, Q


def test_tables_share_the_context_multipliers():
    # a multiset's multiplier is built once per context, and every
    # multiplier of the context reads one digit layout per width
    Q = quiddity_new([(3,), (4,), (4, 5), (4, 5), (3,), (3,), (3,)])
    F, G = FriezeTable(Q), FriezeTable(Q.rotated(2))
    assert F._kernels[2].__self__ is G._kernels[0].__self__
    F.trace()
    three, four = F._kernels[0].__self__, F._kernels[1].__self__
    assert three is not four
    layout = Q.context._digit_layout(64)
    assert three._packed[64][1:] == four._packed[64][1:] == layout
    assert all(a is b for a, b in zip(four._packed[64][1:], layout))
