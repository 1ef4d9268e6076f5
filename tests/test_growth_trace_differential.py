"""Differential tests of the transfer-matrix ``growth_coefficient`` and
``check_positivity`` against their table-scan oracles in
``frieze_oracle``.

``growth_coefficient`` reads s_1 = tr M from the period's transfer matrix
and the finite width from ``FriezeTable.width``, and takes s_k from the
recurrence; it must give the oracle's answer, the oracle's ValueError
included.  ``growth_coefficients`` gives s_1..s_k in one pass and must stop
where the per-k calls first raise.  ``check_positivity`` reads one forward
run of diagonal 0, and must decide every frieze as the row scan to depth
12n does, whatever depth it is passed (``assert_positivity_decided``); the
differential must catch mutants of its windows.  The cycles are every
cycle of length n <= 4 over a small alphabet, the inputs of the golden
``growth`` cases, the cycles that ``verify positivity-sweep --seed 13``
checks and a seeded random set.
"""

import inspect
import io
import itertools
import json
import math
import os
import random
from collections import Counter

import pytest

from artifact import (FriezeTable, check_positivity, dispatch,
                      growth_coefficient, growth_coefficients)
from artifact import frieze as frieze_module
from artifact.frieze import parse_quiddity_text, quiddity_new
from artifact.ring import sign_of

from frieze_oracle import (KernelRows, assert_positivity_decided,
                           growth_by_table, scan_width, sweep_cycles)

ALPHABET = [(3,), (4,), (5,), (3, 3), (3, 4)]

SWEEP = [quiddity_new(A) for n in range(1, 5)
         for A in itertools.product(ALPHABET, repeat=n)]

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden_growth_inputs():
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        cases = json.load(fh)
    for case in cases:
        argv = case["argv"]
        if argv[0] == "growth":
            with open(os.path.join(GOLDEN, argv[1])) as fh:
                Q = parse_quiddity_text(fh.read())
            yield case["name"], Q, int(argv[argv.index("--k") + 1])


def _outcome(f, F, *args):
    """f(F, *args), or the message of the ValueError it raises."""
    try:
        return f(F, *args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_growth_matches(Q, ks):
    F, G = FriezeTable(Q), FriezeTable(Q)
    for k in ks:
        assert _outcome(growth_coefficient, F, k) == \
            _outcome(growth_by_table, G, k), (Q, k)


def test_growth_matches_table_on_sweep():
    for Q in SWEEP:
        assert_growth_matches(Q, (1, 2, 3, 5))


def test_growth_matches_table_on_golden_inputs():
    names = []
    for name, Q, k in _golden_growth_inputs():
        assert_growth_matches(Q, range(1, k + 1))
        names.append(name)
    assert "growth-octagon-period2-finite-after-s1" in names
    assert "growth-hyperbolic-negative-trace" in names


def _prefix(Q, k):
    """The outcomes of growth_by_table for 1..k, up to the first error."""
    G, out = FriezeTable(Q), []
    for j in range(1, k + 1):
        out.append(_outcome(growth_by_table, G, j))
        if isinstance(out[-1], tuple):
            break
    return out


def _one_pass(Q, k):
    out = []
    try:
        out.extend(growth_coefficients(FriezeTable(Q), k))
    except ValueError as exc:
        out.append(("ValueError", str(exc)))
    return out


def test_one_pass_stops_where_the_table_does():
    cycles = [(Q, 5) for Q in SWEEP] + [
        (Q, k) for _name, Q, k in _golden_growth_inputs() if k >= 1]
    errors = 0
    for Q, k in cycles:
        want = _prefix(Q, k)
        assert _one_pass(Q, k) == want, Q
        # an error after some coefficients, as on the octagon, is seen
        errors += len(want) > 1 and isinstance(want[-1], tuple)
    assert errors


def test_growth_verb_decides_the_trace_once(monkeypatch, tmp_path):
    calls = []

    def counting(x):
        calls.append(x)
        return sign_of(x)

    monkeypatch.setattr(frieze_module, "sign_of", counting)
    path = tmp_path / "cycle.txt"
    # a hyperbolic annulus and a punctured disc, whose s_1 = 2 is found in
    # the table of finite-order traces: the width needs no sign
    for text in ("[3,3,4] [3] [3,3,4,4]", "[4,4] [4]"):
        path.write_text(text + "\n")
        out = io.StringIO()
        assert dispatch(["growth", str(path), "--k", "6"], out) == 0
        assert out.getvalue().count("s_") == 6
        assert calls == [], text


def test_trace_fills_no_row():
    # s_1 by entry would fill n + 1 rows of n cells, O(n^2) for n = 120
    with open(os.path.join(GOLDEN, "inputs", "annulus_ears_n120.txt")) as fh:
        Q = parse_quiddity_text(fh.read())
    F, two = FriezeTable(Q), Q.context.from_int(2)
    s1 = growth_coefficient(F, 1)
    assert sign_of(s1 - two) > 0 or sign_of(s1 + two) < 0
    assert len(F._rows) == 2
    assert s1 == F.entry(0, Q.n + 1) - F.entry(1, Q.n)


def test_disc_width_fills_no_row():
    # s_1 = 2: a width scan to 2n + 2 rows would fill 242 rows of 120 cells
    with open(os.path.join(GOLDEN, "inputs", "disc_ears_n120.txt")) as fh:
        Q = parse_quiddity_text(fh.read())
    F = FriezeTable(Q)
    assert len(list(growth_coefficients(F, 2))) == 2
    assert F.trace() == Q.context.from_int(2)
    assert len(F._rows) == 2


def test_growth_k_below_one_raises_as_table():
    Q = quiddity_new([(3, 3), (3,), (3, 3, 4, 4)])
    for k in (0, -1):
        assert _outcome(growth_coefficient, FriezeTable(Q), k) == \
            _outcome(growth_by_table, FriezeTable(Q), k)


def test_positivity_matches_table_on_sweep():
    for Q in SWEEP:
        assert_positivity_decided(Q)


def test_sweep_covers_both_trace_paths():
    # the sweep holds hyperbolic friezes on both sides and friezes that
    # only the scan decides, finite ones included
    kinds = set()
    for Q in SWEEP:
        F = FriezeTable(Q)
        s1 = F.entry(0, Q.n + 1) - F.entry(1, Q.n)
        two = Q.context.from_int(2)
        finite = scan_width(F, 3 * Q.n) is not None
        kinds.add("s1>2" if sign_of(s1 - two) > 0 else
                  "s1<-2" if sign_of(s1 + two) < 0 else
                  "finite" if finite else "elliptic")
    assert kinds == {"s1>2", "s1<-2", "finite", "elliptic"}


def test_full_turn_finite_friezes_match_table():
    # a finite frieze's cycle read t times, t the first with M^t = I: s_1 is
    # 2 exactly, and only the scan tells the frieze finite
    turned = []
    for Q in SWEEP:
        F, two = FriezeTable(Q), Q.context.from_int(2)
        if scan_width(F, 3 * Q.n) is None:
            continue
        for t in range(2, 12 // Q.n + 1):
            if F.entry(0, t * Q.n + 1) - F.entry(1, t * Q.n) == two:
                turned.append(quiddity_new(Q.A * t))
                break
    assert len(turned) >= 10
    for Q in turned:
        assert_growth_matches(Q, (1, 2, 3))
        assert_positivity_decided(Q)


@pytest.fixture(scope="module")
def sweep13():
    return sweep_cycles(13, 300)


def test_growth_matches_table_on_seed13_sweep(sweep13):
    assert len(sweep13) == 600
    for Q in sweep13:
        assert_growth_matches(Q, (1, 2, 3))


def test_positivity_matches_table_on_seed13_sweep(sweep13):
    # 10 of the 300 quotient cycles are nonpositive, all with s_1 < 2; the
    # row scan finds 8 of them only past depth 3n
    kinds = Counter(assert_positivity_decided(Q).kind for Q in sweep13)
    assert kinds == {"provably_positive": 590, "nonpositive_found": 10}


def _random_cycles(seed, count):
    """Cycles of period 2-10, mostly over singletons, whose friezes are
    often nonpositive."""
    rng = random.Random(seed)
    pool = [(3,), (4,), (5,), (6,), (3,), (4,), (3, 4), (4, 5), (3, 6)]
    return [quiddity_new([rng.choice(pool) for _ in range(rng.randint(2, 10))])
            for _ in range(count)]


def test_positivity_matches_table_on_random_cycles():
    kinds = Counter(assert_positivity_decided(Q).kind
                    for Q in _random_cycles(7, 150))
    assert kinds["nonpositive_found"] >= 50 and \
        kinds["provably_positive"] >= 20, kinds


def test_witness_within_the_progression_bound(sweep13):
    # s_1 = 2cos(theta) < 2 on an infinite frieze: the first nonpositive
    # m_{0,j} lies within ceil(pi/theta) + 1 periods, 2 when s_1 <= -2
    seen = 0
    for Q in SWEEP + sweep13 + _random_cycles(7, 150):
        F = FriezeTable(Q)
        s1 = F.trace().approx()
        if F.width is not None or s1 >= 2:
            continue
        periods = 2 if s1 <= -2 else math.ceil(math.pi / math.acos(s1 / 2)) + 1
        assert check_positivity(F).witness[1] <= periods * Q.n, Q
        seen += 1
    assert seen >= 100


# s_1 >= 2, and the first nonpositive entry on diagonal 0 is m_{0,n}: only
# the last entry of the window m_{0,1..n} sees it
AT_THE_PERIOD = [quiddity_new(A) for A in (
    [(3,), (4,), (4, 5), (4, 5), (3,), (3,), (3,)],
    [(3,), (5,), (3, 4), (3, 4), (3,), (3,), (3,)],
)]


def test_last_window_entry_decides_some_friezes():
    for Q in AT_THE_PERIOD:
        F, n = FriezeTable(Q), Q.n
        assert F.width is None
        assert sign_of(F.trace() - Q.context.from_int(2)) >= 0
        assert all(sign_of(F.entry(0, j)) > 0 for j in range(1, n))
        assert check_positivity(F).witness == (0, n)


def test_finite_diagonal_ends_are_positive():
    # m_{0,N-1} = 1 and m_{0,N-2} = m_{N-2,N}, a quiddity entry, N = w + 3
    # (the glide symmetry m_{i,j} = m_{j,i+N}): a finite diagonal read
    # only to N - 2 or N - 3 decides the same
    finite = 0
    for Q in SWEEP:
        F, n = FriezeTable(Q), Q.n
        if F.width is None:
            continue
        N, G = F.width + 3, KernelRows(Q)
        assert G.entry(0, N - 1) == Q.context.one(), Q
        assert G.entry(0, N - 2) == Q.entries[(N - 2) % n], Q
        finite += 1
    assert finite >= 20


MUTANTS = [
    # m_{0,n} <= 0 read as positive
    ("last, reason = F.n,", "last, reason = F.n - 1,"),
    # half a period of diagonal 0
    ("last, reason = F.n,", "last, reason = F.n // 2 + 1,"),
    # a finite frieze read over one period, not to its closing row
    ("last, reason = width + 2,", "last, reason = F.n,"),
    # a finite frieze decided by s_1, as an infinite one
    ("if width is not None:", "if False:"),
    # s_1 < 2 read like s_1 >= 2
    ("last = reason = None", "last = reason = F.n"),
]


@pytest.mark.parametrize("old, new", MUTANTS)
def test_differential_catches_mutant(old, new, sweep13):
    source = inspect.getsource(frieze_module.check_positivity)
    assert source.count(old) == 1
    namespace = dict(vars(frieze_module))
    exec(source.replace(old, new), namespace)
    mutant = namespace["check_positivity"]
    with pytest.raises(AssertionError):
        for Q in AT_THE_PERIOD + SWEEP + sweep13:
            assert_positivity_decided(Q, mutant)


def test_positivity_fills_no_row(monkeypatch):
    # a row scan would fill n rows of n cells and decide a sign for each;
    # the run of diagonal 0 decides at most n + 1 signs
    calls = []

    def counting(x):
        calls.append(x)
        return sign_of(x)

    monkeypatch.setattr(frieze_module, "sign_of", counting)
    for name in ("disc_ears_n120.txt", "annulus_ears_n120.txt"):
        with open(os.path.join(GOLDEN, "inputs", name)) as fh:
            Q = parse_quiddity_text(fh.read())
        F = FriezeTable(Q)
        calls.clear()
        assert check_positivity(F).kind == "provably_positive"
        assert len(F._rows) == 2 and len(calls) <= Q.n + 1, name
