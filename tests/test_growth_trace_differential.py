"""Differential tests of the trace-based ``growth_coefficient`` and
``check_positivity`` against their table-scan oracles in
``frieze_oracle``.

``growth_coefficient`` reads s_1 = tr M from two diagonal climbs and the
finite width from ``FriezeTable.width``, and takes s_k from the recurrence;
``check_positivity`` scans rows 1..n alone for an infinite frieze with
s_1 >= 2.  Both must give the oracle's answer, the oracle's ValueError
included.  ``growth_coefficients`` gives s_1..s_k in one pass and must stop
where the per-k calls first raise.  The cycles are every cycle of length
n <= 4 over a small alphabet, the inputs of the
golden ``growth`` cases, and the cycles that ``verify positivity-sweep
--seed 13`` checks.
"""

import io
import itertools
import json
import os

import pytest

from artifact import (FriezeTable, check_positivity, dispatch,
                      growth_coefficient, growth_coefficients)
from artifact import frieze as frieze_module
from artifact.cli import parse_quiddity_text
from artifact.frieze import quiddity_new
from artifact.ring import sign_of

from frieze_oracle import (growth_by_table, positivity_by_table, scan_width,
                           sweep_cycles)

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


def assert_positivity_matches(Q, depths):
    n = Q.n
    for depth in depths:
        got = check_positivity(FriezeTable(Q), depth)
        want = _outcome(positivity_by_table, FriezeTable(Q), depth)
        if want == ("ValueError", "growth coefficient undefined for "
                                  "finite friezes"):
            # the table scan's own fault: its finite width to depth missed
            # a width that its s_1 found within n + 2 rows
            assert n <= depth <= n + 1, (Q, depth)
            assert scan_width(FriezeTable(Q), n + 2) is not None, Q
            want = positivity_by_table(FriezeTable(Q), 3 * n)
        assert got == want, (Q, depth)


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
        assert_positivity_matches(Q, (Q.n, 3 * Q.n, 12 * Q.n))


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
        assert_positivity_matches(Q, (Q.n, 3 * Q.n, 12 * Q.n))


@pytest.fixture(scope="module")
def sweep13():
    return sweep_cycles(13, 300)


def test_growth_matches_table_on_seed13_sweep(sweep13):
    assert len(sweep13) == 600
    for Q in sweep13:
        assert_growth_matches(Q, (1, 2, 3))


def test_positivity_matches_table_on_seed13_sweep(sweep13):
    for Q in sweep13:
        assert_positivity_matches(Q, (Q.n, 3 * Q.n, 12 * Q.n))


@pytest.mark.parametrize("A, depth", [
    ([(4,)], 1),
    ([(3,), (3, 4), (3, 4)], 3),
    ([(4,), (3, 4), (4,), (3, 4)], 4),
])
def test_positivity_near_period_depth_on_finite_friezes(A, depth):
    # the table scan raises here: the width lies in [depth, n + 2)
    Q = quiddity_new(A)
    with pytest.raises(ValueError):
        positivity_by_table(FriezeTable(Q), depth)
    assert check_positivity(FriezeTable(Q), depth) == \
        check_positivity(FriezeTable(Q), 3 * Q.n)


def test_positivity_near_period_depth_never_raises():
    # depths n and n + 1 give a finite frieze of width below n + 2 the
    # verdict of depth 3n; a wider one may read inconclusive there, as in
    # the table scan, which the differential tests cover
    finite = 0
    for Q in SWEEP:
        deep = check_positivity(FriezeTable(Q), 3 * Q.n)
        width = scan_width(FriezeTable(Q), Q.n + 2)
        for depth in (Q.n, Q.n + 1):
            v = check_positivity(FriezeTable(Q), depth)
            if width is not None:
                assert v == deep, (Q, depth)
                finite += 1
    assert finite > 0
