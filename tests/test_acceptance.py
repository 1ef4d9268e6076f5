"""Acceptance gate: one test per release criterion.

Every criterion the package promises is exercised here end to end —
figure-fixture regressions, the worked annulus example, the 16-cell
classification table, cut-trace examples, matching-weight tables, the
randomized property suites at full instance counts, the Chebyshev kernel,
and the positivity sweep.
"""

import io
import random

import pytest

from artifact import (Arc, BudgetExceeded, FriezeTable, build_dissection,
                      chebyshev_u, classify_realizability, cut,
                      enumerate_matchings, glue, growth_coefficient,
                      growth_via_annulus_weight,
                      make_context, matching_sum, parse_dissection_text,
                      polygon, quiddity_new, quiddity_of, sign_of,
                      weigh_matching)
from artifact.cli import (_SUITES, random_polygon_dissection, random_quiddity,
                          random_quotient_cycle, random_witness)
from artifact import is_skeletal_quiddity, realizability_test

from conftest import ANNULUS_334_TEXT, cyc_eq, cyc_eq_either, random_disc
from frieze_oracle import growth_by_table


def ints(ctx, *v):
    return [ctx.from_int(x) for x in v]


def run_suite(name, count, seed=20260824):
    out = io.StringIO()
    fails = _SUITES[name](random.Random(seed), count, out)
    assert fails == 0, (name, out.getvalue())


# ---------------------------------------------------------------------------
# criterion 1: frieze tables of the four figure fixtures
# ---------------------------------------------------------------------------

def test_criterion_1_figure_frieze_tables():
    # triangulated octagon, quiddity (1,3,1,3,2,2,1,5), width 5
    Q = quiddity_new([[3] * a for a in (1, 3, 1, 3, 2, 2, 1, 5)])
    F = FriezeTable(Q)
    c = Q.context
    assert cyc_eq(F.row(1), ints(c, 1, 3, 1, 3, 2, 2, 1, 5))
    assert cyc_eq(F.row(2), ints(c, 2, 2, 2, 5, 3, 1, 4, 4))
    assert cyc_eq(F.row(3), ints(c, 7, 1, 3, 3, 7, 1, 3, 3))
    assert cyc_eq(F.row(4), ints(c, 3, 1, 4, 4, 2, 2, 2, 5))
    assert cyc_eq(F.row(5), ints(c, 2, 2, 1, 5, 1, 3, 1, 3))
    assert F.width == 5

    # triangulated annulus, quiddity (1,4,4), five printed rows
    Q = quiddity_new([[3], [3] * 4, [3] * 4])
    F = FriezeTable(Q)
    c = Q.context
    assert cyc_eq(F.row(1), ints(c, 1, 4, 4))
    assert cyc_eq(F.row(2), ints(c, 3, 15, 3))
    assert cyc_eq(F.row(3), ints(c, 8, 11, 11))
    assert cyc_eq(F.row(4), ints(c, 29, 8, 29))
    assert cyc_eq(F.row(5), ints(c, 105, 21, 21))

    # dissected hexagon, width 3
    D = build_dissection(polygon(6), [Arc("diag", 1, 3), Arc("diag", 3, 5)])
    Q = quiddity_of(D)
    c = Q.context
    F = FriezeTable(Q)
    e = lambda a, b: c.from_int(a) + c.from_int(b) * c.lam(4)
    assert cyc_eq(F.row(1),
                  [e(1, 0), e(2, 1), e(1, 0), e(1, 1), e(0, 1), e(1, 1)])
    assert cyc_eq(F.row(2),
                  [e(0, 1), e(1, 1), e(1, 1), e(0, 1), e(1, 1), e(1, 1)])
    assert cyc_eq(F.row(3),
                  [e(0, 1), e(1, 1), e(1, 0), e(2, 1), e(1, 0), e(1, 1)])
    assert F.width == 3

    # 4-angulated octagon: rows containing 5*sqrt(2) and 7
    D = build_dissection(polygon(8), [Arc("diag", 1, 4), Arc("diag", 5, 8)])
    Q = quiddity_of(D)
    c = Q.context
    F = FriezeTable(Q)
    g = lambda a, b: c.from_int(a) + c.from_int(b) * c.lam(4)
    assert cyc_eq(F.row(3), [g(0, 5), g(0, 1), g(0, 1), g(0, 5)] * 2)
    assert cyc_eq(F.row(4), [g(3, 0), g(1, 0), g(3, 0), g(7, 0)] * 2)
    assert F.width == 5


# ---------------------------------------------------------------------------
# criterion 2: the worked annulus example, file to growth coefficient
# ---------------------------------------------------------------------------

def test_criterion_2_annulus_example_end_to_end():
    D = parse_dissection_text(ANNULUS_334_TEXT)
    Q = quiddity_of(D)
    assert cyc_eq(list(Q.A), [(3, 3, 4), (3,), (3, 3, 4, 4)])
    c = Q.context
    e = lambda a, b: c.from_int(a) + c.from_int(b) * c.lam(4)
    F = FriezeTable(Q)
    assert cyc_eq(F.row(1), [e(2, 1), e(1, 0), e(2, 2)])
    assert cyc_eq_either(F.row(2), [e(1, 1), e(7, 6), e(1, 2)])
    assert e(13, 9) in F.row(4)
    # s1 two ways: the difference formula and the annulus weight sum
    s1 = growth_coefficient(F, 1)
    assert s1 == e(3, 3)
    assert format(growth_via_annulus_weight(D)) == format(s1)


# ---------------------------------------------------------------------------
# criterion 3: the sixteen 2-periodic verdicts
# ---------------------------------------------------------------------------

def test_criterion_3_two_periodic_table():
    ms = [(3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4)]
    expected = [["Y", "Y", "?", "X"],
                ["Y", "Y", "Y", "?"],
                ["?", "Y", "Y", "Y"],
                ["X", "?", "Y", "Y"]]
    letter = {"polygon": "Y", "punctured_disc": "Y", "annulus": "Y",
              "quotient_annulus": "?", "unrealizable": "X"}
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            cls = classify_realizability(quiddity_new([a, b]))
            assert letter[cls.kind] == expected[i][j], (a, b, cls.kind)


# ---------------------------------------------------------------------------
# criterion 4: cut-trace examples
# ---------------------------------------------------------------------------

def test_criterion_4_cut_trace_examples():
    Q = quiddity_new([(3, 4, 6), (6,), (6,), (6,), (3, 6), (3,),
                      (3, 4, 6), (3, 4)])
    cls = classify_realizability(Q)
    assert cls.kind == "punctured_disc" and cls.n == 8
    assert len(cls.cut_trace) == 2
    assert list(quiddity_of(cls.witness).A) == list(Q.A)

    cls = classify_realizability(quiddity_new([(3, 4), (3,), (3, 3), (3, 4)]))
    assert cls.kind == "unrealizable"


# ---------------------------------------------------------------------------
# criterion 5: matching-weight tables
# ---------------------------------------------------------------------------

def test_criterion_5_matching_tables():
    # the full-period window of the worked annulus: seven matchings carry
    # the 21 tabulated weights; the three column totals follow
    D = parse_dissection_text(ANNULUS_334_TEXT)
    ctx = quiddity_of(D).context
    r2 = ctx.lam(4)
    e = lambda a, b: ctx.from_int(a) + ctx.from_int(b) * r2
    ms = list(enumerate_matchings(D, 0, 4))
    assert len(ms) == 12
    triples = []
    totals = [ctx.zero()] * 3
    for w in ms:
        tr = [weigh_matching(w, mode, D)
              for mode in ("local", "traditional", "annulus")]
        totals = [t + x for t, x in zip(totals, tr)]
        if any(not x.is_zero() for x in tr):
            triples.append(tuple(format(x) for x in tr))
    assert len(triples) == 7
    f = lambda *xs: tuple(format(x) for x in xs)
    one, two, zero = ctx.one(), ctx.from_int(2), ctx.zero()
    assert sorted(triples) == sorted(
        [f(r2, r2, r2)] * 3
        + [f(two, two, two), f(two, one, one), f(one, one, zero),
           f(-one, zero, zero)])
    assert totals[0] == e(4, 3)
    assert totals[1] == e(4, 3)
    assert totals[2] == e(3, 3)

    # dissected pentagon, windows of span six
    P = build_dissection(polygon(5), [Arc("diag", 2, 4), Arc("diag", 2, 5)])
    Qp = quiddity_of(P)
    cp = Qp.context
    Fp = FriezeTable(Qp)
    m28 = list(enumerate_matchings(P, 2, 8))
    assert len(m28) == 12
    assert matching_sum(P, 2, 8) == -cp.one()
    assert Fp.entry(2, 8) == -cp.one()
    w410 = [weigh_matching(w, "local", P)
            for w in enumerate_matchings(P, 4, 10)]
    assert len(w410) == 12
    assert sorted(map(format, w410)) == sorted(
        map(format, [cp.zero()] * 9 + [-cp.one()] * 2 + [cp.one()]))
    total = cp.zero()
    for x in w410:
        total = total + x
    assert total == -cp.one()


# ---------------------------------------------------------------------------
# criterion 6: randomized property suites, 100+ instances, zero failures
# ---------------------------------------------------------------------------

def test_criterion_6_unimodular_suite():
    run_suite("unimodular", 100)


def test_criterion_6_weights_equal_suite():
    run_suite("weights-equal", 100)


def test_criterion_6_entry_equals_local_sum():
    rng = random.Random(6)
    done = 0
    while done < 100:
        Q, cls = random_witness(
            rng, ("polygon", "punctured_disc", "annulus"))
        D = cls.witness
        F = FriezeTable(Q)
        i = rng.randint(0, Q.n - 1)
        j = i + rng.randint(1, Q.n - 1 if cls.kind == "polygon" else Q.n + 1)
        try:
            s = matching_sum(D, i, j, "local")
        except BudgetExceeded:
            continue
        assert F.entry(i, j) == s, (list(Q.A), i, j)
        done += 1


def test_criterion_6_entry_equals_local_sum_quotients():
    rng = random.Random(66)
    done = 0
    while done < 100:
        Q, cls = random_quotient_cycle(rng)
        F = FriezeTable(Q)
        i = rng.randint(0, Q.n - 1)
        j = i + rng.randint(1, Q.n + 1)
        try:
            s = matching_sum(cls.witness, i, j, "local")
        except BudgetExceeded:
            continue
        assert F.entry(i, j) == s, (list(Q.A), i, j)
        done += 1


def test_criterion_6_growth_weight_suite():
    # growth_via_annulus_weight cross-checks the weight sum against the
    # frieze difference formula internally and raises on mismatch
    run_suite("growth-matching", 100)


def test_criterion_6_growth_squared_dissections():
    rng = random.Random(7)
    done = 0
    while done < 100:
        Q, cls = random_witness(rng, ("annulus",))
        F = FriezeTable(Q)
        try:
            s2 = growth_via_annulus_weight(cls.witness, 2, budget=2000)
        except BudgetExceeded:
            continue
        assert format(s2) == format(growth_coefficient(F, 2))
        done += 1


def test_criterion_6_growth_recurrence():
    rng = random.Random(8)
    cases = [random_witness(rng, ("punctured_disc", "annulus"))
             for _ in range(100)]
    cases += [random_disc(rng) for _ in range(5)]
    assert sum(cls.kind == "punctured_disc" for _Q, cls in cases) >= 5
    for Q, _cls in cases:
        F = FriezeTable(Q)
        s = [Q.context.from_int(2)]
        s += [growth_coefficient(F, k) for k in range(1, 6)]
        for k in range(1, 5):
            assert s[k + 1] == s[1] * s[k] - s[k - 1]
        # s_k is computed by that recurrence, so the table must agree too
        G = FriezeTable(Q)
        assert s[1:] == [growth_by_table(G, k) for k in range(1, 6)]


def test_criterion_6_inner_outer_suite():
    run_suite("inner-outer", 100)


def test_criterion_6_phi_suite():
    run_suite("phi", 100)


def test_criterion_6_glide_symmetry():
    rng = random.Random(9)
    for _ in range(100):
        D = random_polygon_dissection(rng)
        Q = quiddity_of(D)
        F = FriezeTable(Q)
        n = Q.n
        for i in range(n):
            for j in range(i + 1, i + n + 1):
                assert F.entry(i, j) == F.entry(j, i + n)


def test_criterion_6_cut_glue_identity():
    rng = random.Random(10)
    for _ in range(100):
        Q = random_quiddity(rng)
        p = rng.choice([3, 4, 5, 6])
        i = rng.randint(1, Q.n)
        back = cut(glue(Q, p, i), i + 1, p)
        assert any(list(back.rotated(r).A) == list(Q.A)
                   for r in range(back.n))


def test_criterion_6_quotient_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        Q, cls = random_quotient_cycle(rng)
        assert cls.witness.is_quotient()
        assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_criterion_6_skeletal_coverage():
    # no skeletal cycle passing the quiddity-level test may classify as
    # unrealizable
    rng = random.Random(12)
    done = 0
    while done < 200:
        Q = random_quiddity(rng)
        if not realizability_test(Q).ok or not is_skeletal_quiddity(Q):
            continue
        done += 1
        cls = classify_realizability(Q)
        assert cls.kind != "unrealizable", list(Q.A)


# ---------------------------------------------------------------------------
# criterion 7: the Chebyshev kernel
# ---------------------------------------------------------------------------

def test_criterion_7_chebyshev_kernel():
    ctx = make_context([3, 4, 5, 6])
    one, two = ctx.one(), ctx.from_int(2)
    r2, phi, r3 = ctx.lam(4), ctx.lam(5), ctx.lam(6)
    table = {
        3: [one, one, ctx.zero(), -one, -one, ctx.zero()],
        4: [one, r2, one, ctx.zero(), -one, -r2],
        5: [one, phi, phi, one, ctx.zero(), -one],
        6: [one, r3, two, r3, one, ctx.zero()],
    }
    for p, col in table.items():
        x = ctx.lam(p)
        for k, expected in enumerate(col):
            assert chebyshev_u(ctx, k, x) == expected, (k, p)
    for p in (3, 4, 5, 6):
        x = ctx.lam(p)
        # a run of p-2 consecutive lam_p quiddity entries forces the
        # telescoped entry U_{p-1}(lam_p) = 0, and values stay positive
        # strictly inside the run
        for k in range(0, p - 1):
            assert sign_of(chebyshev_u(ctx, k, x) - one) >= 0
        assert chebyshev_u(ctx, p - 1, x).is_zero()
        # product identity U_{m+1}U_{n+1} - U_m U_n = U_{m+n+2}
        for m in range(-1, 7):
            for n in range(-1, 7):
                lhs = (chebyshev_u(ctx, m + 1, x) * chebyshev_u(ctx, n + 1, x)
                       - chebyshev_u(ctx, m, x) * chebyshev_u(ctx, n, x))
                assert lhs == chebyshev_u(ctx, m + n + 2, x)


# ---------------------------------------------------------------------------
# criterion 8: positivity sweep — reported on quotient cycles, asserted on
# realizable polygon, disc and annulus witnesses
# ---------------------------------------------------------------------------

def test_criterion_8_positivity_sweep():
    out = io.StringIO()
    fails = _SUITES["positivity-sweep"](random.Random(13), 300, out)
    print("positivity sweep over 300 quotient-realizable cycles:")
    print(out.getvalue())
    assert fails == 0, out.getvalue()
