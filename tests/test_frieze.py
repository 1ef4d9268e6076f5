"""Frieze tables: figure fixtures, unimodularity, growth, cut and glue."""

import pytest

from artifact import (FriezeTable, quiddity_new, format_quiddity,
                      growth_coefficient, check_positivity, cut, glue,
                      realizability_test, is_skeletal_quiddity,
                      quiddity_of)
from artifact.frieze import singleton_runs

from conftest import cyc_eq, cyc_eq_either
from frieze_oracle import growth_by_table


def ints(ctx, *v):
    return [ctx.from_int(x) for x in v]


def test_octagon_triangulation_width_5_table():
    # triangulated octagon, integer quiddity (1,3,1,3,2,2,1,5)
    Q = quiddity_new([[3] * a for a in (1, 3, 1, 3, 2, 2, 1, 5)])
    F = FriezeTable(Q)
    c = Q.context
    assert cyc_eq(F.row(1), ints(c, 1, 3, 1, 3, 2, 2, 1, 5))
    assert cyc_eq(F.row(2), ints(c, 2, 2, 2, 5, 3, 1, 4, 4))
    assert cyc_eq(F.row(3), ints(c, 7, 1, 3, 3, 7, 1, 3, 3))
    assert cyc_eq(F.row(4), ints(c, 3, 1, 4, 4, 2, 2, 2, 5))
    # the last nontrivial row is the quiddity row again, shifted
    assert cyc_eq(F.row(5), ints(c, 2, 2, 1, 5, 1, 3, 1, 3))
    assert F.width == 5
    assert check_positivity(F, 12).kind == "provably_positive"


def test_triangulated_annulus_infinite_table():
    # triangulated annulus, integer quiddity (1,4,4)
    Q = quiddity_new([[3], [3] * 4, [3] * 4])
    F = FriezeTable(Q)
    c = Q.context
    assert cyc_eq(F.row(1), ints(c, 1, 4, 4))
    assert cyc_eq(F.row(2), ints(c, 3, 15, 3))
    assert cyc_eq(F.row(3), ints(c, 8, 11, 11))
    assert cyc_eq(F.row(4), ints(c, 29, 8, 29))
    assert cyc_eq(F.row(5), ints(c, 105, 21, 21))
    assert F.width is None
    assert growth_coefficient(F, 1) == c.from_int(7)


def test_dissected_hexagon_width_3_table(hexagon_13_35):
    Q = quiddity_of(hexagon_13_35)
    assert cyc_eq(list(Q.A), [(3, 4), (3,), (3, 3, 4), (3,), (3, 4), (4,)])
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


def test_4angulated_octagon_width_5_table():
    from artifact import Arc, build_dissection, polygon
    D = build_dissection(polygon(8), [Arc("diag", 1, 4), Arc("diag", 5, 8)])
    Q = quiddity_of(D)
    assert cyc_eq(list(Q.A),
                  [(4, 4), (4,), (4,), (4, 4), (4, 4), (4,), (4,), (4, 4)])
    c = Q.context
    F = FriezeTable(Q)
    g = lambda a, b: c.from_int(a) + c.from_int(b) * c.lam(4)
    r_odd = [g(0, 2), g(0, 1), g(0, 1), g(0, 2)] * 2
    r_even = [g(3, 0), g(1, 0), g(3, 0), g(7, 0)] * 2
    r_mid = [g(0, 5), g(0, 1), g(0, 1), g(0, 5)] * 2
    assert cyc_eq(F.row(1), r_odd)
    assert cyc_eq(F.row(2), r_even)
    assert cyc_eq(F.row(3), r_mid)        # contains 5*sqrt(2)
    assert cyc_eq(F.row(4), r_even)       # contains 7
    assert cyc_eq(F.row(5), r_odd)
    assert F.width == 5


def test_annulus_334_table_and_growth(annulus_334):
    Q = quiddity_of(annulus_334)
    assert cyc_eq(list(Q.A), [(3, 3, 4), (3,), (3, 3, 4, 4)])
    c = Q.context
    F = FriezeTable(Q)
    e = lambda a, b: c.from_int(a) + c.from_int(b) * c.lam(4)
    assert cyc_eq(F.row(1), [e(2, 1), e(1, 0), e(2, 2)])
    assert cyc_eq_either(F.row(2), [e(1, 1), e(7, 6), e(1, 2)])
    assert cyc_eq_either(F.row(3), [e(4, 3), e(5, 4), e(5, 5)])
    # row 4 contains 13+9*sqrt(2) alongside 4+3*sqrt(2)
    assert e(13, 9) in F.row(4) and e(4, 3) in F.row(4)
    assert growth_coefficient(F, 1) == e(3, 3)


def test_infinite_extension_of_pentagon_frieze(pentagon_24_25):
    # dissected pentagon continued past its finite width: a zero row,
    # then the negated rows
    Q = quiddity_of(pentagon_24_25)
    assert cyc_eq(list(Q.A), [(3,), (3, 3, 3), (3,), (3, 3), (3, 3)])
    F = FriezeTable(Q)
    c = Q.context
    assert cyc_eq(F.row(1), ints(c, 1, 3, 1, 2, 2))
    assert cyc_eq(F.row(2), ints(c, 2, 2, 1, 3, 1))
    assert all(x == 1 for x in F.row(3))
    assert all(x.is_zero() for x in F.row(4))
    assert all(x == c.from_int(-1) for x in F.row(5))
    assert cyc_eq(F.row(6), ints(c, -2, -2, -1, -3, -1))
    assert cyc_eq(F.row(7), ints(c, -1, -3, -1, -2, -2))


def test_unimodular_rule_random(rng):
    from artifact.suites import random_free_quiddity
    for _ in range(30):
        Q = random_free_quiddity(rng)
        F = FriezeTable(Q)
        one = Q.context.one()
        for i in range(Q.n):
            for j in range(i + 1, i + 3 * Q.n):
                det = (F.entry(i, j) * F.entry(i + 1, j + 1)
                       - F.entry(i, j + 1) * F.entry(i + 1, j))
                assert det == one


def test_glide_symmetry_of_finite_friezes(rng):
    # m_{i,j} = m_{j,i+n} for friezes from dissected polygons
    from artifact.suites import random_polygon_dissection
    for _ in range(20):
        D = random_polygon_dissection(rng)
        Q = quiddity_of(D)
        F = FriezeTable(Q)
        n = Q.n
        for i in range(n):
            for j in range(i + 1, i + n + 1):
                assert F.entry(i, j) == F.entry(j, i + n)


def test_growth_recurrence(rng):
    from artifact.suites import random_witness
    for _ in range(8):
        Q, _cls = random_witness(rng, ("punctured_disc", "annulus"))
        F = FriezeTable(Q)
        s = [Q.context.from_int(2)]
        s += [growth_coefficient(F, k) for k in range(1, 6)]
        for k in range(1, 5):
            assert s[k + 1] == s[1] * s[k] - s[k - 1]
        # s_k is computed by that recurrence, so the table must agree too
        G = FriezeTable(Q)
        assert s[1:] == [growth_by_table(G, k) for k in range(1, 6)]


def test_growth_undefined_for_finite():
    from artifact import Arc, build_dissection, polygon
    D = build_dissection(polygon(5), [Arc("diag", 1, 3)])
    F = FriezeTable(quiddity_of(D))
    with pytest.raises(ValueError):
        growth_coefficient(F, 1)


def test_cut_and_glue_are_inverse(rng):
    from artifact.suites import random_quiddity
    for _ in range(100):
        Q = random_quiddity(rng)
        p = rng.choice([3, 4, 5, 6])
        i = rng.randint(1, Q.n)
        G = glue(Q, p, i)
        back = cut(G, i + 1, p)
        assert any(list(back.rotated(r).A) == list(Q.A)
                   for r in range(back.n))


def test_cut_4angulation_run():
    Q = quiddity_new([(3, 4), (4,), (4,), (3, 4)])
    child = cut(Q, 2, 4)
    assert list(child.A) == [(3,), (3,)]
    # interval not a constant {p} run
    with pytest.raises(ValueError):
        cut(Q, 1, 4)
    # flank lacking lambda_p
    with pytest.raises(ValueError):
        cut(quiddity_new([(3, 3), (4,), (4,), (3, 4)]), 2, 4)


def test_singleton_runs_wrap():
    Q = quiddity_new([(4,), (3, 4), (4,), (4,), (4, 5)])
    runs = dict((s, (ln, p)) for s, ln, p in singleton_runs(Q))
    assert runs == {1: (1, 4), 3: (2, 4)}
    Qc = quiddity_new([(5,)] * 3)
    assert singleton_runs(Qc) == [(1, 3, 5)]


def test_realizability_test_and_skeletal():
    assert realizability_test(quiddity_new([(3, 3, 3), (3, 3, 4)])).ok
    v = realizability_test(quiddity_new([(3, 3, 3), (4, 4, 4)]))
    assert not v.ok and v.reason == "empty_intersection"
    v = realizability_test(quiddity_new([(4,), (4,), (4,), (4, 5)]))
    assert not v.ok and v.reason == "long_run"
    # constant singleton cycles are exempt from the run rule
    assert realizability_test(quiddity_new([(4,)] * 7)).ok
    assert is_skeletal_quiddity(quiddity_new([(4,), (3, 4), (4, 5)]))
    assert not is_skeletal_quiddity(quiddity_new([(3,), (3, 3), (3, 3)]))


def test_positivity_verdicts():
    # all entries >= 2
    v = check_positivity(FriezeTable(quiddity_new([(3, 3), (3, 3, 3)])), 10)
    assert v.kind == "provably_positive"
    # unrealizable cycle with negative entries: (sqrt2, 1, sqrt2, 1)
    Q = quiddity_new([(4,), (3,), (4,), (3,)])
    v = check_positivity(FriezeTable(Q), 12)
    assert v.kind == "nonpositive_found"
    # finite friezes are positive inside
    from artifact import Arc, build_dissection, polygon
    Q3 = quiddity_of(build_dissection(polygon(6), [Arc("diag", 1, 3)]))
    assert check_positivity(FriezeTable(Q3), 12).kind == "provably_positive"


def test_row_below_minus_one_raises():
    # once row 3 is stored, row(-2) and row(-5) must not read stored rows
    # from the end of the store
    Q = quiddity_new([(3, 4), (4,), (3,)])
    F = FriezeTable(Q)
    F.row(3)
    assert F.row(-1) == [Q.context.zero()] * 3
    assert F.row(0) == [Q.context.one()] * 3
    for t in (-2, -5):
        with pytest.raises(ValueError):
            F.row(t)


def test_format_quiddity():
    Q = quiddity_new([(3, 3, 4), (3,), (3, 3, 4, 4)])
    assert format_quiddity(Q) == "[3,3,4] [3] [3,3,4,4]"


def test_realizability_test_names_the_failing_place():
    for A, want in [
            ([(3, 4), (5,), (3, 3)], ("empty_intersection", 1, None)),
            ([(3,), (3,), (3, 4)], ("long_run", 1, 3)),
            ([(3, 4), (4,), (4, 5), (5,)], ("empty_intersection", 4, None))]:
        v = realizability_test(quiddity_new(A))
        assert not v.ok and (v.reason, v.position, v.p) == want, A
