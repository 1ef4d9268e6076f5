"""Weighted-matching formulas: figure fixtures, entry identities, growth
coefficients via annulus weights, and error paths."""

import pytest

from artifact import (BudgetExceeded, FriezeTable, enumerate_matchings,
                      growth_coefficient, growth_via_annulus_weight,
                      inner_outer_consistency, matching_sum, quiddity_of,
                      weigh_matching, dissection_power)
from conftest import random_disc


def test_full_period_window_weight_table(annulus_334):
    # the 12 matchings over one full period of the three-vertex annulus,
    # weighed in all three modes (local / traditional / annulus)
    ctx = quiddity_of(annulus_334).context
    r2 = ctx.lam(4)
    ms = list(enumerate_matchings(annulus_334, 0, 4))
    assert len(ms) == 12
    triples = sorted(
        tuple(format(weigh_matching(w, mode, annulus_334))
              for mode in ("local", "traditional", "annulus"))
        for w in ms)

    def fmt(x):
        return format(x)

    expected = sorted(
        [(fmt(ctx.zero()),) * 3] * 5
        + [(fmt(r2),) * 3] * 3
        + [(fmt(ctx.from_int(2)),) * 3,
           (fmt(ctx.from_int(2)), fmt(ctx.one()), fmt(ctx.one())),
           (fmt(ctx.one()), fmt(ctx.one()), fmt(ctx.zero())),
           (fmt(-ctx.one()), fmt(ctx.zero()), fmt(ctx.zero()))])
    assert triples == expected
    e = lambda a, b: ctx.from_int(a) + ctx.from_int(b) * r2
    assert matching_sum(annulus_334, 0, 4, "local") == e(4, 3)
    assert matching_sum(annulus_334, 0, 4, "traditional") == e(4, 3)
    assert matching_sum(annulus_334, 0, 4, "annulus") == e(3, 3)


def test_matching_counts_small(annulus_334):
    assert list(enumerate_matchings(annulus_334, 2, 2)) == []
    only = list(enumerate_matchings(annulus_334, 2, 3))
    assert len(only) == 1 and len(only[0]) == 0
    ctx = quiddity_of(annulus_334).context
    assert matching_sum(annulus_334, 2, 3) == ctx.one()


def test_pentagon_windows_beyond_the_finite_band(pentagon_24_25):
    # windows of span 6 on the dissected pentagon: twelve matchings
    # whose signed local weights sum to the entry -1
    Q = quiddity_of(pentagon_24_25)
    ctx = Q.context
    F = FriezeTable(Q)
    for i, j in ((2, 8), (4, 10)):
        ms = list(enumerate_matchings(pentagon_24_25, i, j))
        assert len(ms) == 12
        weights = [weigh_matching(w, "local", pentagon_24_25)
                   for w in ms]
        assert F.entry(i, j) == -ctx.one()
        assert matching_sum(pentagon_24_25, i, j) == -ctx.one()
        total = ctx.zero()
        for x in weights:
            total = total + x
        assert total == -ctx.one()
    # the (4,10) window has nine zero weights, two -1 and one +1
    w410 = [weigh_matching(w, "local", pentagon_24_25)
            for w in enumerate_matchings(pentagon_24_25, 4, 10)]
    zero, one = ctx.zero(), ctx.one()
    assert sorted(map(format, w410)) == sorted(
        map(format, [zero] * 9 + [-one] * 2 + [one]))


def test_entry_equals_local_sum_random(rng):
    from artifact.cli import random_witness
    for _ in range(15):
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


def test_entry_equals_local_sum_on_quotients(rng):
    from artifact.cli import random_quotient_cycle
    for _ in range(10):
        Q, cls = random_quotient_cycle(rng)
        D = cls.witness
        F = FriezeTable(Q)
        i = rng.randint(0, Q.n - 1)
        j = i + rng.randint(1, Q.n + 1)
        try:
            s = matching_sum(D, i, j, "local")
        except BudgetExceeded:
            continue
        assert F.entry(i, j) == s, (list(Q.A), i, j)


def test_annulus_mode_restrictions(annulus_334):
    with pytest.raises(ValueError):
        matching_sum(annulus_334, 0, 3, "annulus")   # not a full period
    from artifact.cli import random_quotient_cycle
    import random
    Q, cls = random_quotient_cycle(random.Random(1))
    with pytest.raises(ValueError):
        matching_sum(cls.witness, 0, cls.witness.surface.n + 1, "annulus")
    with pytest.raises(ValueError):
        matching_sum(cls.witness, 0, 3, "traditional")
    # an empty window is refused too, not summed to zero
    with pytest.raises(ValueError, match="full-period"):
        matching_sum(annulus_334, 2, 2, "annulus")
    with pytest.raises(ValueError, match="ordinary dissections"):
        matching_sum(cls.witness, 2, 2, "traditional")


def test_budget_exceeded(annulus_334):
    with pytest.raises(BudgetExceeded):
        matching_sum(annulus_334, 0, 40, budget=100)
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(annulus_334, 0, 40, budget=100))


def test_growth_via_annulus_weight(annulus_334):
    Q = quiddity_of(annulus_334)
    c = Q.context
    F = FriezeTable(Q)
    s1 = growth_via_annulus_weight(annulus_334)
    # the weight sum lives in its own ring context; compare exact forms
    assert format(s1) == format(c.from_int(3) + c.from_int(3) * c.lam(4))
    assert format(s1) == format(growth_coefficient(F, 1))
    assert format(growth_via_annulus_weight(annulus_334, 2)) == \
        format(growth_coefficient(F, 2))


def test_growth_weight_random(rng):
    from artifact.cli import random_witness
    cases = [random_witness(rng, ("punctured_disc", "annulus"))
             for _ in range(6)]
    cases += [random_disc(rng) for _ in range(5)]
    discs = 0
    for Q, cls in cases:
        F = FriezeTable(Q)
        try:
            s1 = growth_via_annulus_weight(cls.witness)
        except BudgetExceeded:
            continue
        assert format(s1) == format(growth_coefficient(F, 1))
        discs += cls.kind == "punctured_disc"
    assert discs >= 5


def test_inner_outer_consistency(annulus_334, rng):
    equal, s_out, s_in = inner_outer_consistency(annulus_334)
    assert equal and format(s_out) == format(s_in)
    from artifact.cli import random_witness
    for _ in range(6):
        _Q, cls = random_witness(rng, ("annulus",))
        equal, s_out, s_in = inner_outer_consistency(cls.witness)
        assert equal


def test_power_dissection_growth(annulus_334):
    # s_2 of the base equals s_1 of the squared dissection
    Q = quiddity_of(annulus_334)
    F = FriezeTable(Q)
    D2 = dissection_power(annulus_334, 2)
    assert format(growth_via_annulus_weight(D2)) == \
        format(growth_coefficient(F, 2))
