"""Differential test of the transfer-matrix ``matching_sum`` against the
brute force: the sum of ``weigh_matching`` over ``enumerate_matchings``.

Both sides weigh in the dissection's ring context, the one shared context
of its face sizes.
"""

import os
import random

import pytest

from artifact import (BudgetExceeded, FriezeTable, classify_realizability,
                      dissection_power, enumerate_matchings, glue,
                      growth_coefficient, growth_via_annulus_weight,
                      matching_sum, parse_dissection_text, quiddity_new,
                      quiddity_of, weigh_matching)
from artifact.suites import random_quotient_cycle, random_witness
from golden.record import HERE

# windows checked exhaustively have at most SMALL matchings; single wider
# windows go up to LIMIT
SMALL = 500
LIMIT = 20000
MODES = ("local", "traditional", "annulus")

# the witness printed by ``classify`` for [3,3,4] [3] [3,3,4,4]
README_WITNESS_TEXT = """annulus 3 3
bridge 1 1 0
bridge 3 1 0
bridge 3 3 0
peri 1 3
"""


def within(D, i, j, limit):
    """Does the window (i, j) have at most ``limit`` matchings?"""
    try:
        next(enumerate_matchings(D, i, j, budget=limit), None)
    except BudgetExceeded:
        return False
    return True


def check_window(D, i, j, mode):
    want = D.context.zero()
    for w in enumerate_matchings(D, i, j, budget=LIMIT):
        want = want + weigh_matching(w, mode, D)
    got = matching_sum(D, i, j, mode)
    assert got == want, (mode, i, j, format(got), format(want))


def check_dissection(D, modes, starts=None, max_span=None):
    """Every window from each start with at most SMALL matchings, in the
    local and traditional modes; the annulus weight on the full-period
    window from each start.  Returns the number of sums checked."""
    n = D.surface.n
    starts = range(n) if starts is None else starts
    checked = 0
    for i in starts:
        # from the window with no matching and the one with only the empty one
        for j in range(i, i + (max_span or 4 * n) + 1):
            if not within(D, i, j, SMALL):
                break
            for mode in modes:
                if mode != "annulus":
                    check_window(D, i, j, mode)
                    checked += 1
        if "annulus" in modes and within(D, i, i + n + 1, LIMIT):
            check_window(D, i, i + n + 1, "annulus")
            checked += 1
    return checked


def test_worked_annulus_all_modes(annulus_334):
    assert check_dissection(annulus_334, MODES) >= 40


def test_worked_annulus_widest_windows(annulus_334):
    # the widest windows from each start with at most LIMIT matchings
    for i in range(3):
        j = i + 1
        while within(annulus_334, i, j + 1, LIMIT):
            j += 1
        assert not within(annulus_334, i, j, LIMIT // 4)
        for mode in ("local", "traditional"):
            check_window(annulus_334, i, j, mode)


def test_readme_witness_all_modes():
    D = parse_dissection_text(README_WITNESS_TEXT)
    assert check_dissection(D, MODES) >= 40


def test_pentagon_all_modes(pentagon_24_25):
    # polygon windows wrap around the boundary past the finite band
    assert check_dissection(pentagon_24_25, MODES, max_span=12) >= 40


def test_golden_disc_all_modes():
    # seed 7 of the random witnesses below draws no punctured disc
    with open(os.path.join(HERE, "inputs", "disc_6.txt")) as fh:
        D = parse_dissection_text(fh.read())
    assert D.surface.kind == "disc"
    assert check_dissection(D, MODES) >= 40


def test_random_witnesses_all_modes():
    rng = random.Random(7)
    for _ in range(8):
        _Q, cls = random_witness(
            rng, ("polygon", "punctured_disc", "annulus"))
        modes = MODES if cls.kind != "polygon" else ("local", "traditional")
        n = cls.witness.surface.n
        assert check_dissection(cls.witness, modes,
                                starts=[rng.randrange(n)]) >= 2


@pytest.mark.parametrize("core", [[(3, 3)], [(4, 4), (4,)]])
def test_ear_glued_discs_all_modes(core):
    # random witnesses are nearly all annuli, so discs come from ears glued
    # onto the disc cores
    rng = random.Random(repr(core))
    for _ in range(4):
        Q = quiddity_new(core)
        for _ in range(rng.randint(1, 4)):
            Q = glue(Q, rng.choice((3, 4, 5)), rng.randint(1, Q.n))
        cls = classify_realizability(Q)
        assert cls.kind == "punctured_disc"
        n = cls.witness.surface.n
        assert check_dissection(cls.witness, MODES,
                                starts=[rng.randrange(n)]) >= 2


def test_random_quotients_local():
    # class keys of identified faces make runs across different fids
    rng = random.Random(11)
    for _ in range(8):
        _Q, cls = random_quotient_cycle(rng)
        n = cls.witness.surface.n
        assert check_dissection(cls.witness, ("local",),
                                starts=[rng.randrange(n)]) >= 2


def test_unknown_mode_is_rejected(annulus_334):
    with pytest.raises(ValueError):
        matching_sum(annulus_334, 0, 4, "bogus")


def test_unknown_mode_is_rejected_before_the_quotient_check():
    _Q, cls = random_quotient_cycle(random.Random(11))
    D = cls.witness
    w = next(enumerate_matchings(D, 0, 2))
    for weigh in (lambda: matching_sum(D, 0, 2, "bogus"),
                  lambda: weigh_matching(w, "bogus", D)):
        with pytest.raises(ValueError, match="unknown weighting mode"):
            weigh()
    with pytest.raises(ValueError, match="only for ordinary dissections"):
        weigh_matching(w, "traditional", D)


def test_long_windows_beyond_the_brute_force(annulus_334):
    # window (0,40) has 2^13 * 4^13 matchings; only the pass can sum them
    Q = quiddity_of(annulus_334)
    entry = FriezeTable(Q).entry(0, 40)
    for mode in ("local", "traditional"):
        assert matching_sum(annulus_334, 0, 40, mode, budget=10 ** 30) == entry
    with pytest.raises(BudgetExceeded):
        matching_sum(annulus_334, 0, 40)


def test_growth_by_annulus_weight_on_powers(annulus_334):
    # s_k sums over the full-period matchings of the k-fold dissection:
    # 12^k of them on the worked annulus, past the default budget at k = 8
    F = FriezeTable(quiddity_of(annulus_334))
    for k in (3, 8):
        Dk = dissection_power(annulus_334, k)
        nk = Dk.surface.n
        if k == 8:
            with pytest.raises(BudgetExceeded):
                matching_sum(Dk, 0, nk + 1, "annulus")
        sk = matching_sum(Dk, 0, nk + 1, "annulus", budget=10 ** 30)
        assert sk == growth_coefficient(F, k)
        checked = growth_via_annulus_weight(annulus_334, k, budget=10 ** 30)
        assert checked.coeffs == sk.coeffs
