"""Differential test of ``nonzero_traditional_matchings``, the pruned walk
that ``phi_bijection`` checks, against the filter it replaced: every
matching of ``enumerate_matchings`` weighed with ``weigh_matching`` in
traditional mode, the zero ones dropped.  The walk must yield the same
matchings in the same order.
"""

import json
import os
import random
import sys
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import artifact.tpaths
from artifact import (Arc, BudgetExceeded, build_dissection,
                      enumerate_matchings, nonzero_traditional_matchings,
                      parse_dissection_text, phi_bijection, polygon,
                      weigh_matching)
from artifact.suites import random_polygon_dissection
from artifact.matchings import _choice_lists
from artifact.surface import chords_cross
from golden.record import CASES, HERE

# windows with more matchings than this are not enumerated by the oracle
LIMIT = 5000

# the 12-gon of the matching-sums benchmark whose window (2, 12) has 1,728
# matchings, 3 of them of nonzero traditional weight
ANCHOR_TEXT = """polygon 12
diag 9 3
diag 5 8
diag 5 7
diag 9 2
diag 10 1
diag 11 1
diag 8 3
diag 8 4
"""

# a 946-gon cut into eight 120-gons by parallel diagonals; the window
# (61, 413) has 351 positions and crosses five of the diagonals
STRIP_TEXT = "polygon 946\n" + "".join(
    "diag %d %d\n" % (60 + 59 * k, 887 - 59 * k) for k in range(7))


def oracle(D, i, j, budget=LIMIT):
    return [w for w in enumerate_matchings(D, i, j, budget=budget)
            if not weigh_matching(w, "traditional", D).is_zero()]


def window_size(D, i, j):
    return prod(len(c) for c in _choice_lists(D, i, j, float("inf")))


def assert_same_walk(D, i, j):
    assert list(nonzero_traditional_matchings(D, i, j)) == oracle(D, i, j), \
        (D, i, j)


def golden_tpaths_inputs():
    with open(CASES) as fh:
        cases = json.load(fh)
    # an input the budget refuses (the 30-gon fan) has too few windows
    # small enough for the oracle
    return sorted({c["argv"][1] for c in cases if c["argv"][0] == "tpaths"
                   and "matchings" not in c["stderr"]})


@pytest.mark.parametrize("name", golden_tpaths_inputs())
def test_every_window_of_golden_inputs(name):
    with open(os.path.join(HERE, name)) as fh:
        D = parse_dissection_text(fh.read())
    n = D.surface.n
    checked = 0
    for i in range(n):
        for j in range(i, i + n + 2):
            if window_size(D, i, j) <= LIMIT:
                assert_same_walk(D, i, j)
                checked += 1
    assert checked >= n * (n + 2) // 2


def test_random_polygon_dissections():
    rng = random.Random(20261018)
    for _ in range(300):
        D = random_polygon_dissection(rng, nmin=4, nmax=12)
        n = D.surface.n
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        assert_same_walk(D, i, j)


def test_anchor_12gon():
    D = parse_dissection_text(ANCHOR_TEXT)
    assert window_size(D, 2, 12) == 1728
    kept = list(nonzero_traditional_matchings(D, 2, 12))
    assert len(kept) == 3
    assert kept == oracle(D, 2, 12)


def test_phi_weighs_only_nonzero_matchings(monkeypatch):
    D = parse_dissection_text(ANCHOR_TEXT)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return weigh_matching(*args, **kwargs)

    monkeypatch.setattr(artifact.tpaths, "weigh_matching", counted)
    assert len(phi_bijection(D, 2, 12)) == 3
    assert len(calls) == 3


def test_empty_and_degenerate_windows():
    D = parse_dissection_text(ANCHOR_TEXT)
    assert list(nonzero_traditional_matchings(D, 3, 3)) == []
    assert [w.choice for w in nonzero_traditional_matchings(D, 3, 4)] == [()]
    with pytest.raises(ValueError):
        list(nonzero_traditional_matchings(D, 4, 3))


def test_budget_counts_all_matchings():
    # the pre-check refuses the window by its 1,728 matchings, although
    # only 3 would be walked to the end, and refuses it at the call
    D = parse_dissection_text(ANCHOR_TEXT)
    with pytest.raises(BudgetExceeded):
        nonzero_traditional_matchings(D, 2, 12, budget=1727)
    assert len(list(nonzero_traditional_matchings(D, 2, 12,
                                                  budget=1728))) == 3


def test_phi_refuses_before_any_tpath(monkeypatch):
    # the 30-gon fan's window 2 -> 30 has 2^27 matchings: the budget must
    # refuse it before the walk builds any complete T-path
    with open(os.path.join(HERE, "inputs", "fan_n30.txt")) as fh:
        D = parse_dissection_text(fh.read())

    def no_paths(*args):
        raise AssertionError("T-paths walked before the budget check")
        yield

    monkeypatch.setattr(artifact.tpaths, "_complete_tpaths", no_paths)
    with pytest.raises(BudgetExceeded):
        phi_bijection(D, 2, 30)
    # the endpoints are still checked first
    with pytest.raises(ValueError, match="vertex out of range"):
        phi_bijection(D, 2, 31)


def test_quotients_are_refused():
    from artifact.suites import random_quotient_cycle
    _Q, cls = random_quotient_cycle(random.Random(5))
    with pytest.raises(ValueError):
        list(nonzero_traditional_matchings(cls.witness, 0, 3))


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_long_window_under_low_recursion_limit():
    D = parse_dissection_text(STRIP_TEXT)
    i, j = 61, 413
    assert j - i - 1 >= 300
    expected = oracle(D, i, j)
    assert len(expected) == 32
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        kept = list(nonzero_traditional_matchings(D, i, j))
        mapping = phi_bijection(D, i, j)
    finally:
        sys.setrecursionlimit(limit)
    assert kept == expected
    assert list(mapping) == expected


@st.composite
def polygon_windows(draw):
    n = draw(st.integers(4, 12))
    cand = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
            if (a, b) != (1, n)]
    arcs = []
    for a, b in draw(st.lists(st.sampled_from(cand), max_size=n - 3,
                              unique=True)):
        if not any(chords_cross(a, b, c, d) for c, d in arcs):
            arcs.append((a, b))
    D = build_dissection(polygon(n), [Arc("diag", a, b) for a, b in arcs])
    i = draw(st.integers(0, n))
    j = draw(st.integers(i, i + n + 1))
    return D, i, j


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(polygon_windows())
def test_walk_matches_filter_property(case):
    D, i, j = case
    assume(window_size(D, i, j) <= LIMIT)
    assert_same_walk(D, i, j)
