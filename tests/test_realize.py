"""Realizability classification: the 2-periodic verdict table, cut traces,
skeletal and quotient constructions, and witness round-trips."""

from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from artifact import (Arc, FriezeTable, build_dissection, check_positivity,
                      classify_realizability, format_dissection,
                      glue, growth_coefficient, polygon, punctured_disc,
                      quiddity_new, quiddity_of,
                      quotient_realize, skeletal_realize, sign_of,
                      valid_pchoices, witness_nonuniqueness_probe)
from artifact.realize import _construct, _layout, _reduce
from conftest import random_disc
from test_annulus_layout_differential import annulus_by_nodes


MULTISET = {"3": (3, 3, 3), "2+r2": (3, 3, 4),
            "1+2r2": (3, 4, 4), "3r2": (4, 4, 4)}
ORDER = ["3", "2+r2", "1+2r2", "3r2"]
# realizable / quotient / unrealizable verdicts for 2-periodic (a, b)
VERDICTS = [["Y", "Y", "?", "X"],
            ["Y", "Y", "Y", "?"],
            ["?", "Y", "Y", "Y"],
            ["X", "?", "Y", "Y"]]


def verdict_letter(kind):
    return {"polygon": "Y", "punctured_disc": "Y", "annulus": "Y",
            "quotient_annulus": "?", "unrealizable": "X"}[kind]


def test_two_periodic_verdict_table():
    for i, a in enumerate(ORDER):
        for j, b in enumerate(ORDER):
            Q = quiddity_new([MULTISET[a], MULTISET[b]])
            cls = classify_realizability(Q)
            assert verdict_letter(cls.kind) == VERDICTS[i][j], (a, b, cls.kind)
            if cls.realizable:
                assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_eight_cycle_with_two_cuts_realizes_disc():
    # (1+r2+r3, r3, r3, r3, 1+r3, 1, 1+r2+r3, 1+r2): two ear cuts lead to
    # the skeletal core (1+r2, r2, 1+r2) realizable on a punctured disc
    Q = quiddity_new([(3, 4, 6), (6,), (6,), (6,), (3, 6), (3,),
                      (3, 4, 6), (3, 4)])
    cls = classify_realizability(Q)
    assert cls.kind == "punctured_disc"
    assert cls.n == 8
    assert cls.cut_trace == [(6, 3), (2, 6)]
    assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_cut_to_failing_core_is_unrealizable():
    # (1+r2, 1, 2, 1+r2): cutting the 3-ear leaves (r2, 1, 1+r2), which
    # fails the adjacency test
    Q = quiddity_new([(3, 4), (3,), (3, 3), (3, 4)])
    cls = classify_realizability(Q)
    assert cls.kind == "unrealizable"


def test_constant_core_is_a_polygon_only_at_its_own_length():
    cls = classify_realizability(quiddity_new([(5,)] * 5))
    assert cls.kind == "polygon" and cls.n == 5
    assert cls.witness.surface == polygon(5) and not cls.witness.arcs
    # [5]^4 and [3]^6 have no cuts; [3,5] [5] [5] [3,5] [3] cuts down to
    # [5]^4, and the n = 12 cycle to [5]^4 after three cuts
    for A in ([(5,)] * 4, [(3,)] * 6, [(3, 5), (5,), (5,), (3, 5), (3,)],
              [(4, 5), (5,), (5,), (4, 5), (4, 5), (5,), (5,), (5, 5), (5,),
               (5,), (5,), (4, 5, 5)]):
        cls = classify_realizability(quiddity_new(A))
        assert cls.kind == "unrealizable", A
        assert cls.reason == "constant_core_length"
        assert not witness_nonuniqueness_probe(quiddity_new(A))


def test_annulus_334_classification():
    Q = quiddity_new([(3, 3, 4), (3,), (3, 3, 4, 4)])
    cls = classify_realizability(Q)
    assert cls.kind == "annulus"
    assert cls.cut_trace == [(2, 3)]
    assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_skeletal_realize_wheel():
    kind, D = skeletal_realize(quiddity_new([(3, 3)] * 3))
    assert kind == "disc"
    assert list(quiddity_of(D).A) == [(3, 3)] * 3


def test_disc_iff_growth_two(rng):
    from artifact.suites import random_witness
    cases = [random_witness(rng, ("punctured_disc", "annulus"))
             for _ in range(12)]
    cases += [random_disc(rng) for _ in range(5)]
    assert sum(cls.kind == "punctured_disc" for _Q, cls in cases) >= 5
    for Q, cls in cases:
        s1 = growth_coefficient(FriezeTable(Q), 1)
        is_two = sign_of(s1 - Q.context.from_int(2)) == 0
        assert is_two == (cls.kind == "punctured_disc")


def test_quotient_fixtures_roundtrip():
    fixtures = [
        [(3, 3, 3), (3, 4, 4)],              # (3, 1+2r2)
        [(3, 3, 4), (4, 4)],                 # (2+r2, 2r2)
        [(3, 5), (3, 4), (3, 5), (4, 5)],
        [(4,), (4, 4), (4,), (4, 6)],        # needs a single-offset glue
        [(5,), (4, 5, 6)],                   # needs a self-glued wrap
    ]
    for A in fixtures:
        Q = quiddity_new(A)
        cls = classify_realizability(Q)
        assert cls.kind == "quotient_annulus", A
        assert cls.witness.is_quotient()
        assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_quotient_realize_rejects_ordinary():
    with pytest.raises(ValueError):
        quotient_realize(quiddity_new([(3, 3), (3, 3), (3, 3)]))


def test_witness_probe_multiple_choices():
    # every clash-free gap-size assignment yields a witness with the same
    # quiddity
    Q = quiddity_new([(3, 4)] * 4)
    assert len(list(valid_pchoices(Q))) >= 2
    seen = witness_nonuniqueness_probe(Q)
    assert len(seen) >= 2
    for D in seen:
        assert list(quiddity_of(D).A) == list(Q.A)
    assert len({format_dissection(D) for D in seen}) == len(seen)


def disc_first_realize(Q):
    """The rule ``skeletal_realize`` replaced, kept as its oracle: the first
    clash-free choice that is disc-shaped (every anchor holds two sizes and
    every gap is p - 2 long), else the first clash-free choice, laid out
    as an annulus by the node layout."""
    first = None
    for pchoice in valid_pchoices(Q):
        anchors, gaps, gap_p = _layout(Q, pchoice)
        if (all(len(Q.A[a]) == 2 for a in anchors)
                and all(p - 2 == g for p, g in zip(gap_p, gaps))):
            arcs = [Arc("bridge_disc", a + 1) for a in anchors]
            return "disc", build_dissection(punctured_disc(Q.n), arcs)
        if first is None:
            first = pchoice
    if first is None:
        return "no_valid_choice", None
    return "annulus", build_dissection(*annulus_by_nodes(Q, first))


def short_skeletal_cores():
    """The distinct skeletal cores with an anchor that the ear cuts reach
    from the cycles of length 1-3 over the multisets of one to three sizes
    from {3, 4, 5}, and of length 4 over those of one or two."""
    cores = set()
    for n, most in ((1, 3), (2, 3), (3, 3), (4, 2)):
        sets = [ms for k in range(1, most + 1)
                for ms in combinations_with_replacement((3, 4, 5), k)]
        for A in product(sets, repeat=n):
            core, _trace, _steps, reason = _reduce(A)
            if reason is None and any(len(a) > 1 for a in core):
                cores.add(core)
    return sorted(cores)


def test_first_clash_free_choice_matches_the_disc_first_rule():
    # the first clash-free choice builds what the disc-first walk built,
    # because no core has both a disc- and an annulus-shaped choice
    kinds, several = Counter(), 0
    for core in short_skeletal_cores():
        Q = quiddity_new(core)
        kind, D = skeletal_realize(Q)
        want_kind, want = disc_first_realize(Q)
        assert kind == want_kind, core
        if D is not None:
            assert format_dissection(D) == format_dissection(want), core
        choices = list(valid_pchoices(Q))
        shapes = {_construct(Q, pc)[0] for pc in choices}
        assert shapes == ({kind} if choices else set()), core
        kinds[kind] += 1
        several += len(choices) > 1
    assert kinds == {"disc": 22, "annulus": 1900, "no_valid_choice": 1673}
    assert several == 353


def test_skeletal_coverage_random(rng):
    # every skeletal cycle passing the quiddity-level test classifies as
    # realizable (possibly by a quotient), never unrealizable
    from artifact import is_skeletal_quiddity, realizability_test
    from artifact.suites import random_quiddity
    tried = 0
    while tried < 200:
        Q = random_quiddity(rng)
        if not realizability_test(Q).ok or not is_skeletal_quiddity(Q):
            continue
        tried += 1
        cls = classify_realizability(Q)
        assert cls.kind != "unrealizable", list(Q.A)
        if cls.witness is not None and cls.kind != "polygon":
            assert list(quiddity_of(cls.witness).A) == list(Q.A)


def test_quotient_roundtrip_random(rng):
    from artifact.suites import random_quotient_cycle
    for _ in range(40):
        Q, cls = random_quotient_cycle(rng)
        assert list(quiddity_of(cls.witness).A) == list(Q.A)


def _three_ear_cycle(n, at_tail=False):
    """The annulus core [3,3,4] [3] [3,3,4,4] with 3-ears glued at
    random.Random(1) positions up to period n, or each between positions
    n and 1 ``at_tail``."""
    import random
    rng = random.Random(1)
    Q = quiddity_new([(3, 3, 4), (3,), (3, 3, 4, 4)])
    while Q.n < n:
        Q = glue(Q, 3, Q.n if at_tail else rng.randint(1, Q.n))
    return Q


def test_many_cuts_classify_from_the_cli(tmp_path):
    # 68 ear cuts: a depth guard on the shrinking child's period used to
    # stop this cycle with an internal error (exit 3)
    import io
    from artifact import format_quiddity
    from artifact.cli import dispatch
    path = tmp_path / "cycle.txt"
    path.write_text(format_quiddity(_three_ear_cycle(70)) + "\n")
    out = io.StringIO()
    assert dispatch(["classify", str(path)], out) == 0
    assert out.getvalue().startswith("verdict: annulus\nn: 70\nm: 3\n")


def test_long_cycle_needs_no_recursion():
    # about 1,100 cuts, beyond the interpreter's default recursion limit
    Q = _three_ear_cycle(1100)
    cls = classify_realizability(Q)
    assert cls.kind == "annulus" and len(cls.cut_trace) == 1098
    assert quiddity_of(cls.witness).A == Q.A


def test_ten_thousand_cuts_classify():
    # ears at random places and ears all at the tail, where every cut's
    # right flank is position 1 and a multiset holds about n entries
    for at_tail in (False, True):
        Q = _three_ear_cycle(10_000, at_tail)
        cls = classify_realizability(Q)
        assert cls.kind == "annulus" and len(cls.cut_trace) == 9_998
        assert quiddity_of(cls.witness).A == Q.A


def test_every_short_cycle_classifies():
    # every cycle of length 1-3 over the 19 multisets of 1-3 sizes from
    # {3, 4, 5}: each gets a verdict, and every realizable one a witness
    # that passes classification's post-condition, with no internal error
    sets = [ms for k in (1, 2, 3)
            for ms in combinations_with_replacement((3, 4, 5), k)]
    kinds = Counter()
    for n in (1, 2, 3):
        for A in product(sets, repeat=n):
            kinds[classify_realizability(quiddity_new(A)).kind] += 1
    assert sum(kinds.values()) == 19 + 19 ** 2 + 19 ** 3
    assert set(kinds) == {"polygon", "punctured_disc", "annulus",
                          "quotient_annulus", "unrealizable"}, kinds


def test_short_cycle_census_by_positivity():
    # verdict x (positive, finite) over the same 7,239 cycles, the table of
    # README "Positivity": every polygon, disc and annulus frieze is
    # positive; the nonpositive infinite ones all have s_1 < 2
    sets = [ms for k in (1, 2, 3)
            for ms in combinations_with_replacement((3, 4, 5), k)]
    census = Counter()
    for n in (1, 2, 3):
        for A in product(sets, repeat=n):
            Q = quiddity_new(A)
            F = FriezeTable(Q)
            positive = check_positivity(F).kind == "provably_positive"
            if not positive and F.width is None:
                assert sign_of(F.trace() - Q.context.from_int(2)) < 0, A
            census[classify_realizability(Q).kind, positive,
                   F.width is not None] += 1
    assert census == {
        ("polygon", True, True): 1,
        ("punctured_disc", True, False): 20,
        ("annulus", True, False): 1762,
        ("quotient_annulus", True, False): 1231,
        ("quotient_annulus", True, True): 11,
        ("quotient_annulus", False, False): 3,
        ("unrealizable", True, False): 3578,
        ("unrealizable", True, True): 61,
        ("unrealizable", False, False): 560,
        ("unrealizable", False, True): 12,
    }


def test_positive_frieze_need_not_be_realizable():
    Q = quiddity_new([(3,), (3, 4, 5)])
    assert check_positivity(FriezeTable(Q)).kind == "provably_positive"
    assert classify_realizability(Q).kind == "unrealizable"
