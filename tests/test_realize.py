"""Realizability classification: the 2-periodic verdict table, cut traces,
skeletal and quotient constructions, and witness round-trips."""

from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from artifact import (FriezeTable, classify_realizability, format_dissection,
                      glue, growth_coefficient, polygon, quiddity_new, quiddity_of,
                      quotient_realize, skeletal_realize, sign_of,
                      valid_pchoices, witness_nonuniqueness_probe)
from conftest import random_disc


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
    from artifact.cli import random_witness
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


def test_skeletal_coverage_random(rng):
    # every skeletal cycle passing the quiddity-level test classifies as
    # realizable (possibly by a quotient), never unrealizable
    from artifact import is_skeletal_quiddity, realizability_test
    from artifact.cli import random_quiddity
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
    from artifact.cli import random_quotient_cycle
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
