"""An exhaustive dissection oracle for the classifier's verdicts.

Every dissection with faces of sizes 3, 4 and 5 is listed for the
polygons with n <= 9 (the dissected polygons of Holm and Jørgensen, the
ground truth for the polygon part), the punctured discs with n <= 5 and
the annuli with n + m <= 6.  The search backtracks over sets of pairwise
non-crossing arcs: diagonals, bridges with shift 0 or 1 (every class up
to Dehn twist has such a representative), arcs to the puncture and
peripheral arcs.  ``Dissection`` refuses the sets that do not tile the
surface.  Each outer quiddity found must classify with the kind of its
surface.

The converse runs on the short cycles, those of length 1-3 over the
multisets of one to three sizes from {3, 4, 5}, restricted to the cycles
whose every realization the search lists.  A polygon or a punctured disc
realizing a short cycle has n <= 3.  For an annulus, the faces satisfy
sum (p_f - 2) = n + m (Euler), and each face holds an outer corner where
its size is counted, so n + m <= S - 2c, where S is the sum of the
cycle's sizes and c the number of its outer corners.  A cycle with
S - 2c <= 6 is covered, and it is found by the search exactly when it
classifies ``polygon``, ``punctured_disc`` or ``annulus``; in particular
no ``unrealizable`` or ``quotient_annulus`` verdict is found.  The finite
friezes with a quotient verdict unroll to 8-, 9- and 12-gon cycles; the
ones with n <= 9 are not the quiddity of any dissected polygon.

Quotient dissections are listed the same way: every single
identification ``make_quotient`` accepts on the annulus dissections above.
No quotient outer cycle classifies ``unrealizable`` or ``polygon``.  The
converse is checked on the short ``quotient_annulus`` cycles with
S - 2c <= 6, which are all found, but it is not proved complete: the
Euler bound holds for ordinary annuli, and a quotient counts identified
corners once, so a short quotient cycle may need a larger annulus or more
than one identification.

Limits: the search shares the arc model, the face sweep and the corner
count with ``artifact.surface``, so what is independent of the classifier
is the search, not the surface model.  The search itself is checked on
the polygons, where its arc sets are counted by the Kirkman-Cayley numbers.
"""

from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from artifact import (Arc, Dissection, FriezeTable, annulus,
                      check_positivity, classify_realizability,
                      make_quotient, polygon, punctured_disc, quiddity_new,
                      quiddity_of)
from artifact import realize
from artifact.surface import chords_cross

KIND = {"polygon": "polygon", "disc": "punctured_disc", "annulus": "annulus"}

TOP = 10 ** 6     # the top line's place on the strip window's boundary


def _place(arc, k, n, m):
    """The ends of lift k of an arc, as places along the boundary of a
    strip window: the bottom line rightward, then the top line leftward,
    with the puncture past both."""
    x = arc.a - 1 + k * n
    if arc.kind == "bridge":
        return x, TOP - (arc.b - 1 + (arc.shift + k) * m)
    if arc.kind == "bridge_disc":
        return x, 2 * TOP
    return x, arc.b - 1 + k * n + (n if arc.b <= arc.a else 0)


def _crosses(s, u, v):
    if s.kind == "polygon":
        return chords_cross(u.a, u.b, v.a, v.b)
    # lifts more than two periods apart do not meet, and lift k of v
    # crosses lift 0 of u when lift -k of u crosses lift 0 of v
    p, q = _place(u, 0, s.n, s.m)
    return any(chords_cross(p, q, *_place(v, k, s.n, s.m))
               for k in range(-2, 3))


def _candidates(s):
    n, m = s.n, s.m
    if s.kind == "polygon":
        return [Arc("diag", a, b) for a in range(1, n + 1)
                for b in range(a + 2, n + 1) if (a, b) != (1, n)]
    peri = [Arc("peri", a, b) for a in range(1, n + 1)
            for b in range(1, n + 1) if (b - a) % n != 1]
    if s.kind == "disc":
        return [Arc("bridge_disc", a) for a in range(1, n + 1)] + peri
    return [Arc("bridge", a, b, t) for a in range(1, n + 1)
            for b in range(1, m + 1) for t in (0, 1)] + peri


def arc_sets(s):
    """Every set of pairwise non-crossing candidate arcs of s that is not
    too large to be a dissection's: a face has size >= 3, so a polygon has
    at most n - 3 arcs, a disc n and an annulus n + m."""
    arcs = _candidates(s)
    most = s.n - 3 if s.kind == "polygon" else s.n + s.m
    apart = [[not _crosses(s, u, v) for v in arcs] for u in arcs]
    chosen = []

    def walk(start):
        yield [arcs[i] for i in chosen]
        if len(chosen) == most:
            return
        for i in range(start, len(arcs)):
            if all(apart[i][j] for j in chosen):
                chosen.append(i)
                yield from walk(i + 1)
                chosen.pop()

    return walk(0)


def dissections(s):
    """Every dissection of s with faces of sizes 3, 4 and 5."""
    for arcs in arc_sets(s):
        try:
            D = Dissection(s, arcs)
        except ValueError:
            continue
        if all(f.size <= 5 for f in D.base_faces):
            yield D


def surfaces():
    return ([polygon(n) for n in range(3, 10)]
            + [punctured_disc(n) for n in range(1, 6)]
            + [annulus(n, m) for n in range(1, 6) for m in range(1, 7 - n)])


def outer_quiddities():
    """Each outer quiddity of the search, with the kind of its surface."""
    found = {}
    for s in surfaces():
        for D in dissections(s):
            A = quiddity_of(D).A
            if s.kind == "annulus":
                S, c = sum(map(sum, A)), sum(map(len, A))
                assert s.n + s.m <= S - 2 * c, (s, A)
            assert found.setdefault(A, s.kind) == s.kind, A
    return found


SHORT = [A for n in (1, 2, 3)
         for A in product([ms for k in (1, 2, 3) for ms in
                           combinations_with_replacement((3, 4, 5), k)],
                          repeat=n)]


@pytest.fixture(scope="module")
def found():
    return outer_quiddities()


def test_the_polygon_search_lists_every_dissected_polygon_once():
    """Without its face-size filter, the search lists the sets of k
    pairwise non-crossing diagonals of an n-gon, and there are C(n-3, k)
    C(n+k-1, k) / (k+1) of them (Kirkman and Cayley; Przytycki and Sikora
    2000): 1, 3, 11, 45, 197, 903 and 4,279 in all for n = 3-9.  Each is
    a dissection, so ``Dissection`` must accept it."""
    total = 0
    for n in range(3, 10):
        counts, seen = Counter(), set()
        for arcs in arc_sets(polygon(n)):
            Dissection(polygon(n), arcs)
            counts[len(arcs)] += 1
            seen.add(frozenset(arcs))
        assert counts == {k: comb(n - 3, k) * comb(n + k - 1, k) // (k + 1)
                          for k in range(n - 2)}, n
        assert len(seen) == counts.total()
        total += len(seen)
    assert total == 5439


def test_every_dissection_classifies_with_its_surface_kind(found):
    for A, kind in found.items():
        assert classify_realizability(quiddity_new(A)).kind == KIND[kind], A
    assert Counter(found.values()) == {"polygon": 5049, "disc": 802,
                                       "annulus": 3556}


def test_a_covered_short_cycle_is_found_iff_it_is_ordinary(found):
    verdicts = Counter()
    for A in SHORT:
        if sum(map(sum, A)) - 2 * sum(map(len, A)) > 6:
            continue
        kind = classify_realizability(quiddity_new(A)).kind
        present = A in found
        assert present == (kind in KIND.values()), (A, kind)
        verdicts[kind] += 1
    assert verdicts == {"polygon": 1, "punctured_disc": 5, "annulus": 13,
                        "quotient_annulus": 14, "unrealizable": 123}


def test_no_polygon_realizes_an_unrolled_finite_quotient_frieze(found):
    unrolled = set()
    for A in SHORT:
        Q = quiddity_new(A)
        w = FriezeTable(Q).width
        if (w is None
                or classify_realizability(Q).kind != "quotient_annulus"):
            continue
        g = next(g for g in range(1, Q.n + 1) if A[g:] + A[:g] == A)
        unrolled.add(A[:g] * ((w + 3) // g))
    assert sorted(map(len, unrolled)) == [8, 8, 9, 9, 9] + [12] * 6
    for U in unrolled:
        if len(U) <= 9:
            assert U not in found, U


def single_glue_quotients(D):
    """Every quotient that one identification makes on an annulus
    dissection.  A glue (a, b, delta) joins lifts delta periods apart at a
    shared outer vertex, so |delta| n is at most the spread of the bottom
    coordinates."""
    xs = [x for f in D.base_faces for x in f.bottom_coords()]
    reach = (max(xs) - min(xs)) // D.surface.n
    for a, b in combinations_with_replacement(range(len(D.base_faces)), 2):
        glues = [(a, b, d) for d in range(-reach, reach + 1)
                 if d or a != b] + ([(a, b)] if a != b else [])
        for glue in glues:
            try:
                yield make_quotient(D, [glue])
            except ValueError:
                continue


def quotient_outer_cycles():
    """The number of single-glue quotients of the annulus dissections of the
    search, and their distinct outer quiddities."""
    built, cycles = 0, set()
    for s in surfaces():
        if s.kind != "annulus":
            continue
        for D in dissections(s):
            for QD in single_glue_quotients(D):
                built += 1
                cycles.add(quiddity_of(QD).A)
    return built, cycles


def verdicts(cycles):
    return Counter(classify_realizability(quiddity_new(A)).kind
                   for A in cycles)


@pytest.fixture(scope="module")
def quotient_found():
    return quotient_outer_cycles()


def test_no_quotient_cycle_classifies_unrealizable_or_polygon(quotient_found):
    built, cycles = quotient_found
    assert (built, len(cycles)) == (10785, 1485)
    assert verdicts(cycles) == {"quotient_annulus": 647, "punctured_disc": 474,
                                "annulus": 364}
    nonpositive = {A for A in cycles
                   if check_positivity(FriezeTable(quiddity_new(A))).kind
                   != "provably_positive"}
    assert len(nonpositive) == 44
    assert verdicts(nonpositive) == {"quotient_annulus": 44}
    assert {((5,), (5,), (4, 5)), ((5,), (4, 5), (5,)),
            ((4, 5), (5,), (5,))} <= nonpositive


def test_the_covered_short_quotient_cycles_are_found(quotient_found):
    cycles = quotient_found[1]
    quotients = [A for A in SHORT if classify_realizability(
        quiddity_new(A)).kind == "quotient_annulus"]
    covered = [A for A in quotients
               if sum(map(sum, A)) - 2 * sum(map(len, A)) <= 6]
    assert len(covered) == 14
    assert all(A in cycles for A in covered)
    assert (len(quotients), sum(A in cycles for A in quotients)) == (1245, 113)


def test_quotient_oracle_catches_refused_quotients(quotient_found,
                                                   monkeypatch):
    """A mutant that turns no_valid_choice into an unrealizable verdict."""
    classify = realize._classify

    def mutant(Q):
        cls, core, steps = classify(Q)
        if cls.kind == "quotient_annulus":
            cls = realize.Classification("unrealizable",
                                         reason="no_valid_choice",
                                         cut_trace=cls.cut_trace)
        return cls, core, steps

    monkeypatch.setattr(realize, "_classify", mutant)
    assert verdicts(quotient_found[1]) == {"unrealizable": 647,
                                           "punctured_disc": 474,
                                           "annulus": 364}
