"""Assembled faces against the faces swept from the arcs.

Classification finds no face from arcs.  ``realize._construct`` reads the
faces of a skeletal core off its layout: consecutive bridge ends (a, y),
(b, w) bound the face from v_a to v_b along the bottom, then from w down
to y along the top, or through the puncture of a disc; a constant core's
polygon is its one face.  The arcs of a core are still checked for
duplicates, boundary parallels and crossings.  ``glue_ears`` moves the
faces of the dissection it glues onto by its vertex map and adds one
face per ear, and ``dissection_power`` translates the base faces k times.
A build from arcs alone, ``Dissection(surface, arcs)``, is the path for
parsed input: it sweeps the boundary positions of the arc lifts once,
with a stack of open chords, each holding the face under it.  That build
is the oracle here, and "walked" in the names below means it:
every core of the layout differential's cycles and every witness must
have its faces and corner tables, and a quotient's glue must name the
same faces as when every build finds its faces from its arcs.  The
sweep itself is checked against the dart walk in
``test_face_walk_differential``.
"""

import json
import random
from collections import Counter
from itertools import product
from unittest import mock

import pytest

from artifact import (classify_realizability, dissection_power,
                      format_dissection, glue_ear, glue_ears,
                      parse_dissection_text, polygon, quiddity_new,
                      rotate_dissection, witness_nonuniqueness_probe)
from artifact.suites import random_quotient_cycle
from artifact.realize import (_classify, _classify_core, _construct,
                              _fewest_clashes, all_pchoices)
from artifact.surface import Dissection

from golden.record import CASES, run_case
from test_annulus_layout_differential import _multisets
from test_dissection_oracle import SHORT
from test_glue_ears_differential import CORES, ear_glued


def walked(surface, arcs, *faces):
    """The build of the arcs alone, which sweeps for its faces."""
    return Dissection(surface, arcs)


def by_walk(make, *args):
    """make(*args) with every build finding its faces from its arcs."""
    with mock.patch.object(Dissection, "_assemble",
                           classmethod(lambda cls, *a: walked(*a))):
        return make(*args)


def assert_walked(W, make=None, *args):
    """W has the walked faces and corners of its arcs; with ``make``, W is
    make(*args) and equals it built by the walk, glue included."""
    base = W.base
    ref = walked(base.surface, base.arcs)
    assert base.base_faces == ref.base_faces
    assert base.outer_corners == ref.outer_corners
    assert base.inner_corners == ref.inner_corners
    if make is not None:
        R = by_walk(make, *args)
        assert R.base.base_faces == base.base_faces
        assert R.is_quotient() == W.is_quotient()
        if W.is_quotient():
            assert R.trace == W.trace


def classified(name, rng, sizes=(3, 4, 5, 6)):
    Q = ear_glued(CORES[name][0], rng.randint(8, 40), rng, sizes)
    return Q, _classify(Q)[0].witness


@pytest.mark.parametrize("name", sorted(CORES))
def test_classified_witnesses(name):
    rng = random.Random(name)
    for _ in range(8):
        Q, W = classified(name, rng)
        assert_walked(W, lambda: _classify(Q)[0].witness)
        assert W.is_quotient() == (CORES[name][1] == "quotient_annulus")


def test_random_quotient_cores_with_mixed_ears():
    rng = random.Random(23)
    for _ in range(12):
        core, _cls = random_quotient_cycle(rng)
        Q = ear_glued(core.A, core.n + rng.randint(3, 20), rng, (3, 4, 5, 6))
        W = _classify(Q)[0].witness
        assert W.is_quotient()
        assert_walked(W, lambda: _classify(Q)[0].witness)


def test_probe_witnesses():
    rng = random.Random(5)
    probed = 0
    for name in ("disc-33", "disc-44-4", "annulus-readme"):
        for _ in range(3):
            Q = ear_glued(CORES[name][0], rng.randint(10, 30), rng)
            got = witness_nonuniqueness_probe(Q)
            want = by_walk(witness_nonuniqueness_probe, Q)
            assert len(got) == len(want)
            for W, R in zip(got, want):
                assert_walked(W)
                assert W.base_faces == R.base_faces
            probed += len(got)
    assert probed > 9


@pytest.mark.parametrize("name", sorted(CORES))
def test_ears_glued_onto_ears_and_rotations(name):
    rng = random.Random("onto-" + name)
    _Q, W = classified(name, rng)
    n = W.surface.n
    # every edge, the ears' own edges and the seam's included
    for g in range(1, n + 1):
        p = rng.randint(3, 6)
        E = glue_ear(W, g, p)
        assert_walked(E, glue_ear, W, g, p)
        # an ear on the new ear's first edge, and one across the seam
        for h in (g + 1, E.surface.n):
            assert_walked(glue_ear(E, h, 3), glue_ear, E, h, 3)
    # rotations by more than a period either way move faces across v_1
    for r in range(-n - 1, 2 * n + 2):
        assert_walked(rotate_dissection(W, r), rotate_dissection, W, r)


def test_composed_steps():
    rng = random.Random(41)
    for name in sorted(CORES):
        _Q, W = classified(name, rng)
        n = W.surface.n
        steps = []
        for _ in range(rng.randint(2, 6)):
            p = rng.randint(3, 6)
            steps.append((rng.randint(1, n), p, rng.randint(-2 * n, 2 * n)))
            n += p - 2
        assert_walked(glue_ears(W, steps), glue_ears, W, steps)


@pytest.mark.parametrize("name", ["disc-33", "disc-44-4", "annulus-readme"])
def test_powers(name):
    rng = random.Random("power-" + name)
    for _ in range(3):
        _Q, W = classified(name, rng)
        for k in (2, 3, 4):
            assert_walked(dissection_power(W, k), dissection_power, W, k)


def layouts(sizes=((1, 5), (2, 5), (3, 3))):
    """Every gap-size assignment, valid or not, of the cycles of the annulus
    layout differential: length n over multisets of at most ``most`` sizes
    from {3, 4, 5}, with an anchor."""
    for n, most in sizes:
        for A in product(_multisets(most), repeat=n):
            if any(len(a) > 1 for a in A):
                Q = quiddity_new(A)
                for pchoice in all_pchoices(Q):
                    yield Q, pchoice


def unwalked_cores(cases):
    """The cases whose ``_construct`` witness differs from the walked build
    of its arcs or is refused by the assembly, and a count of the witnesses
    by kind."""
    bad, kinds = [], Counter()
    for Q, pchoice in cases:
        try:
            kind, D = _construct(Q, pchoice)
        except ValueError as exc:     # only the layout may refuse
            if not str(exc).startswith(("gap-size assignment incompatible",
                                        "cycle is not skeletal at")):
                bad.append((Q.A, pchoice))
            continue
        kinds[kind] += 1
        try:
            assert_walked(D)
        except AssertionError:
            bad.append((Q.A, pchoice))
    return bad, kinds


def test_cores_have_the_walked_faces():
    bad, kinds = unwalked_cores(layouts())
    assert not bad
    assert kinds == {"annulus": 5757, "disc": 11}


def test_random_cores_have_the_walked_faces():
    rng = random.Random(31)
    cases = []
    for _ in range(3000):
        Q = quiddity_new([tuple(sorted(rng.choice((3, 4, 5, 6)) for _ in
                                       range(rng.randint(1, 4))))
                          for _ in range(rng.randint(1, 6))])
        if any(len(a) > 1 for a in Q.A):
            try:
                pchoice, _bad = _fewest_clashes(Q)
            except ValueError:
                continue              # a gap has no candidate
            cases.append((Q, pchoice))
    bad, kinds = unwalked_cores(cases)
    assert not bad
    assert sum(kinds.values()) > 100, kinds


def test_constant_core_polygons_have_the_walked_face():
    for n in range(3, 13):
        W = _classify_core(quiddity_new([(n,)] * n)).witness
        assert W.surface == polygon(n)
        assert_walked(W)


def test_a_reversed_top_run_fails_the_oracle(monkeypatch):
    assemble = Dissection._assemble

    def reversed_top(cls, surface, arcs, faces):
        faces = [tuple(v for v in f if v[0] != "t")
                 + tuple(reversed([v for v in f if v[0] == "t"]))
                 for f in faces]
        return assemble(surface, arcs, faces)

    monkeypatch.setattr(Dissection, "_assemble", classmethod(reversed_top))
    bad, _kinds = unwalked_cores(layouts(((1, 5), (2, 3))))
    assert bad


def test_classification_walks_no_face(monkeypatch):
    def refuse(self):
        raise AssertionError("classification swept a face")

    monkeypatch.setattr(Dissection, "_compute_faces", refuse)
    kinds = Counter(classify_realizability(quiddity_new(A)).kind
                    for A in SHORT)
    assert kinds == {"unrealizable": 4211, "annulus": 1762,
                     "quotient_annulus": 1245, "punctured_disc": 20,
                     "polygon": 1}
    with open(CASES) as fh:
        cases = [c for c in json.load(fh) if c["argv"][0] == "classify"]
    assert len(cases) == 29
    for case in cases:
        assert run_case(case["argv"]) == (case["exit"], case["stdout"],
                                          case["stderr"]), case["name"]
    Q = ear_glued(CORES["annulus-readme"][0], 40, random.Random(40))
    cls = classify_realizability(Q)
    assert cls.kind == "annulus" and cls.witness.surface.n == 40
    with pytest.raises(AssertionError, match="swept"):
        Dissection(polygon(3), [])


@pytest.mark.parametrize("n", [400, 4000])
def test_parsed_witnesses_at_scale_equal_their_assembly(n):
    """Both builders at once: the parse of a large assembled witness's text
    sweeps the faces and corners the assembly gave it."""
    rng = random.Random(n)
    for core, kind in ((CORES["annulus-readme"][0], "annulus"),
                       (CORES["disc-33"][0], "punctured_disc"),
                       ([(3,)] * 3, "polygon")):
        cls = classify_realizability(ear_glued(core, n, rng))
        W = cls.witness
        assert (cls.kind, W.surface.n) == (kind, n)
        P = parse_dissection_text(format_dissection(W))
        assert P.base_faces == W.base_faces
        assert P.outer_corners == W.outer_corners
        assert P.inner_corners == W.inner_corners
