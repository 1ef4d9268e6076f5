"""One relabelling map against the per-step relabellings it replaces.

``glue_ears`` composes every ear insertion and relabelling into one vertex
map and builds the dissection once; ``glue_ear`` and ``rotate_dissection``
are its one-step forms.  The reference glues one ear and rotates one
dissection with their own arc loops and quotient branches, and chains
them per step, which rebuilds the dissection twice per ear; all must print
the same dissection text, byte for byte, or raise the same error.
"""

import functools
import random

import pytest

from artifact import (Arc, Dissection, Surface, classify_realizability, cut,
                      format_dissection, glue, glue_ear, glue_ears,
                      parse_dissection_text, quiddity_new, quiddity_of,
                      rotate_dissection, valid_pchoices,
                      witness_nonuniqueness_probe)
from artifact.suites import (random_polygon_dissection,
                             random_quotient_cycle, random_witness)
from artifact import realize
from artifact.realize import _classify, _classify_core, _construct
from artifact.surface import QuotientDissection, _normal_face

from conftest import ANNULUS_334_TEXT


def _requote(D, new, move):
    """The quotient D carried over to the base ``new``, whose faces are
    those of D.base with every vertex moved by ``move``: each face is found
    again by its vertex cycle from the leftmost bottom vertex, and a
    single-offset relation (a, b, d) identifying lift (a, 0) with lift
    (b, d) becomes (a', b', d + t_b - t_a), where t is the period shift of
    a face's canonical representative."""
    n, m = new.surface.n, new.surface.m
    lookup = {f.verts: f.id for f in new.base_faces}

    def map_face(fid):
        key, t = _normal_face([move(v) for v in D.base.face(fid).verts], n, m)
        if key not in lookup:
            raise AssertionError("face lost while relabelling a quotient")
        return lookup[key], t

    trace = []
    for rel in D.trace:
        (fa, ta), (fb, tb) = map_face(rel[0]), map_face(rel[1])
        trace.append((fa, fb) if len(rel) == 2 else (fa, fb, rel[2] + tb - ta))
    return QuotientDissection(new, trace)


def reference_glue_ear(D, g, p):
    """Attach a p-ear between outer vertices g and g+1 with an arc loop of
    its own."""
    if D.is_quotient():
        new = reference_glue_ear(D.base, g, p)
        n, n2 = D.surface.n, new.surface.n

        def move(v):
            if v[0] != "b":
                return v
            k, i = divmod(v[1], n)
            return ("b", (i if i < g else i + (p - 2)) + k * n2)

        return _requote(D, new, move)
    s = D.surface
    n = s.n
    if not 1 <= g <= n:
        raise ValueError("glue position out of range")
    n2 = n + (p - 2)

    def remap(a):
        return a if a <= g else a + (p - 2)

    arcs = []
    for arc in D.arcs:
        if arc.kind in ("diag", "peri"):
            arcs.append(Arc(arc.kind, remap(arc.a), remap(arc.b)))
        else:  # bridges keep their inner end
            arcs.append(Arc(arc.kind, remap(arc.a), arc.b, arc.shift))
    ear_end = (g + p - 2) % n2 + 1
    kind = "diag" if s.kind == "polygon" else "peri"
    arcs.append(Arc(kind, g, ear_end))
    return Dissection(Surface(s.kind, n2, s.m), arcs)


def reference_rotate(D, r):
    """Relabel outer vertices so that old v_{1+r} becomes new v_1, with an
    arc loop per kind of its own."""
    if D.is_quotient():
        shift_t = _rotation_inner_offset(D.base, r)
        return _requote(D, reference_rotate(D.base, r),
                        lambda v: (v[0], v[1] - r if v[0] == "b"
                                   else v[1] + shift_t))
    s = D.surface
    n = s.n
    r %= n
    if r == 0:
        return D
    if s.kind in ("polygon", "disc"):
        arcs = []
        for arc in D.arcs:
            if arc.kind == "bridge_disc":
                arcs.append(Arc("bridge_disc", (arc.a - 1 - r) % n + 1))
            else:
                arcs.append(Arc(arc.kind, (arc.a - 1 - r) % n + 1,
                                (arc.b - 1 - r) % n + 1))
        return Dissection(s, arcs)
    m = s.m
    t0 = _rotation_inner_offset(D, r)
    arcs = []
    for arc in D.arcs:
        if arc.kind == "peri":
            arcs.append(Arc("peri", (arc.a - 1 - r) % n + 1,
                            (arc.b - 1 - r) % n + 1))
        else:
            x = (arc.a - 1) - r
            y = (arc.b - 1) + arc.shift * m + t0
            k = x // n
            x -= k * n
            y -= k * m
            if not 0 <= y < 2 * m:
                raise AssertionError("rotation failed to renormalize shifts")
            arcs.append(Arc("bridge", x + 1, y % m + 1, y // m))
    return Dissection(s, arcs)


def _rotation_inner_offset(D, r):
    """Inner relabeling offset making all bridging shifts land in {0,1}
    after rotating the outer labels by r."""
    n, m = D.surface.n, D.surface.m
    ys = []
    for arc in D.arcs:
        if arc.kind == "bridge":
            x = (arc.a - 1) - r
            y = (arc.b - 1) + arc.shift * m
            k = x // n
            ys.append(y - k * m)
    return -min(ys) if ys else 0


def chain(D, steps):
    for g, p, r in steps:
        D = reference_rotate(reference_glue_ear(D, g, p), r)
    return D


def assert_same_assembly(D, steps):
    """glue_ears and the chain agree on D; returns the common text."""
    expected = format_dissection(chain(D, steps))
    assert format_dissection(glue_ears(D, steps)) == expected
    return expected


def ear_glued(core, n, rng, sizes=(3, 4, 5)):
    Q = quiddity_new(core)
    while Q.n < n:
        p = rng.choice(sizes)
        if Q.n + p - 2 > n:
            p = 3
        Q = glue(Q, p, rng.randint(1, Q.n))
    return Q


def check_witness(Q):
    """Q's witness is the chain's assembly over the witness of its skeletal
    core, and cutting Q along the recorded trace leads to that core."""
    cls, core, steps = _classify(Q)
    assert cls.realizable, cls.reason
    child = Q
    for start, p in cls.cut_trace:
        child = cut(child, start, p)
    assert child == core and len(steps) == len(cls.cut_trace)
    text = assert_same_assembly(_classify_core(core).witness, steps)
    assert format_dissection(cls.witness) == text
    assert quiddity_of(cls.witness).A == Q.A
    return cls


CORES = {
    "disc-33": ([(3, 3)], "punctured_disc"),
    "disc-44-4": ([(4, 4), (4,)], "punctured_disc"),
    "annulus-readme": ([(3, 3, 4), (3,), (3, 3, 4, 4)], "annulus"),
    "quotient-bench": ([(4,), (4, 5), (3, 4)], "quotient_annulus"),
    "quotient-offset": ([(4,), (4, 4), (4,), (4, 6)], "quotient_annulus"),
    "quotient-self-wrap": ([(5,), (4, 5, 6)], "quotient_annulus"),
    "polygon-triangle": ([(3,)] * 3, "polygon"),
}


@pytest.mark.parametrize("name", sorted(CORES))
def test_ear_glued_cores(name):
    core, kind = CORES[name]
    rng = random.Random(name)
    for _ in range(6):
        Q = ear_glued(core, rng.randint(8, 40), rng)
        cls = check_witness(Q)
        assert cls.kind == kind and cls.cut_trace


def test_random_quotient_cycles_with_ears():
    rng = random.Random(7)
    for _ in range(12):
        core, _cls = random_quotient_cycle(rng)
        Q = ear_glued(core.A, core.n + rng.randint(3, 20), rng)
        cls = check_witness(Q)
        assert cls.kind == "quotient_annulus"


def test_probe_witnesses_match_the_chain():
    rng = random.Random(11)
    cycles = [ear_glued([(3, 4)] * 4, n, rng) for n in (16, 24)]
    for _ in range(8):
        Q, _cls = random_witness(rng, ("punctured_disc", "annulus"))
        cycles.append(ear_glued(Q.A, 20, rng))
    probed = 0
    for Q in cycles:
        cls, core, steps = _classify(Q)
        expected = [format_dissection(chain(_construct(core, pc)[1], steps))
                    for pc in valid_pchoices(core)]
        got = [format_dissection(W) for W in witness_nonuniqueness_probe(Q)]
        assert got == expected
        for W in witness_nonuniqueness_probe(Q):
            assert quiddity_of(W).A == Q.A
        probed += len(got)
    assert probed > len(cycles)


def test_the_probe_builds_each_witness_once(monkeypatch):
    """The classification's witness is the probe's first, so the probe
    constructs each clash-free choice of the core once, that one in the
    classification."""
    built = []
    construct = realize._construct

    def counted(Q, pchoice):
        built.append(tuple(pchoice))
        return construct(Q, pchoice)

    monkeypatch.setattr(realize, "_construct", counted)
    rng = random.Random(13)
    cycles = [quiddity_new([(3, 4)] * 20)] + [
        ear_glued(CORES[name][0], 24, rng)
        for name in ("disc-33", "disc-44-4", "annulus-readme")]
    for Q in cycles:
        core = _classify(Q)[1]
        built.clear()
        got = witness_nonuniqueness_probe(Q)
        assert built == [tuple(pc) for pc in valid_pchoices(core)]
        assert format_dissection(got[0]) == format_dissection(
            classify_realizability(Q).witness)
    assert len(witness_nonuniqueness_probe(cycles[0])) == 2


def _random_steps(rng, D, count):
    """Arbitrary glue positions and rotations, including rotations by more
    than a period in either direction."""
    n = D.base.surface.n
    steps = []
    for _ in range(count):
        p = rng.randint(3, 6)
        steps.append((rng.randint(1, n), p, rng.randint(-2 * n, 2 * n)))
        n += p - 2
    return steps


def test_arbitrary_steps():
    rng = random.Random(3)
    dissections = [parse_dissection_text(ANNULUS_334_TEXT)]
    dissections += [random_polygon_dissection(rng) for _ in range(4)]
    dissections += [random_witness(rng, ("annulus",))[1].witness
                    for _ in range(4)]
    dissections += [_classify(ear_glued([(3, 3)], rng.randint(3, 12), rng))[0]
                    .witness for _ in range(4)]
    dissections += [random_quotient_cycle(rng)[1].witness for _ in range(6)]
    for D in dissections:
        for count in (1, 2, 5):
            assert_same_assembly(D, _random_steps(rng, D, count))


def test_no_steps_returns_the_dissection():
    D = parse_dissection_text(ANNULUS_334_TEXT)
    assert glue_ears(D, []) is D


def test_glue_position_out_of_range():
    D = parse_dissection_text(ANNULUS_334_TEXT)
    with pytest.raises(ValueError):
        glue_ears(D, [(4, 3, 0)])


def printed(f, *args):
    """The text of f(*args), or the type and message of its error."""
    try:
        return format_dissection(f(*args))
    except (ValueError, AssertionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@functools.lru_cache(maxsize=None)
def relabelling_corpus():
    """22 dissections: polygons, discs, annuli and quotients, plain and
    ear-glued."""
    rng = random.Random(17)
    out = [parse_dissection_text(ANNULUS_334_TEXT)]
    out += [random_polygon_dissection(rng) for _ in range(5)]
    out += [random_witness(rng, ("annulus",))[1].witness for _ in range(5)]
    out += [_classify(ear_glued(core, rng.randint(3, 14), rng))[0].witness
            for core in ([(3, 3)], [(4, 4), (4,)], [(3, 3)])]
    out += [random_quotient_cycle(rng)[1].witness for _ in range(6)]
    out += [_classify(ear_glued(CORES[name][0], rng.randint(10, 18), rng))[0]
            .witness for name in ("quotient-offset", "quotient-self-wrap")]
    assert len(out) == 22
    return out


@pytest.mark.parametrize("idx", range(22))
def test_one_step_forms_match_the_reference(idx):
    D = relabelling_corpus()[idx]
    n = D.surface.n
    for r in range(-n - 1, 2 * n + 2):
        assert printed(rotate_dissection, D, r) == printed(
            reference_rotate, D, r), r
    for g in range(0, n + 2):
        for p in range(3, 7):
            assert printed(glue_ear, D, g, p) == printed(
                reference_glue_ear, D, g, p), (g, p)
    assert printed(glue_ear, D, 0, 3) == (
        "ValueError: glue position out of range")
