"""One-shot ear assembly against the per-cut chain it replaces.

``glue_ears`` composes every ear insertion and relabelling into one vertex
map and builds the dissection once.  The reference is the chain of
``glue_ear`` then ``rotate_dissection`` per step, which rebuilds the
dissection twice per ear; both must print the same dissection text, byte
for byte.
"""

import random

import pytest

from artifact import (cut, format_dissection, glue, glue_ear, glue_ears,
                      parse_dissection_text, quiddity_new, quiddity_of,
                      rotate_dissection, valid_pchoices,
                      witness_nonuniqueness_probe)
from artifact.cli import (random_polygon_dissection, random_quotient_cycle,
                          random_witness)
from artifact.realize import _classify, _classify_core, _construct

from conftest import ANNULUS_334_TEXT


def chain(D, steps):
    for g, p, r in steps:
        D = rotate_dissection(glue_ear(D, g, p), r)
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
