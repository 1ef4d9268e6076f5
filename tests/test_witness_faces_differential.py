"""Assembled faces against the face walk.

``glue_ears`` does not walk the faces of the dissection it builds: it moves
the faces of the dissection it glues onto by its vertex map and adds one
face per ear, and ``dissection_power`` translates the base faces k times.
The walk, ``Dissection(surface, arcs)``, stays the path for parsed input
and for skeletal cores, and is the oracle here: every witness must have
the walked build's faces and corner tables, and a quotient's glue must
name the same faces as when every build walks.
"""

import random
from unittest import mock

import pytest

from artifact import (dissection_power, glue_ear, glue_ears,
                      rotate_dissection, witness_nonuniqueness_probe)
from artifact.cli import random_quotient_cycle
from artifact.realize import _classify
from artifact.surface import Dissection

from test_glue_ears_differential import CORES, ear_glued


def walked(surface, arcs, faces=None):
    return Dissection(surface, arcs)


def by_walk(make, *args):
    """make(*args) with every build walking its faces."""
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


def test_an_ear_glued_cycle_walks_its_core_alone(monkeypatch):
    walk = Dissection._walk_faces
    walked_sizes = []

    def counting(self):
        walked_sizes.append(self.surface.n)
        return walk(self)

    monkeypatch.setattr(Dissection, "_walk_faces", counting)
    Q = ear_glued(CORES["annulus-readme"][0], 40, random.Random(40))
    cls, core, steps = _classify(Q)
    assert cls.kind == "annulus" and cls.witness.surface.n == 40 and steps
    # the core's builds walk; the glued witness is assembled
    assert walked_sizes and set(walked_sizes) == {core.n}
