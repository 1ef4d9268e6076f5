"""The one-period face walk against the strip-window walk it replaces.

``Dissection`` walks the faces of a disc or annulus on the surface itself,
one orbit of the face permutation per face.  The reference lifts every arc
into a window of 2*4 + 1 bottom periods, walks all faces of that convex
chord diagram, drops the faces cut by the two closing edges of the window
and keeps one translate of each of the rest.  Both must give the same
faces, in the same order, the same corner tables and corner choices, or
raise the same ``ValueError`` message.
"""

import functools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact import (Arc, annulus, dissection_power, glue_ears,
                      parse_dissection_text, punctured_disc, rotate_dissection)
from artifact import surface as surface_module
from artifact.cli import random_quotient_cycle, random_witness
from artifact.realize import _classify
from artifact.surface import (Dissection, Face, _INF, _faces_of_chord_diagram,
                              _translate_vertex, _vertex_sort_key)

from conftest import ANNULUS_334_TEXT
from test_glue_ears_differential import ear_glued

WINDOW = 4


def _rotate_min(seq):
    """Lexicographically smallest rotation of a cyclic tuple."""
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


class WindowDissection(Dissection):
    """A dissection whose disc or annulus faces come from a strip window."""

    def _compute_faces(self):
        s = self.surface
        if s.kind == "polygon":
            return super()._compute_faces()
        n, m = s.n, s.m
        x_lo, x_hi = -WINDOW * n, (WINDOW + 1) * n - 1
        if s.kind == "annulus":
            # top range strictly wider than any chord can reach, so the
            # closing edges never coincide with a chord
            y_lo, y_hi = -(WINDOW + 1) * m, (WINDOW + 3) * m - 1
            top = [("t", y) for y in range(y_hi, y_lo - 1, -1)]
        else:
            y_lo = y_hi = 0
            top = [_INF]
        bottom = [("b", x) for x in range(x_lo, x_hi + 1)]
        artificial = {frozenset({bottom[-1], top[0]}),
                      frozenset({top[-1], bottom[0]})}
        # chords touching the extreme bottom columns are dropped; the
        # truncated regions reach the closing edges and are filtered
        chords = self._chord_lifts(x_lo + 1, x_hi - 1, y_lo, y_hi)
        norm = {}
        for f in _faces_of_chord_diagram(bottom + top, chords):
            k = len(f)
            if any(frozenset({f[i], f[(i + 1) % k]}) in artificial
                   for i in range(k)):
                continue
            xs = [v[1] for v in f if v[0] == "b"]
            if not xs:
                raise ValueError("face with no outer-boundary vertex")
            t = min(xs) // n
            nf = tuple(_translate_vertex(v, -t, n, m) for v in f)
            norm[_rotate_min(nf)] = nf
        keys = sorted(norm, key=lambda vs: (len(vs), [_vertex_sort_key(v) + v
                                                      for v in vs]))
        self.base_faces = [Face(i, norm[k]) for i, k in enumerate(keys)]
        for f in self.base_faces:
            if f.size < 3:
                raise ValueError("dissection produces a face of size < 3")
        self._index_corners()


def outcome(cls, surface, arcs):
    """Faces, corner tables and corner choices over three periods of the
    dissection ``cls`` builds, or its error message."""
    try:
        D = cls(surface, arcs)
    except ValueError as exc:
        return "error: %s" % exc
    n, m = surface.n, surface.m
    choices = [D.corner_choices(g) for g in range(-n, 2 * n)]
    if m:
        choices += [D.corner_choices(g, "inner") for g in range(-m, 2 * m)]
    return (D.base_faces, D.outer_corners, D.inner_corners, choices)


def assert_same(D):
    """The walk and the window agree on the base dissection of D."""
    base = D.base
    got = outcome(Dissection, base.surface, base.arcs)
    assert got == outcome(WindowDissection, base.surface, base.arcs)
    assert not isinstance(got, str)


@functools.lru_cache(maxsize=None)
def seeded_witnesses():
    """38 witnesses: the README annulus, 20 random disc or annulus
    witnesses, 8 quotient witnesses and 9 witnesses of ear-glued cores."""
    rng = random.Random(29)
    out = [parse_dissection_text(ANNULUS_334_TEXT)]
    for _ in range(20):
        out.append(random_witness(rng, ("punctured_disc", "annulus"))[1]
                   .witness)
    for _ in range(8):
        out.append(random_quotient_cycle(rng)[1].witness)
    # random witnesses are nearly all annuli, so discs come from ear-glued
    # disc cores
    cores = ([(3, 3)], [(4, 4), (4,)], [(3, 3, 4), (3,), (3, 3, 4, 4)])
    for k in range(9):
        Q = ear_glued(cores[k % 3], rng.randint(4, 40), rng)
        out.append(_classify(Q)[0].witness)
    assert len(out) == 38
    return out


@pytest.mark.parametrize("idx", range(38))
def test_witnesses_squares_rotations_and_ears(idx):
    rng = random.Random(idx)
    D = seeded_witnesses()[idx]
    assert_same(D)
    n = D.base.surface.n
    if not D.is_quotient():
        assert_same(dissection_power(D, 2))
    assert_same(rotate_dissection(D, rng.randint(1, 2 * n)))
    steps = [(rng.randint(1, n), rng.randint(3, 5), rng.randint(0, n))]
    assert_same(glue_ears(D, steps))


def test_single_vertex_boundaries_and_one_bridge():
    cases = [
        (punctured_disc(1), [Arc("bridge_disc", 1)]),
        (punctured_disc(1), [Arc("bridge_disc", 1), Arc("peri", 1, 1)]),
        (punctured_disc(4), [Arc("bridge_disc", 3)]),
        (punctured_disc(5), [Arc("bridge_disc", 2), Arc("peri", 3, 1)]),
        (annulus(1, 1), [Arc("bridge", 1, 1, 0)]),
        (annulus(1, 1), [Arc("bridge", 1, 1, 0), Arc("bridge", 1, 1, 1)]),
        (annulus(1, 3), [Arc("bridge", 1, 2, 1)]),
        (annulus(3, 1), [Arc("bridge", 2, 1, 0), Arc("peri", 2, 2)]),
        (annulus(2, 2), [Arc("bridge", 1, 1, 0), Arc("peri", 1, 1)]),
    ]
    for surface, arcs in cases:
        got = outcome(Dissection, surface, arcs)
        assert got == outcome(WindowDissection, surface, arcs)


def random_arcs(rng, kind):
    """An arc soup: any number of peripheral and bridging arcs, crossing
    or not."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 4) if kind == "annulus" else 0
    arcs = set()
    for _ in range(rng.randint(1, 2 * n + 2)):
        a = rng.randint(1, n)
        if rng.random() < 0.4:
            b = rng.randint(1, n)
            if (b - a) % n != 1 or n == 1:
                arcs.add(Arc("peri", a, b))
        elif kind == "annulus":
            arcs.add(Arc("bridge", a, rng.randint(1, m), rng.randint(0, 1)))
        else:
            arcs.add(Arc("bridge_disc", a))
    surface = annulus(n, m) if kind == "annulus" else punctured_disc(n)
    return surface, sorted(arcs)


@pytest.mark.parametrize("kind", ["annulus", "disc"])
def test_random_arc_soups(kind):
    rng = random.Random(kind)
    valid = 0
    for _ in range(600):
        surface, arcs = random_arcs(rng, kind)
        got = outcome(Dissection, surface, arcs)
        assert got == outcome(WindowDissection, surface, arcs), (surface, arcs)
        valid += not isinstance(got, str)
    # both valid dissections and refused soups are exercised
    assert 50 < valid < 550


LINES = st.one_of(
    st.tuples(st.just("peri"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("bridge"), st.integers(0, 6), st.integers(0, 4),
              st.integers(-1, 2)),
    st.tuples(st.just("bridge-disc"), st.integers(0, 6)),
).map(lambda t: " ".join(str(x) for x in t))


def parsed(text, cls):
    """``outcome`` of the dissection text, parsed with ``cls`` in place of
    ``Dissection``."""
    with mock.patch.object(surface_module, "Dissection", cls):
        try:
            D = surface_module.parse_dissection_text(text)
        except ValueError as exc:
            return "error: %s" % exc
    return outcome(cls, D.surface, D.arcs)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["annulus", "disc"]), st.integers(1, 5),
       st.integers(1, 4), st.lists(LINES, max_size=9))
def test_parsed_dissections_match_the_window(kind, n, m, lines):
    header = "annulus %d %d" % (n, m) if kind == "annulus" else "disc %d" % n
    text = "\n".join([header] + lines)
    assert parsed(text, Dissection) == parsed(text, WindowDissection)
