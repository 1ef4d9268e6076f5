"""The face sweep against the dart walk and the chord-diagram window.

``Dissection`` finds the faces of parsed input with one sweep of the strip
boundary: the chords of the arc lifts that start in [0, 2n), sorted by
left end and outermost first, open and close on a stack, each holding the
face under it, and the faces under the chords from [0, n) are kept, plus
a polygon's outer region.  Two references find the same faces another
way.  ``walked_faces`` walks the faces on one period of the strip, one
orbit of the face permutation per face (Gross & Tucker, Topological Graph
Theory, ch. 2), and ``_normal_face`` lists each from its leftmost bottom
vertex.  The window walks a polygon's faces as a convex chord diagram
directly; for a disc or annulus it lifts every arc into a window of
2*4 + 1 bottom periods, walks all faces of that convex chord diagram,
drops the faces cut by the two closing edges of the window and keeps one
translate of each of the rest.  All three must give the same faces, in
the same order, the same corner tables and corner choices, or raise the
same ``ValueError`` message.
"""

import functools
import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact import (Arc, annulus, dissection_power, glue_ears,
                      parse_dissection_text, polygon, punctured_disc,
                      rotate_dissection)
from artifact import surface as surface_module
from artifact.suites import (random_polygon_dissection,
                             random_quotient_cycle, random_witness)
from artifact.realize import _classify
from artifact.surface import (Dissection, Face, _INF, _check_nesting,
                              _normal_face, _translate_vertex, chords_cross)

import test_dissection_oracle
from conftest import ANNULUS_334_TEXT, random_disc
from test_corner_order_differential import _rank
from golden.record import HERE as GOLDEN
from test_glue_ears_differential import ear_glued

WINDOW = 4


def _vertex_sort_key(v):
    if v[0] == "b":
        return (0, v[1])
    if v[0] == "t":
        return (1, v[1])
    return (2, 0)


def face_key(vs):
    """The order that numbers the faces: by size, then by the vertices,
    bottom before top before the puncture; ``Dissection`` sorts by
    (size, labels), which agrees on every surface."""
    return (len(vs), [_vertex_sort_key(v) + v for v in vs])


def faces_of_chord_diagram(boundary, chords):
    """Faces of a convex polygon with non-crossing chords.

    boundary: vertex labels in counterclockwise cyclic order (interior on
    the left of the forward walk).  Returns a list of faces, each a tuple
    of vertex labels in counterclockwise order, excluding the outer face.
    Raises on crossing or duplicate chords.
    """
    N = len(boundary)
    pos = {v: k for k, v in enumerate(boundary)}
    edge_set = set()
    adj = {v: [] for v in boundary}
    for k, v in enumerate(boundary):
        u = boundary[(k + 1) % N]
        edge_set.add(frozenset({u, v}))
        adj[v].append(u)
        adj[u].append(v)
    spans = []
    for (u, v) in chords:
        key = frozenset({u, v})
        if key in edge_set:
            raise ValueError("duplicate arc or arc parallel to a boundary edge")
        edge_set.add(key)
        pu, pv = pos[u], pos[v]
        spans.append((pu, -pv) if pu < pv else (pv, -pu))
        adj[u].append(v)
        adj[v].append(u)
    _check_nesting(spans)
    order = {}
    for v, nbrs in adj.items():
        pv = pos[v]
        nbrs.sort(key=lambda u: (pos[u] - pv) % N)
        order[v] = {u: k for k, u in enumerate(nbrs)}
    faces = []
    seen = set()

    def walk(u, v):
        """Trace the face on the left of the directed edge u -> v."""
        start = (u, v)
        cyc = []
        while True:
            cyc.append(u)
            seen.add((u, v))
            nbrs = adj[v]
            w = nbrs[(order[v][u] - 1) % len(nbrs)]
            u, v = v, w
            if (u, v) == start:
                break
        return tuple(cyc)

    walk(boundary[1], boundary[0])  # the outer face
    for v in boundary:
        for u in adj[v]:
            if (v, u) not in seen:
                faces.append(walk(v, u))
    return faces


def _rotate_min(seq):
    """Lexicographically smallest rotation of a cyclic tuple."""
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


class WindowDissection(Dissection):
    """A dissection whose polygon faces come from its chord diagram and
    whose disc or annulus faces come from a strip window."""

    def _compute_faces(self):
        s = self.surface
        n, m = s.n, s.m
        if s.kind == "polygon":
            arcs = [(("b", arc.a - 1), ("b", arc.b - 1)) for arc in self.arcs]
            faces = [_normal_face(f, n, m)[0] for f in faces_of_chord_diagram(
                [("b", x) for x in range(n)], arcs)]
            return self._keep(faces)
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
        for f in faces_of_chord_diagram(bottom + top, chords):
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
        self._keep(norm.values())

    def _keep(self, faces):
        """Number the faces by ``face_key`` and index their corners."""
        faces = sorted(faces, key=face_key)
        self.base_faces = [Face(i, vs) for i, vs in enumerate(faces)]
        for f in self.base_faces:
            if f.size < 3:
                raise ValueError("dissection produces a face of size < 3")
        self._index_corners()


def walked_faces(D):
    """Lifted vertex cycles of the faces of D, one per orbit of the face
    permutation on the darts of one period.  Each base vertex keeps its
    neighbours' lifts in counterclockwise order, and a dart u -> v is
    turned at the base lift of v and translated back, so every step carries
    its period shift as a voltage; a face closes because its net voltage is
    0.  A polygon is the period itself: its boundary closes up and every
    voltage is 0."""
    s = D.surface
    n, m = s.n, s.m
    D._check_arcs()
    chords = D._chord_lifts(-2 * n, 3 * n - 1, -2 * m, 4 * m - 1)
    # each base vertex's neighbours, seen from its lift at shift 0, in
    # counterclockwise order; the puncture keeps its bridges of all five
    # lifts, so a turn past a period's first reaches the last one before
    closed = s.kind == "polygon"

    def bottom(x):  # a polygon's boundary closes up after one period
        return ("b", x % n if closed else x)

    rot = {("b", i): [bottom(i - 1), bottom(i + 1)] for i in range(n)}
    rot.update({("t", j): [("t", j - 1), ("t", j + 1)] for j in range(m)})
    if s.kind == "disc":
        rot[_INF] = []
    for p, q in chords:
        for v, u in ((p, q), (q, p)):
            if v in rot:
                rot[v].append(u)
    # a turn only reads the cyclic order, so sorting by boundary rank from
    # any start will do
    turn = {}  # turn[v][u]: the vertex after v on the face left of u -> v
    for v, nbrs in rot.items():
        nbrs.sort(key=_rank)
        turn[v] = {u: nbrs[k - 1] for k, u in enumerate(nbrs)}

    def anchor(u, v, t):
        """The dart u -> v of lift t, moved so that its head (its tail at
        the puncture) sits at shift 0, and the lift it is then read in."""
        w = u if v is _INF else v
        k = w[1] // (n if w[0] == "b" else m)
        if not k:
            return u, v, t
        return (_translate_vertex(u, -k, n, m), _translate_vertex(v, -k, n, m),
                t + k)

    # darts with the outside of the strip on their left are never walked
    seen = {(bottom(i + 1), ("b", i)) for i in range(n)}
    seen.update((("t", j - 1), ("t", j)) for j in range(m))
    faces = []
    for v0, nbrs in rot.items():
        for u0 in nbrs:
            if (v0, u0) in seen:  # an anchored dart, walked already
                continue
            u, v, t = start = anchor(v0, u0, 0)
            cyc = []
            while (u, v) not in seen:
                seen.add((u, v))
                cyc.append(_translate_vertex(u, t, n, m) if t else u)
                u, v, t = anchor(v, turn[v][u], t)
            if cyc:
                if (u, v, t) != start:
                    raise ValueError("a face walk does not close up")
                faces.append(tuple(cyc))
    return faces


class WalkedDissection(Dissection):
    """A dissection whose faces are walked, each listed from its leftmost
    bottom vertex by ``_normal_face``."""

    def _compute_faces(self):
        n, m = self.surface.n, self.surface.m
        self._set_faces(_normal_face(f, n, m)[0] for f in walked_faces(self))


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


def agreed(surface, arcs):
    """The sweep's ``outcome``, once the walk and the window have given the
    same."""
    got = outcome(Dissection, surface, arcs)
    for cls in (WalkedDissection, WindowDissection):
        assert outcome(cls, surface, arcs) == got, (cls.__name__, surface,
                                                     arcs)
    return got


def assert_same(D):
    """The sweep, the walk and the window agree on the base dissection of
    D."""
    base = D.base
    assert not isinstance(agreed(base.surface, base.arcs), str)


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
        agreed(surface, arcs)


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
        got = agreed(surface, arcs)
        valid += not isinstance(got, str)
    # both valid dissections and refused soups are exercised
    assert 50 < valid < 550


def polygon_chords(rng, n):
    """A diagonal soup of an n-gon, crossing or not, with reversed
    duplicates, adjacent or equal ends, and exact duplicates mixed in."""
    arcs = []
    for _ in range(rng.randint(0, n)):
        if arcs and rng.random() < 0.15:
            a, b = rng.choice(arcs)
            arcs.append((b, a) if rng.random() < 0.8 else (a, b))
        elif rng.random() < 0.1:
            a = rng.randint(1, n)
            arcs.append((a, rng.choice([a, a % n + 1, (a - 2) % n + 1])))
        else:
            arcs.append(tuple(rng.sample(range(1, n + 1), 2)))
    return [Arc("diag", a, b) for a, b in arcs]


def noncrossing_chords(rng, n):
    """A valid diagonal set of an n-gon, each diagonal in a random
    direction."""
    arcs = []
    cand = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
            if (a, b) != (1, n)]
    rng.shuffle(cand)
    for a, b in cand[:rng.randint(0, len(cand))]:
        if not any(chords_cross(a, b, c, d) for c, d in arcs):
            arcs.append((a, b))
    return [Arc("diag", *((b, a) if rng.random() < 0.5 else (a, b)))
            for a, b in arcs]


def test_polygon_faces_match_the_chord_diagram():
    rng = random.Random("polygon")
    errors = set()
    valid = 0
    for _ in range(1500):
        n = rng.randint(3, 14)
        arcs = polygon_chords(rng, n)
        got = agreed(polygon(n), arcs)
        if isinstance(got, str):
            errors.add(got)
        else:
            valid += 1
    for n in range(3, 31):
        for _ in range(8):
            arcs = noncrossing_chords(rng, n)
            assert not isinstance(agreed(polygon(n), arcs), str)
    # every refusal a diagonal soup can meet, and valid soups, including
    # the empty one, are exercised
    assert errors == {
        "error: duplicate arcs", "error: crossing arcs",
        "error: diagonal must join non-adjacent vertices",
        "error: duplicate arc or arc parallel to a boundary edge"}
    assert valid > 200


LINES = st.one_of(
    st.tuples(st.just("diag"), st.integers(0, 7), st.integers(0, 7)),
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
@given(st.sampled_from(["annulus", "disc", "polygon"]), st.integers(1, 5),
       st.integers(1, 4), st.lists(LINES, max_size=9))
def test_parsed_dissections_match_the_window(kind, n, m, lines):
    header = {"annulus": "annulus %d %d" % (n, m), "disc": "disc %d" % n,
              "polygon": "polygon %d" % (n + 2)}[kind]
    text = "\n".join([header] + lines)
    got = parsed(text, Dissection)
    assert got == parsed(text, WalkedDissection)
    assert got == parsed(text, WindowDissection)


def test_every_dissection_of_the_search_matches_the_walk():
    """Every arc set the exhaustive search of ``test_dissection_oracle``
    builds, refused or not; the annulus ones are the bases of its
    single-glue quotients.  Corner choices follow from the corner tables,
    so the tables are compared."""
    refused = Counter()

    def checked(surface, arcs):
        try:
            D = Dissection(surface, arcs)
        except ValueError as exc:
            refused[str(exc)] += 1
            assert outcome(WalkedDissection, surface, arcs) == "error: %s" % exc
            raise
        W = WalkedDissection(surface, arcs)
        assert (W.base_faces, W.outer_corners, W.inner_corners) == (
            D.base_faces, D.outer_corners, D.inner_corners), (surface, arcs)
        return D

    with mock.patch.object(test_dissection_oracle, "Dissection", checked):
        found = [D for s in test_dissection_oracle.surfaces()
                 for D in test_dissection_oracle.dissections(s)]
    assert len(found) == 13457
    assert refused == {
        "annulus dissection must contain a bridging arc": 508,
        "punctured-disc dissection must contain a bridging arc": 402,
        "duplicate arc or arc parallel to a boundary edge": 300}


def test_golden_dissection_inputs_match_the_walk():
    """Every golden input parsed as a dissection; the text parser refuses
    the files holding a cycle at their first line."""
    inputs = os.path.join(GOLDEN, "inputs")
    built = []
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name)) as fh:
            text = fh.read()
        got = parsed(text, Dissection)
        assert got == parsed(text, WalkedDissection), name
        if not (isinstance(got, str) and got.startswith("error: line ")):
            built.append(got)
    assert len(built) == 12
    assert sorted(got for got in built if isinstance(got, str)) == [
        "error: crossing arcs"] + [
        "error: duplicate arc or arc parallel to a boundary edge"] * 2


def test_random_polygons_discs_and_annuli_match_the_walk():
    rng = random.Random(30)
    sizes = set()
    for _ in range(200):
        D = random_polygon_dissection(rng, 4, 30, 27)
        sizes.add(D.surface.n)
        assert_same(D)
    assert min(sizes) == 4 and max(sizes) == 30
    # ``random_witness`` almost never draws a disc, so discs come from
    # ``random_disc``
    for _ in range(40):
        assert_same(random_disc(rng)[1].witness)
        assert_same(random_witness(rng, ("annulus",))[1].witness)
