"""Surfaces, dissections, quotients, powers, and the text format."""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from artifact import (Arc, Dissection, annulus, build_dissection,
                      dissection_power, format_dissection, glue_ear,
                      make_quotient, parse_dissection_text, polygon,
                      punctured_disc, quiddity_of, rotate_dissection)
from artifact.surface import Surface, _ClassMap, _arc_ends, _arc_of
from artifact.suites import (random_polygon_dissection,
                             random_quotient_cycle, random_witness)

from conftest import ANNULUS_334_TEXT, cyc_eq


def quotient_28_fixture():
    """Annulus A_{2,6} with five bridging arcs whose 4-gons 2 and 3 share
    only the outer vertex v_2; identifying them drops one 4 from each of
    the two outer multisets."""
    return build_dissection(annulus(2, 6), [
        Arc("bridge", 1, 1, 0), Arc("bridge", 1, 2, 0), Arc("bridge", 1, 3, 0),
        Arc("bridge", 2, 4, 0), Arc("bridge", 2, 6, 0)])


def test_polygon_quiddity():
    D = build_dissection(polygon(6), [Arc("diag", 1, 3), Arc("diag", 3, 5)])
    assert list(quiddity_of(D).A) == [
        (3, 4), (3,), (3, 3, 4), (3,), (3, 4), (4,)]


def test_empty_polygon():
    D = build_dissection(polygon(5), [])
    assert list(quiddity_of(D).A) == [(5,)] * 5


def test_punctured_disc_quiddity():
    # the skeletal triangulated wheel of S_3
    D = build_dissection(punctured_disc(3), [
        Arc("bridge_disc", 1, 0, 0), Arc("bridge_disc", 2, 0, 0),
        Arc("bridge_disc", 3, 0, 0)])
    assert list(quiddity_of(D).A) == [(3, 3), (3, 3), (3, 3)]


def test_annulus_quiddity_both_boundaries(annulus_334):
    assert list(quiddity_of(annulus_334, "outer").A) == [
        (3, 3, 4), (3,), (3, 3, 4, 4)]
    assert cyc_eq(list(quiddity_of(annulus_334, "inner").A),
                  [(4,), (4, 4), (3, 4, 4)])


def test_crossing_arcs_rejected():
    with pytest.raises(ValueError):
        build_dissection(polygon(6),
                         [Arc("diag", 1, 4), Arc("diag", 3, 6)])


def test_crossing_check_matches_the_pairwise_predicate():
    # the stack pass over sorted spans rejects a chord set exactly when
    # some pair of its chords crosses
    from artifact.surface import chords_cross
    rng = random.Random(5)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(4, 12)
        cand = [(a, b) for a in range(n) for b in range(a + 2, n)
                if (a, b) != (0, n - 1)]
        chords = rng.sample(cand, rng.randint(1, min(len(cand), 6)))
        crossing = any(chords_cross(a, b, c, d)
                       for k, (a, b) in enumerate(chords)
                       for c, d in chords[:k])
        chords = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in chords]
        try:
            Dissection(polygon(n), [Arc("diag", a + 1, b + 1)
                                    for a, b in chords])
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == crossing, (n, chords)
        outcomes.add(crossing)
    assert outcomes == {True, False}


def test_quotient_identification():
    D = quotient_28_fixture()
    assert list(quiddity_of(D).A) == [(3, 3, 4, 4), (4, 4, 4)]
    QD = make_quotient(D, [(2, 3)])
    assert list(quiddity_of(QD).A) == [(3, 3, 4), (4, 4)]
    assert [2, 3] in QD.classes()


def test_quotient_restrictions():
    D = quotient_28_fixture()
    with pytest.raises(ValueError):
        make_quotient(D, [(0, 1)])     # triangles sharing an arc
    with pytest.raises(ValueError):
        make_quotient(D, [(3, 4)])     # 4-gons sharing an arc
    with pytest.raises(ValueError):
        make_quotient(D, [(1, 2)])     # unequal sizes
    with pytest.raises(ValueError):
        make_quotient(D, [(2, 2)])     # self, no offset
    with pytest.raises(ValueError):
        make_quotient(D, [(2, 3, 5)])  # offset with no shared vertex


def test_quotient_ear_identification_rejected(annulus_334):
    # the triangle ear has all vertices on the outer boundary and can
    # never be identified
    D = annulus_334
    ear = next(f.id for f in D.base_faces if not f.top_coords())
    other = next(f.id for f in D.base_faces
                 if f.id != ear and f.size == D.face(ear).size)
    with pytest.raises(ValueError):
        make_quotient(D, [(ear, other)])


def test_quotient_self_identification_with_offset():
    # a subgon glued to its own translate wraps around the annulus
    D = build_dissection(annulus(2, 7), [
        Arc("bridge", 2, 1, 0), Arc("bridge", 2, 3, 0), Arc("bridge", 2, 7, 0)])
    assert list(quiddity_of(D).A) == [(5,), (4, 5, 5, 6)]
    wrap = next(f.id for f in D.base_faces if f.size == 5)
    QD = make_quotient(D, [(wrap, wrap, 1)])
    assert list(quiddity_of(QD).A) == [(5,), (4, 5, 6)]


def test_quotient_requires_annulus():
    D = build_dissection(polygon(6), [Arc("diag", 1, 3), Arc("diag", 3, 5)])
    with pytest.raises(ValueError):
        make_quotient(D, [(0, 1)])


def test_format_parse_roundtrip(annulus_334):
    for D in (annulus_334,
              build_dissection(polygon(6), [Arc("diag", 1, 3)]),
              build_dissection(punctured_disc(3), [
                  Arc("bridge_disc", 1, 0, 0), Arc("bridge_disc", 2, 0, 0)]),
              make_quotient(quotient_28_fixture(), [(2, 3)])):
        text = format_dissection(D)
        D2 = parse_dissection_text(text)
        assert format_dissection(D2) == text
        assert list(quiddity_of(D2).A) == list(quiddity_of(D).A)


PROPERTY = settings(max_examples=80, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def dissections(draw):
    """A polygon, or a disc or annulus core with ears glued on and
    rotations between them, or a quotient witness, maybe with an ear."""
    kind = draw(st.sampled_from(["polygon", "disc", "annulus", "quotient"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "polygon":
        return random_polygon_dissection(rng)
    if kind == "quotient":
        D = random_quotient_cycle(rng)[1].witness
        steps = draw(st.lists(st.integers(1, 40), max_size=1))
    else:
        k = draw(st.integers(1, 4))
        if kind == "disc":
            D = build_dissection(punctured_disc(k), [Arc("bridge_disc", 1)])
        else:
            D = build_dissection(annulus(k, draw(st.integers(1, 3))),
                                 [Arc("bridge", 1, 1, 0)])
        steps = draw(st.lists(st.integers(1, 40), max_size=4))
    for g in steps:
        D = glue_ear(D, g % D.surface.n + 1, 3 + g % 3)
        D = rotate_dissection(D, g // 3)
    return D


@PROPERTY
@given(dissections())
@example(make_quotient(quotient_28_fixture(), [(2, 3)]))
@example(make_quotient(quotient_28_fixture(), [(2, 3, 0)]))
def test_format_parse_format_is_stable(D):
    text = format_dissection(D)
    D2 = parse_dissection_text(text)
    assert format_dissection(D2) == text
    assert [f.verts for f in D2.base_faces] == [f.verts for f in D.base_faces]


_LINES = st.one_of(
    st.text(max_size=12),
    st.builds(lambda head, nums: " ".join([head] + [str(x) for x in nums]),
              st.sampled_from(["polygon", "disc", "annulus", "bridge",
                               "bridge-disc", "peri", "diag", "glue",
                               "torus", "#"]),
              st.lists(st.integers(-3, 9), max_size=4)))


@PROPERTY
@given(st.lists(_LINES, max_size=8))
@example(["annulus 3 3", "bridge 1 1 0", "glue 5 7"])
@example(["annulus 3 3", "bridge 1 1 0", "bridge 2 2 0", "glue -1 0"])
def test_parse_raises_only_value_error(lines):
    try:
        parse_dissection_text("\n".join(lines))
    except ValueError:
        pass


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_dissection_text("")
    with pytest.raises(ValueError):
        parse_dissection_text("annulus 3\n")
    with pytest.raises(ValueError):
        parse_dissection_text("annulus 3 3\nbridge 1\n")
    with pytest.raises(ValueError):
        parse_dissection_text("torus 3 3\n")


def test_parse_comments_and_blank_lines(annulus_334):
    text = "# header\n\n" + ANNULUS_334_TEXT.replace(
        "peri 1 3", "peri 1 3   # the ear")
    D = parse_dissection_text(text)
    assert list(quiddity_of(D).A) == list(quiddity_of(annulus_334).A)


def test_rotate_dissection(annulus_334):
    Q = list(quiddity_of(annulus_334).A)
    for r in range(1, 4):
        Dr = rotate_dissection(annulus_334, r)
        assert list(quiddity_of(Dr).A) == Q[r % 3:] + Q[:r % 3]


def test_glue_ear(annulus_334):
    # attaching a 3-ear at position g inserts a singleton and adds a 3 to
    # the flanking multisets
    D2 = glue_ear(annulus_334, 1, 3)
    A = list(quiddity_of(D2).A)
    assert len(A) == 4
    assert A.count((3,)) >= 1


def test_dissection_power(annulus_334):
    D2 = dissection_power(annulus_334, 2)
    assert D2.surface.n == 6 and D2.surface.m == 6
    Q = list(quiddity_of(annulus_334).A)
    assert list(quiddity_of(D2).A) == Q + Q


def _dissections_of_every_kind(rng):
    """Seeded polygons, ear-glued discs, annulus witnesses, their squares
    and the bases of quotient witnesses."""
    out = [random_polygon_dissection(rng) for _ in range(30)]
    for _ in range(30):
        k = rng.randint(1, 4)
        D = build_dissection(punctured_disc(k), [
            Arc("bridge_disc", a) for a in range(1, k + 1) if rng.random() < 0.6
        ] or [Arc("bridge_disc", 1)])
        for _e in range(rng.randint(1, 5)):
            D = glue_ear(D, rng.randint(1, D.surface.n), rng.choice([3, 4, 5]))
        out.append(D)
    for _ in range(30):
        D = random_witness(rng, {"annulus"})[1].witness
        out += [D, dissection_power(D, 2)]
    for _ in range(15):
        out.append(random_quotient_cycle(rng)[1].witness.base)
    return out


def _corners_around(D, boundary):
    """For every vertex: its corners as (previous, next) vertices of the
    lifted face, translated so that the vertex itself is lift 0."""
    s = D.surface

    def lift(v, t):
        if v[0] == "b":
            return ("b", v[1] + t * s.n)
        if v[0] == "t":
            return ("t", v[1] + t * s.m)
        return v

    table = D.outer_corners if boundary == "outer" else D.inner_corners
    for i, corners in table.items():
        v = ("b" if boundary == "outer" else "t", i - 1)
        rays = []
        for fid, t in corners:
            verts = [lift(u, t) for u in D.face(fid).verts]
            k = verts.index(v)
            rays.append((verts[k - 1], verts[(k + 1) % len(verts)]))
        yield v, rays


def test_corner_order_follows_the_boundary_walk():
    # counterclockwise around a vertex, each corner ends on the ray where
    # the next one starts; the first starts on the boundary edge leaving
    # the vertex in walk order (rightward on the bottom line, leftward on
    # the top line) and the last ends on the edge entering it
    rng = random.Random(11)
    kinds = set()
    for D in _dissections_of_every_kind(rng):
        s = D.surface
        kinds.add(s.kind)
        for boundary in ("outer", "inner"):
            for v, rays in _corners_around(D, boundary):
                step = 1 if v[0] == "b" else -1
                leaving, entering = v[1] + step, v[1] - step
                if s.kind == "polygon":
                    leaving, entering = leaving % s.n, entering % s.n
                assert rays[0][1] == (v[0], leaving), (D, v, rays)
                assert rays[-1][0] == (v[0], entering), (D, v, rays)
                for (prev, _nxt), (_prev2, nxt2) in zip(rays, rays[1:]):
                    assert prev == nxt2, (D, v, rays)
    assert kinds == {"polygon", "disc", "annulus"}


def test_face_geometry(annulus_334):
    sizes = sorted(f.size for f in annulus_334.base_faces)
    assert sizes == [3, 3, 4, 4]
    ear = next(f for f in annulus_334.base_faces if not f.top_coords())
    assert ear.size == 3


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _golden_arcs():
    """(surface, arc lines) of every golden dissection input, valid or
    not; glue lines, and the repeated headers and unknown directives of
    the header-error inputs, are not arcs."""
    for path in sorted(GOLDEN_INPUTS.glob("*.txt")):
        rows = [line.split("#", 1)[0].split()
                for line in path.read_text().splitlines()]
        (head, *size), *arcs = [r for r in rows if r]
        if head in ("polygon", "disc", "annulus"):
            yield Surface(head, *map(int, size)), [
                Arc(kind.replace("-", "_"), *map(int, nums))
                for kind, *nums in arcs
                if kind in ("diag", "peri", "bridge", "bridge-disc")]


def test_arc_ends_and_arc_of_are_inverse(annulus_334, hexagon_13_35,
                                         pentagon_24_25):
    cases = list(_golden_arcs()) + [
        (D.surface, D.arcs) for D in [annulus_334, hexagon_13_35,
                                      pentagon_24_25, quotient_28_fixture()]
        + _dissections_of_every_kind(random.Random(22))]
    # the reversed diagonals of two golden polygon witnesses
    cases += [(polygon(5), [Arc("diag", 5, 2)]),
              (polygon(30), [Arc("diag", 30, 26)])]
    seen = set()
    for s, arcs in cases:
        n, m = s.n, s.m
        for arc in arcs:
            seen.add((s.kind, arc.kind, arc.shift, arc.b < arc.a))
            for k in range(-2, 3):
                p, q = _arc_ends(arc, k, n, m)
                assert p == ("b", arc.a - 1 + k * n), (s, arc, k)
                assert _arc_of(arc.kind, p, q, n, m) == arc, (s, arc, k)
    assert {("disc", "peri", 0, False), ("annulus", "bridge", 1, False),
            ("polygon", "diag", 0, True), ("disc", "peri", 0, True)} <= seen
    # a bridge whose top end lies two periods up has no shift bit
    with pytest.raises(AssertionError):
        _arc_of("bridge", ("b", 0), ("t", 2 * 3), 3, 3)


def test_class_map_finds_through_a_long_chain_with_offsets():
    # union(f + 1, f, d) makes f + 1 the parent of f, so face 0 is 1,999
    # links from the root, past the recursion limit
    deltas = [f % 7 - 3 for f in range(1999)]
    classes = _ClassMap(2000)
    for f, d in enumerate(deltas):
        classes.union(f + 1, f, d)
    assert classes.parent[:3] == [1, 2, 3]
    # (f + 1, t) ~ (f, t + d), read after each find has compressed the path
    for f, d in enumerate(deltas):
        assert classes.key(f + 1, 0) == classes.key(f, d), f
    assert classes.key(0, 0) == (1999, -sum(deltas))
