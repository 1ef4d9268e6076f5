"""Corner tables ordered on first read against the rank-and-sort oracle.

A build only drops each face corner into the bucket of its vertex and
checks the tiling by counting; ``outer_corners`` and ``inner_corners``
order the buckets when first read, by one integer place of the face's
next vertex along the strip boundary.  ``ranked_corners`` is the order
every build once ranked: it translates the next vertex with the corner,
ranks it as a vertex label (bottom rightward, then the top leftward or
the puncture) and sorts by whether that rank lies at or before the
vertex's own, by the rank, then by (fid, t).  Both must give the same
tables on every dissection here: the search of ``test_dissection_oracle``,
which holds the bases of its single-glue quotients, the golden inputs,
random polygons, discs and annulus witnesses, powers and ear-glued
dissections.

The tiling check must refuse faces that do not tile at build time, and a
classification of an ordinary cycle must order no corner at all: its
post-condition reads multisets, which the buckets give unordered.

``Arc`` and ``Face`` are named tuples, and must order, hash and print as
the dataclasses they replaced.
"""

import os
import random
from collections import Counter
from unittest import mock

import pytest

from artifact import (Arc, annulus, classify_realizability, dissection_power,
                      glue_ears, parse_dissection_text, polygon,
                      punctured_disc, quiddity_new)
from artifact.suites import random_polygon_dissection, random_witness
from artifact.surface import Dissection, Face, _translate_vertex

import test_dissection_oracle
from conftest import ANNULUS_334_TEXT, random_disc
from golden.record import HERE as GOLDEN
from test_glue_ears_differential import CORES, _random_steps, ear_glued


def _rank(v):
    """Place of v along a strip window's boundary, counterclockwise: the
    bottom rightward, then the top leftward or the puncture, never both."""
    return ("t", -v[1]) if v[0] == "t" else v


def ranked_corners(D):
    """D's (outer, inner) corner tables by rank and sort: the corners at
    v_i^0 by (next <= own, next, fid, t), next the rank of the face's next
    vertex moved with the corner to lift 0 and own the rank of v_i^0."""
    s = D.surface
    n, m = s.n, s.m
    outer = {i: [] for i in range(1, n + 1)}
    inner = {j: [] for j in range(1, m + 1)} if s.kind == "annulus" else {}
    for f in D.base_faces:
        k = f.size
        for idx, v in enumerate(f.verts):
            if v[0] == "b":
                table, period = outer, n
            elif v[0] == "t":
                table, period = inner, m
            else:
                continue
            i = v[1] % period + 1
            t = (i - 1 - v[1]) // period
            nxt = _rank(_translate_vertex(f.verts[(idx + 1) % k], t, n, m))
            table[i].append((nxt <= _rank((v[0], i - 1)), nxt, f.id, t))
    return tuple({i: [(fid, t) for _w, _r, fid, t in sorted(corners)]
                  for i, corners in table.items()}
                 for table in (outer, inner))


def assert_ranked(D):
    assert (D.outer_corners, D.inner_corners) == ranked_corners(D.base), D


def test_every_dissection_of_the_search_and_its_quotients():
    """Every arc set the exhaustive search builds, also those it drops for
    a face of size 6 or more; a quotient reads its base's tables."""
    kinds = Counter()

    def checked(surface, arcs):
        D = Dissection(surface, arcs)
        assert_ranked(D)
        kinds[surface.kind] += 1
        return D

    with mock.patch.object(test_dissection_oracle, "Dissection", checked):
        found = [D for s in test_dissection_oracle.surfaces()
                 for D in test_dissection_oracle.dissections(s)]
    assert len(found) == 13457 and sum(kinds.values()) > len(found), kinds
    quotients = 0
    for D in found:
        if D.surface.kind == "annulus":
            for QD in test_dissection_oracle.single_glue_quotients(D):
                assert QD.outer_corners is D.outer_corners
                assert QD.inner_corners is D.inner_corners
                quotients += 1
    assert quotients == 10785


def test_golden_dissection_inputs():
    inputs = os.path.join(GOLDEN, "inputs")
    built = 0
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name)) as fh:
            text = fh.read()
        try:
            D = parse_dissection_text(text)
        except ValueError:
            continue
        assert_ranked(D)
        built += 1
    assert built == 9


def test_random_polygons():
    rng = random.Random(30)
    sizes = set()
    for _ in range(200):
        D = random_polygon_dissection(rng, 4, 30, 27)
        sizes.add(D.surface.n)
        assert_ranked(D)
    assert min(sizes) == 4 and max(sizes) == 30


def test_discs_annuli_powers_and_glued_ears():
    rng = random.Random(31)
    witnesses = [parse_dissection_text(ANNULUS_334_TEXT)]
    witnesses += [random_disc(rng)[1].witness for _ in range(40)]
    witnesses += [random_witness(rng, ("annulus",))[1].witness
                  for _ in range(40)]
    for name, (core, _kind) in sorted(CORES.items()):
        for n in (12, 40, 400):
            witnesses.append(classify_realizability(
                ear_glued(core, n, rng)).witness)
    kinds = Counter()
    for W in witnesses:
        assert_ranked(W)
        kinds[W.surface.kind, W.is_quotient()] += 1
        if W.surface.kind != "polygon" and not W.is_quotient():
            for k in (2, 3):
                assert_ranked(dissection_power(W, k))
        for count in (1, 3):
            assert_ranked(glue_ears(W, _random_steps(rng, W, count)))
    assert kinds == {("disc", False): 46, ("annulus", False): 44,
                     ("annulus", True): 9, ("polygon", False): 3}, kinds


def test_single_vertex_boundaries():
    """One-vertex boundaries and their powers, where the next vertex of a
    corner is often a lift of the corner's own vertex."""
    for D in (Dissection(annulus(1, 1), [Arc("bridge", 1, 1, 0)]),
              Dissection(annulus(1, 1), [Arc("bridge", 1, 1, 1)]),
              Dissection(punctured_disc(1), [Arc("bridge_disc", 1)]),
              Dissection(annulus(1, 3), [Arc("bridge", 1, 2, 1)])):
        assert_ranked(D)
        for k in (2, 5):
            assert_ranked(dissection_power(D, k))


def _tiling_cases():
    rng = random.Random(32)
    cases = [parse_dissection_text(ANNULUS_334_TEXT),
             Dissection(polygon(3), []),
             Dissection(punctured_disc(1), [Arc("bridge_disc", 1)]),
             random_polygon_dissection(rng, 6, 12, 9),
             random_disc(rng)[1].witness,
             random_witness(rng, ("annulus",))[1].witness]
    return [(D.surface, D.arcs, [f.verts for f in D.base_faces])
            for D in cases]


@pytest.mark.parametrize("case", _tiling_cases())
def test_faces_that_do_not_tile_are_refused_at_build(case, monkeypatch):
    """One face dropped, or one face listed twice, miscounts the corners at
    its vertices; the build refuses it without ordering a corner."""
    surface, arcs, faces = case

    def refuse(self, inner):
        raise AssertionError("a corner table was read")

    monkeypatch.setattr(Dissection, "_ordered_corners", refuse)
    Dissection._assemble(surface, arcs, faces)
    for bad in (faces[1:], faces[:-1], faces + faces[:1], faces + faces[-1:]):
        with pytest.raises(ValueError, match="region around a vertex is not "
                                             "tiled by polygons"):
            Dissection._assemble(surface, arcs, bad)


def test_classification_ranks_no_corner(monkeypatch):
    """Ordinary witnesses are checked by their multisets alone.  A
    ``quotient_annulus`` classification does order its corners: it reads
    the glued lifts through ``corner_choices``."""
    def refuse(self, inner):
        raise AssertionError("classification ranked a corner")

    monkeypatch.setattr(Dissection, "_ordered_corners", refuse)
    rng = random.Random(33)
    kinds = Counter()
    cycles = [ear_glued(CORES[name][0], n, rng)
              for name in ("disc-33", "disc-44-4", "annulus-readme",
                           "polygon-triangle")
              for n in (8, 20, 40, 120)]
    cycles += [random_disc(rng)[0] for _ in range(10)]
    cycles += [random_witness(rng, ("annulus",))[0] for _ in range(10)]
    cycles += [quiddity_new(core) for core, kind in CORES.values()
               if kind != "quotient_annulus"]
    for Q in cycles:
        kinds[classify_realizability(Q).kind] += 1
    assert kinds == {"punctured_disc": 20, "annulus": 15, "polygon": 5}, kinds
    for name in ("quotient-bench", "quotient-offset"):
        with pytest.raises(AssertionError, match="ranked a corner"):
            classify_realizability(quiddity_new(CORES[name][0]))


def _arc_sets():
    for s in test_dissection_oracle.surfaces():
        for D in test_dissection_oracle.dissections(s):
            yield D.arcs


def test_arcs_and_faces_behave_as_the_dataclasses():
    seen = set()
    for arcs in _arc_sets():
        arcs = list(arcs)
        random.Random(len(seen)).shuffle(arcs)
        assert sorted(arcs) == sorted(
            arcs, key=lambda arc: (arc.kind, arc.a, arc.b, arc.shift))
        seen.update(arcs)
    assert all(Arc(*arc) in seen for arc in seen)
    assert Arc("peri", 1, 3) in seen and Arc("peri", 1, 3, 1) not in seen
    assert Arc("peri", 1, 3) == Arc("peri", 1, 3, 0)
    assert hash(Arc("bridge", 2, 1, 1)) == hash(("bridge", 2, 1, 1))
    assert repr(Arc("peri", 1, 3)) == "Arc(kind='peri', a=1, b=3, shift=0)"
    face = Face(0, (("b", 0), ("b", 1), ("t", 0)))
    assert repr(face) == "Face(id=0, verts=(('b', 0), ('b', 1), ('t', 0)))"
    assert (face.size, face.bottom_coords(), face.top_coords()) == (
        3, [0, 1], [0])
    assert face in {Face(0, (("b", 0), ("b", 1), ("t", 0)))}
    assert face != Face(1, face.verts)
