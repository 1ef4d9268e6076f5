"""The bucket read of ``_corner_multisets`` against the class read.

``surface._corner_multisets`` reads a plain dissection's multisets straight
from its unordered corner buckets and counts identified lifts once only on
quotients, through ``corner_choices``.  The oracle reads every dissection
through ``corner_choices``, as every dissection once was: both must agree,
outer and inner, on the plain and quotient witnesses of the short cycles
and on every dissection and single-glue quotient that the dissection
oracle enumerates.

Faces are numbered by (size, vertex labels).  On all the same dissections
that must be the order of the key the face walk oracle keeps, which ranks
bottom vertices before top ones before the puncture.
"""

from artifact import classify_realizability, quiddity_new
from artifact.surface import _corner_multisets

from test_dissection_oracle import (SHORT, dissections, single_glue_quotients,
                                    surfaces)
from test_face_walk_differential import face_key


def by_classes(D, boundary="outer"):
    s = D.surface
    labels = range(s.m, 0, -1) if boundary == "inner" else range(1, s.n + 1)
    return tuple(
        tuple(sorted(D.face(fid).size
                     for _key, fid, _t in D.corner_choices(i - 1, boundary)))
        for i in labels)


def agrees(D):
    boundaries = ("outer", "inner") if D.surface.kind == "annulus" \
        else ("outer",)
    faces = [f.verts for f in D.base_faces]
    return faces == sorted(faces, key=face_key) and all(
        _corner_multisets(D, b) == by_classes(D, b) for b in boundaries)


def test_short_cycle_witnesses():
    kinds = {}
    for A in SHORT:
        cls = classify_realizability(quiddity_new(A))
        if cls.realizable:
            assert agrees(cls.witness), A
            kinds[cls.kind] = kinds.get(cls.kind, 0) + 1
    assert kinds == {"annulus": 1762, "quotient_annulus": 1245,
                     "punctured_disc": 20, "polygon": 1}


def test_enumerated_dissections_and_their_quotients():
    plain = quotients = 0
    for s in surfaces():
        for D in dissections(s):
            assert agrees(D), D
            plain += 1
            if s.kind == "annulus":
                for QD in single_glue_quotients(D):
                    assert agrees(QD), QD
                    quotients += 1
    assert (plain, quotients) == (13457, 10785)
