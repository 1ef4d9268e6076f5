"""Differential test of ``PolygonGeometry``'s cyclic-order crossing tables
against the coordinate geometry they replaced (``tpath_geometry_oracle``):
the crossed arcs in order, the crossed subgons, and the left counts of
every complete T-path, on every ordered vertex pair (i > j included) of
the golden polygon inputs and of 300 seeded random polygon dissections.
"""

import json
import os
import random

import pytest

from artifact import parse_dissection_text
from artifact.suites import random_polygon_dissection
from artifact.tpaths import PolygonGeometry, _left_counts, _tpaths
from golden.record import CASES, HERE

import tpath_geometry_oracle as oracle


def golden_polygon_inputs():
    with open(CASES) as fh:
        cases = json.load(fh)
    out = []
    for name in sorted({c["argv"][1] for c in cases
                        if c["argv"][0] == "tpaths"}):
        with open(os.path.join(HERE, name)) as fh:
            D = parse_dissection_text(fh.read())
        if D.surface.kind == "polygon":
            out.append(D)
    return out


def compare_every_pair(D):
    """Compare the tables on every ordered pair; returns (pairs that are
    arcs, complete T-paths compared)."""
    geo = PolygonGeometry(D)
    n = geo.n
    arc_pairs, paths = 0, 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            old = oracle.crossed_arcs(geo, i, j)
            assert geo.crossed_arcs(i, j) == [pair for _t, pair in old], \
                (D, i, j)
            subgons = geo.crossed_subgons(i, j)
            old_subgons = oracle.crossed_subgons(geo, i, j)
            assert subgons == old_subgons, (D, i, j)
            arc_pairs += frozenset((i, j)) in geo.arc_pairs
            for path in _tpaths(geo, i, j, "complete"):
                assert _left_counts(geo, subgons, path) == \
                    oracle.left_counts(geo, old_subgons, path), (D, path)
                paths += 1
    return arc_pairs, paths


def test_golden_polygon_inputs():
    dissections = golden_polygon_inputs()
    assert len(dissections) >= 5
    arc_pairs = paths = 0
    for D in dissections:
        a, p = compare_every_pair(D)
        arc_pairs, paths = arc_pairs + a, paths + p
    assert arc_pairs > 0 and paths > 1000


def test_random_polygon_dissections():
    rng = random.Random(20261019)
    arc_pairs = paths = 0
    for _ in range(300):
        D = random_polygon_dissection(rng, nmin=4, nmax=14)
        a, p = compare_every_pair(D)
        arc_pairs, paths = arc_pairs + a, paths + p
    assert arc_pairs > 300 and paths > 10000
