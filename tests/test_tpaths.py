"""T-paths on dissected polygons and the bijection with matchings."""

import io
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from artifact import (FriezeTable, annulus, build_dissection, enumerate_tpaths,
                      phi_bijection, quiddity_of, tpath_sum, tpath_weight,
                      weigh_matching, Arc, polygon, dispatch,
                      parse_dissection_text)
from artifact.tpaths import PolygonGeometry, TPath

import tpath_geometry_oracle


def all_pairs(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                yield i, j


def test_tpath_sum_matches_entries_hexagon(hexagon_13_35):
    Q = quiddity_of(hexagon_13_35)
    F = FriezeTable(Q)
    for i, j in all_pairs(6):
        for kind in ("weak", "complete"):
            s = tpath_sum(hexagon_13_35, i, j, kind)
            assert s == F.entry(min(i, j), max(i, j)), (i, j, kind)


def test_tpath_sum_matches_entries_pentagon(pentagon_24_25):
    Q = quiddity_of(pentagon_24_25)
    F = FriezeTable(Q)
    for i, j in all_pairs(5):
        for kind in ("weak", "complete"):
            s = tpath_sum(pentagon_24_25, i, j, kind)
            assert s == F.entry(min(i, j), max(i, j)), (i, j, kind)


def test_complete_paths_are_weak_paths(hexagon_13_35):
    for i, j in ((1, 4), (2, 5), (2, 6)):
        weak = {p.steps for p in enumerate_tpaths(hexagon_13_35, i, j, "weak")}
        comp = {p.steps
                for p in enumerate_tpaths(hexagon_13_35, i, j, "complete")}
        assert comp <= weak


def test_single_step_path_weight(hexagon_13_35):
    # adjacent boundary vertices: one path, one odd step, weight one
    paths = list(enumerate_tpaths(hexagon_13_35, 1, 2))
    assert len(paths) == 1 and paths[0].steps == ((1, 2),)
    assert tpath_weight(hexagon_13_35, paths[0]) == 1


def test_phi_bijection_fixed(hexagon_13_35, pentagon_24_25):
    for D, pairs in ((hexagon_13_35, ((1, 4), (2, 5), (2, 6), (6, 3))),
                     (pentagon_24_25, ((1, 3), (1, 4), (3, 5)))):
        for i, j in pairs:
            m = phi_bijection(D, i, j)
            assert len(m) >= 1
            for w, path in m.items():
                assert weigh_matching(w, "traditional", D) == \
                    tpath_weight(D, path)


def test_phi_bijection_random(rng):
    from artifact.suites import random_polygon_dissection
    for _ in range(12):
        D = random_polygon_dissection(rng)
        n = D.surface.n
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        if i == j:
            continue
        phi_bijection(D, i, j)  # raises on any weight or count mismatch


def test_tpaths_reject_non_polygons():
    D = build_dissection(annulus(3, 3), [Arc("bridge", 1, 1, 0)])
    with pytest.raises(ValueError):
        list(enumerate_tpaths(D, 1, 2))


def test_tpaths_reject_bad_endpoints(hexagon_13_35):
    with pytest.raises(ValueError):
        list(enumerate_tpaths(hexagon_13_35, 2, 2))
    with pytest.raises(ValueError):
        list(enumerate_tpaths(hexagon_13_35, 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_tpaths(hexagon_13_35, 1, 7))
    with pytest.raises(ValueError):
        list(enumerate_tpaths(hexagon_13_35, 1, 3, kind="strong"))


def fan_text(n):
    return "polygon %d\n" % n + "".join("diag 1 %d\n" % k
                                         for k in range(3, n))


def recursive_tpaths(D, i, j, kind):
    """The recursive walks that ``enumerate_tpaths`` replaced, one frame
    per crossed arc, on the coordinate geometry's crossing order: the
    oracle for its order.  A step may take any chord of one subgon."""
    geo = PolygonGeometry(D)
    chords = {frozenset(c) for vs in geo.faces.values()
              for c in combinations(vs, 2)}
    crossed = tpath_geometry_oracle.crossed_arcs(geo, i, j)
    if kind == "complete":
        d = len(crossed)

        def rec(pos, idx, steps):
            if idx == d:
                if pos != j and frozenset((pos, j)) in chords:
                    yield TPath(i, j, steps + ((pos, j),))
                return
            _t, pair = crossed[idx]
            for u in sorted(pair):
                w = next(iter(pair - {u}))
                if pos == u or frozenset((pos, u)) not in chords:
                    continue
                yield from rec(w, idx + 1, steps + ((pos, u), (u, w)))

        return list(rec(i, 0, ()))

    all_chords = sorted(chords, key=lambda s: tuple(sorted(s)))

    def rec(pos, steps, used, last_cross):
        for key in all_chords:
            if pos not in key or key in used:
                continue
            (w,) = key - {pos}
            nsteps = steps + ((pos, w),)
            if w == j:
                yield TPath(i, j, nsteps)
            for t, pair in crossed:
                if (t <= last_cross or pair in used or pair == key
                        or w not in pair):
                    continue
                (u2,) = pair - {w}
                yield from rec(u2, nsteps + ((w, u2),),
                               used | {key, pair}, t)

    return list(rec(i, (), frozenset(), Fraction(-1)))


def test_walks_keep_the_recursive_order(rng, hexagon_13_35, pentagon_24_25):
    from artifact.suites import random_polygon_dissection
    # three 12-gons: a step may take any of a subgon's 66 chords
    dissections = [hexagon_13_35, pentagon_24_25,
                   parse_dissection_text(fan_text(9)),
                   parse_dissection_text("polygon 32\ndiag 1 12\ndiag 12 23")]
    dissections += [random_polygon_dissection(rng) for _ in range(20)]
    for D in dissections:
        for i, j in all_pairs(D.surface.n):
            for kind in ("weak", "complete"):
                assert list(enumerate_tpaths(D, i, j, kind)) == \
                    recursive_tpaths(D, i, j, kind), (D, i, j, kind)


def zigzag_text(n):
    """The n-gon triangulated by the zig-zag 1, n, 2, n-1, 3, ...: a
    diagonal between its two ends crosses every arc."""
    order, lo, hi = [], 1, n
    while lo <= hi:
        order.append(lo)
        lo += 1
        if lo <= hi:
            order.append(hi)
            hi -= 1
    return "polygon %d\n" % n + "".join(
        "diag %d %d\n" % (min(a, b), max(a, b))
        for a, b in zip(order[1:-2], order[2:-1]))


def test_weak_walk_under_low_recursion_limit():
    # the longest weak T-path from v_2 to v_11 takes 15 even steps, one
    # stack frame each in a recursive walk
    D = parse_dissection_text(zigzag_text(20))
    expected = recursive_tpaths(D, 2, 11, "weak")
    assert len(expected) == 1597
    assert max(len(p) for p in expected) == 31
    limit = sys.getrecursionlimit()
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 18)
    try:
        paths = list(enumerate_tpaths(D, 2, 11, "weak"))
        with pytest.raises(RecursionError):
            recursive_tpaths(D, 2, 11, "weak")
    finally:
        sys.setrecursionlimit(limit)
    assert paths == expected


def test_complete_paths_of_1100_gon_fan(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text(fan_text(1100))
    out = io.StringIO()
    code = dispatch(["tpaths", str(path), "--from", "2", "--to", "1100",
                     "--kind", "complete"], out)
    lines = out.getvalue().splitlines()
    assert code == 0
    assert lines[-2:] == ["paths: 1098", "sum: 1098 : 1098"]
