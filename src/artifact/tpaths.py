"""Weak and complete T-paths on dissected polygons.

Vertices are placed at (a, a^2) so every polygon is convex and all
crossing tests are exact rational arithmetic.  A step is an oriented
chord lying inside a single subgon; even steps travel along arcs of the
dissection that cross the reference diagonal (v_i, v_j), at strictly
increasing crossing positions.  Summing step-weight products over weak
T-paths recovers the frieze entry m_{i,j}; complete T-paths biject with
the nonzero-traditional-weight matchings.
"""

from dataclasses import dataclass
from fractions import Fraction

from .ring import chebyshev_u
from .surface import chords_cross, quiddity_of
from .matchings import enumerate_matchings, weigh_matching


def _pt(a):
    return (a, a * a)


def _orient(p, q, r):
    """Sign of the turn p->q->r (positive = counterclockwise)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _cross_param(i, j, a, b):
    """Position along the segment from v_i to v_j where chord (a,b)
    crosses it, as an exact fraction of the segment."""
    (x1, y1), (x2, y2) = _pt(i), _pt(j)
    (x3, y3), (x4, y4) = _pt(a), _pt(b)
    den = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
    num = (x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3)
    return Fraction(num, den)


@dataclass(frozen=True)
class TPath:
    i: int
    j: int
    steps: tuple  # oriented steps (source_vertex, target_vertex)

    def __len__(self):
        return len(self.steps)


class _PolygonGeometry:
    """Per-dissection tables: subgon membership, chord weights, arcs."""

    def __init__(self, D):
        if D.is_quotient() or D.surface.kind != "polygon":
            raise ValueError("T-paths are defined on dissected polygons")
        self.D = D
        self.n = D.surface.n
        self.faces = {}          # fid -> sorted vertex numbers
        for f in D.base_faces:
            self.faces[f.id] = sorted(x + 1 for x in f.bottom_coords())
        self.arc_pairs = []
        for arc in D.arcs:
            self.arc_pairs.append(frozenset((arc.a, arc.b)))
        # chords inside one subgon: {u,w} -> (fid carrying the weight)
        self.chords = {}
        for fid, vs in self.faces.items():
            for ai in range(len(vs)):
                for bi in range(ai + 1, len(vs)):
                    key = frozenset((vs[ai], vs[bi]))
                    # edges shared by two subgons have weight 1 in either
                    self.chords.setdefault(key, fid)

    def step_weight(self, ctx, u, w):
        key = frozenset((u, w))
        fid = self.chords.get(key)
        if fid is None:
            raise ValueError("step (%d,%d) is not contained in one subgon"
                             % (u, w))
        vs = self.faces[fid]
        p = len(vs)
        # skip count: subgon vertices strictly between u and w on one side
        # (the two sides give equal Chebyshev weights)
        k = abs(vs.index(w) - vs.index(u)) - 1
        return chebyshev_u(ctx, k, ctx.lam(p))

    def path_weight(self, ctx, path):
        total = ctx.one()
        for u, w in path.steps[::2]:
            total = total * self.step_weight(ctx, u, w)
        return total

    def crossed_arcs(self, i, j):
        """Arcs of the dissection crossing (v_i,v_j), ordered from v_i."""
        out = []
        for pair in self.arc_pairs:
            a, b = sorted(pair)
            if chords_cross(i, j, a, b):
                out.append((_cross_param(i, j, a, b), pair))
        out.sort()
        return out

    def crossed_subgons(self, i, j):
        """Subgons met by the diagonal (v_i, v_j), in order: the one at
        v_i, then one per crossed arc."""
        arcs = self.crossed_arcs(i, j)
        order = []
        # subgon adjacency across arcs
        arc_faces = {}
        for fid, vs in self.faces.items():
            vset = set(vs)
            for pair in self.arc_pairs:
                if pair <= vset:
                    arc_faces.setdefault(pair, []).append(fid)
        cur = None
        for fid, vs in self.faces.items():
            if i in vs and (not arcs or set(arcs[0][1]) <= set(vs)):
                if not arcs and j not in vs:
                    continue
                cur = fid
                break
        if cur is None:
            raise AssertionError("could not locate the first crossed subgon")
        order.append(cur)
        for t, pair in arcs:
            nxts = [f for f in arc_faces[pair] if f != order[-1]]
            if len(nxts) != 1:
                raise AssertionError("arc does not separate two subgons")
            order.append(nxts[0])
        return order


def enumerate_tpaths(D, i, j, kind="weak"):
    """All T-paths from v_i to v_j (1-based vertex numbers, i != j)."""
    yield from _tpaths(_PolygonGeometry(D), i, j, kind)


def weighted_tpaths(D, i, j, kind="weak", ctx=None):
    """(path, weight) for every T-path of ``enumerate_tpaths``, all on one
    build of the dissection's tables."""
    geo = _PolygonGeometry(D)
    if ctx is None:
        ctx = quiddity_of(D).context
    for path in _tpaths(geo, i, j, kind):
        yield path, geo.path_weight(ctx, path)


def _tpaths(geo, i, j, kind):
    if i == j:
        raise ValueError("endpoints must be distinct")
    n = geo.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("vertex out of range")
    crossed = geo.crossed_arcs(i, j)
    if kind == "complete":
        yield from _complete_tpaths(geo, i, j, crossed)
        return
    if kind != "weak":
        raise ValueError("kind must be weak or complete")

    all_chords = sorted(geo.chords, key=lambda s: tuple(sorted(s)))

    def rec(pos, steps, used, last_cross):
        # odd step next
        for key in all_chords:
            if pos not in key or key in used:
                continue
            (w,) = key - {pos}
            nsteps = steps + ((pos, w),)
            if w == j:
                yield TPath(i, j, nsteps)
            # even step next: an arc crossing (v_i,v_j) further along
            for t, pair in crossed:
                if (t <= last_cross or pair in used or pair == key
                        or w not in pair):
                    continue
                (u2,) = pair - {w}
                yield from rec(u2, nsteps + ((w, u2),),
                               used | {key, pair}, t)

    yield from rec(i, (), frozenset(), Fraction(-1))


def _complete_tpaths(geo, i, j, crossed):
    """Walks with exactly one even step along each crossed arc, in order,
    odd steps chaining them inside single subgons (conditions 1-2 + 3')."""
    d = len(crossed)

    def rec(pos, idx, steps):
        if idx == d:
            if pos != j and frozenset((pos, j)) in geo.chords:
                yield TPath(i, j, steps + ((pos, j),))
            return
        _t, pair = crossed[idx]
        for u in sorted(pair):
            w = next(iter(pair - {u}))
            if pos == u:
                continue  # the odd step must move
            if frozenset((pos, u)) not in geo.chords:
                continue
            yield from rec(w, idx + 1, steps + ((pos, u), (u, w)))

    yield from rec(i, 0, ())


def tpath_weight(D, path, ctx=None):
    """Product of odd-step weights over even-step weights; even steps are
    arcs of the dissection (weight one), so no ring division happens."""
    if ctx is None:
        ctx = quiddity_of(D).context
    return _PolygonGeometry(D).path_weight(ctx, path)


def tpath_sum(D, i, j, kind="weak", ctx=None):
    if ctx is None:
        ctx = quiddity_of(D).context
    return sum((wt for _path, wt in weighted_tpaths(D, i, j, kind, ctx)),
               ctx.zero())


def _left_counts(geo, i, j, path):
    """Vertices of the ell-th crossed subgon strictly on the clockwise
    side of the ell-th odd step."""
    subgons = geo.crossed_subgons(i, j)
    out = []
    for ell, fid in enumerate(subgons):
        u, w = path.steps[2 * ell]
        pu, pw = _pt(u), _pt(w)
        c = sum(1 for x in geo.faces[fid]
                if x not in (u, w) and _orient(pu, pw, _pt(x)) < 0)
        out.append(c)
    return tuple(out)


def phi_bijection(D, i, j):
    """The weight-preserving bijection from nonzero-traditional-weight
    matchings between v_i and v_j to complete T-paths: the number of
    vertices of each crossed subgon left of the corresponding odd step
    equals its occurrence count in the matching.  Returns the mapping
    {Matching: TPath}; raises if it fails to be a weight-preserving
    bijection."""
    geo = _PolygonGeometry(D)
    Q = quiddity_of(D)
    ctx = Q.context
    # left-counts depend on the traversal direction; use the
    # counterclockwise one
    i, j = min(i, j), max(i, j)
    subgons = geo.crossed_subgons(i, j)

    paths = {}
    for path in _tpaths(geo, i, j, "complete"):
        key = _left_counts(geo, i, j, path)
        if key in paths:
            raise AssertionError("two complete T-paths share a left-count "
                                 "vector")
        paths[key] = path

    mapping = {}
    used = set()
    for w in enumerate_matchings(D, i, j):
        wt = weigh_matching(w, "traditional", D, ctx)
        if wt.is_zero():
            continue
        counts = {}
        for _key, fid, _t in w.choice:
            counts[fid] = counts.get(fid, 0) + 1
        key = tuple(counts.get(fid, 0) for fid in subgons)
        if key not in paths:
            raise AssertionError("no complete T-path matches occurrence "
                                 "vector %r" % (key,))
        path = paths[key]
        if path in used:
            raise AssertionError("mapping is not injective")
        if geo.path_weight(ctx, path) != wt:
            raise AssertionError("weights differ across the bijection")
        mapping[w] = path
        used.add(path)
    if len(mapping) != len(paths):
        raise AssertionError("mapping is not surjective")
    return mapping
