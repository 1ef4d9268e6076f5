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
from functools import partial
from fractions import Fraction

from .ring import chebyshev_u
from .surface import chords_cross, quiddity_of
from .matchings import nonzero_traditional_matchings, weigh_matching


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


class PolygonGeometry:
    """Per-dissection tables: subgon membership, chord weights, arcs.  One
    geometry serves every query of a run, and keeps the values
    U_k(lambda_p) it has computed."""

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
        self._u = {}             # (ctx, k, p) -> U_k(lambda_p)

    def u(self, ctx, k, p):
        """U_k(lambda_p) in ctx, computed once per geometry."""
        val = self._u.get((ctx, k, p))
        if val is None:
            val = self._u[ctx, k, p] = chebyshev_u(ctx, k, ctx.lam(p))
        return val

    def _skip(self, u, w):
        """(k, p) for the step u->w inside a p-gon, whose weight is
        U_k(lambda_p)."""
        fid = self.chords.get(frozenset((u, w)))
        if fid is None:
            raise ValueError("step (%d,%d) is not contained in one subgon"
                             % (u, w))
        vs = self.faces[fid]
        p = len(vs)
        # skip count: subgon vertices strictly between u and w on one side;
        # the two sides give equal weights, U_k = U_{p-2-k} at lambda_p, so
        # take the shorter one
        k = abs(vs.index(w) - vs.index(u)) - 1
        return min(k, p - 2 - k), p

    def path_weight(self, ctx, path):
        total = ctx.one()
        for u, w in path.steps[::2]:
            k, p = self._skip(u, w)
            if k:  # U_0 = 1
                total = total * self.u(ctx, k, p)
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
    yield from _tpaths(PolygonGeometry(D), i, j, kind)


def weighted_tpaths(D, i, j, kind="weak", ctx=None, geo=None):
    """(path, weight) for every T-path of ``enumerate_tpaths``, all on one
    build of the dissection's tables (``geo``, built if not given)."""
    if geo is None:
        geo = PolygonGeometry(D)
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

    def extend(pos, trail, used, last_cross):
        # odd step next
        for key in all_chords:
            if pos not in key or key in used:
                continue
            (w,) = key - {pos}
            odd = (trail, (pos, w))
            if w == j:
                yield TPath(i, j, _steps(odd))
            # even step next: an arc crossing (v_i,v_j) further along
            for t, pair in crossed:
                if (t <= last_cross or pair in used or pair == key
                        or w not in pair):
                    continue
                (u2,) = pair - {w}
                yield extend(u2, (odd, (w, u2)), used | {key, pair}, t)

    yield from _depth_first(extend(i, None, frozenset(), Fraction(-1)))


def _complete_tpaths(geo, i, j, crossed):
    """Walks with exactly one even step along each crossed arc, in order,
    odd steps chaining them inside single subgons (conditions 1-2 + 3')."""
    d = len(crossed)

    def extend(pos, idx, trail):
        if idx == d:
            if pos != j and frozenset((pos, j)) in geo.chords:
                yield TPath(i, j, _steps((trail, (pos, j))))
            return
        _t, pair = crossed[idx]
        for u in sorted(pair):
            w = next(iter(pair - {u}))
            if pos == u:
                continue  # the odd step must move
            if frozenset((pos, u)) not in geo.chords:
                continue
            yield extend(w, idx + 1, ((trail, (pos, u)), (u, w)))

    yield from _depth_first(extend(i, 0, None))


def _depth_first(root):
    """The T-paths of a walk, depth first on an explicit stack, so that a
    path may cross any number of arcs.  A node of the walk is a generator
    yielding, in order, the paths it finishes and the nodes that extend
    it."""
    stack = [root]
    while stack:
        for item in stack[-1]:
            if isinstance(item, TPath):
                yield item
            else:
                stack.append(item)
                break
        else:
            stack.pop()


def _steps(trail):
    """The steps of a trail: nested pairs (earlier trail, last step),
    shared between the paths that extend it."""
    steps = []
    while trail is not None:
        trail, step = trail
        steps.append(step)
    return tuple(reversed(steps))


def tpath_weight(D, path, ctx=None):
    """Product of odd-step weights over even-step weights; even steps are
    arcs of the dissection (weight one), so no ring division happens."""
    if ctx is None:
        ctx = quiddity_of(D).context
    return PolygonGeometry(D).path_weight(ctx, path)


def tpath_sum(D, i, j, kind="weak", ctx=None):
    if ctx is None:
        ctx = quiddity_of(D).context
    return sum((wt for _path, wt in weighted_tpaths(D, i, j, kind, ctx)),
               ctx.zero())


def _left_counts(geo, subgons, path):
    """Vertices of the ell-th crossed subgon strictly on the clockwise
    side of the ell-th odd step."""
    out = []
    for ell, fid in enumerate(subgons):
        u, w = path.steps[2 * ell]
        pu, pw = _pt(u), _pt(w)
        c = sum(1 for x in geo.faces[fid]
                if x not in (u, w) and _orient(pu, pw, _pt(x)) < 0)
        out.append(c)
    return tuple(out)


def phi_bijection(D, i, j, ctx=None, geo=None):
    """The weight-preserving bijection from nonzero-traditional-weight
    matchings between v_i and v_j to complete T-paths: the number of
    vertices of each crossed subgon left of the corresponding odd step
    equals its occurrence count in the matching.  Returns the mapping
    {Matching: TPath}; raises if it fails to be a weight-preserving
    bijection.  Only the matchings of nonzero weight are walked, and
    each is weighed again and must not be zero.  ``geo`` is the
    dissection's ``PolygonGeometry``, built if not given."""
    if geo is None:
        geo = PolygonGeometry(D)
    if ctx is None:
        ctx = quiddity_of(D).context
    # left-counts depend on the traversal direction; use the
    # counterclockwise one
    i, j = min(i, j), max(i, j)
    subgons = geo.crossed_subgons(i, j)

    paths = {}
    for path in _tpaths(geo, i, j, "complete"):
        key = _left_counts(geo, subgons, path)
        if key in paths:
            raise AssertionError("two complete T-paths share a left-count "
                                 "vector")
        paths[key] = path

    mapping = {}
    used = set()
    u = partial(geo.u, ctx)
    for w in nonzero_traditional_matchings(D, i, j):
        wt = weigh_matching(w, "traditional", D, ctx, u)
        if wt.is_zero():
            raise AssertionError("the pruned walk kept a matching of zero "
                                 "weight")
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
