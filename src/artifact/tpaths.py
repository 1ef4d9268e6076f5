"""Weak and complete T-paths on dissected polygons.

Vertices v_1..v_n are numbered in the polygon's cyclic order, and every
crossing test reads that order alone.  A step is an oriented chord lying
inside a single subgon; even steps travel along arcs of the dissection
that cross the reference diagonal (v_i, v_j), in the order they cross it.
Summing step-weight products over weak T-paths recovers the frieze entry
m_{i,j}; complete T-paths biject with the nonzero-traditional-weight
matchings.
"""

from dataclasses import dataclass

# steps are weighed through matchings._u; chebyshev_u stays bound here
# because bench/test_bench.py checks that the tracer wraps it in tpaths
from .ring import chebyshev_u  # noqa: F401
from .matchings import _u, nonzero_traditional_matchings, weigh_matching


def _between(x, u, w, n):
    """Is v_x strictly inside the run of the boundary from v_u forward to
    v_w?"""
    return 0 < (x - u) % n < (w - u) % n


@dataclass(frozen=True)
class TPath:
    i: int
    j: int
    steps: tuple  # oriented steps (source_vertex, target_vertex)

    def __len__(self):
        return len(self.steps)


class PolygonGeometry:
    """Per-dissection tables: each subgon's vertices and, read from the
    corner tables, the subgons at each vertex; O(n + sum of subgon sizes).
    The step weights U_k(lambda_p) come from the process-wide cache of
    ``matchings``."""

    def __init__(self, D):
        if D.is_quotient() or D.surface.kind != "polygon":
            raise ValueError("T-paths are defined on dissected polygons")
        self.n = D.surface.n
        self.context = D.context
        # fid -> sorted vertex numbers
        self.faces = {f.id: sorted(x + 1 for x in f.bottom_coords())
                      for f in D.base_faces}
        # vertex -> fids of the subgons holding it
        self.faces_at = {i: {fid for fid, _t in corners}
                         for i, corners in D.outer_corners.items()}
        self.arc_pairs = [frozenset((arc.a, arc.b)) for arc in D.arcs]

    def _skip(self, u, w):
        """(k, p) for the step u->w inside a p-gon, whose weight is
        U_k(lambda_p); the p-gon is the least face id u and w share (an
        edge of two subgons has weight 1 in either)."""
        shared = self.faces_at.get(u, set()) & self.faces_at.get(w, set())
        if u == w or not shared:
            raise ValueError("step (%d,%d) is not contained in one subgon"
                             % (u, w))
        vs = self.faces[min(shared)]
        p = len(vs)
        # skip count: subgon vertices strictly between u and w on one side;
        # the two sides give equal weights, U_k = U_{p-2-k} at lambda_p, so
        # take the shorter one
        k = abs(vs.index(w) - vs.index(u)) - 1
        return min(k, p - 2 - k), p

    def path_weight(self, path):
        ctx = self.context
        total = ctx.one()
        for u, w in path.steps[::2]:
            k, p = self._skip(u, w)
            if k:  # U_0 = 1
                total = total * _u(ctx, k, p)
        return total

    def crossed_arcs(self, i, j):
        """Arcs of the dissection crossing (v_i,v_j), ordered from v_i.  An
        arc crosses when one end a is strictly inside the run i -> j and
        the other end b strictly inside j -> i.  Arcs crossing one diagonal
        nest, so the one met first has the earliest a and, among arcs
        sharing that a, the latest b."""
        n = self.n
        crossed = {}
        for pair in self.arc_pairs:
            a, b = pair
            if _between(b, i, j, n):
                a, b = b, a
            if _between(a, i, j, n) and _between(b, j, i, n):
                crossed[pair] = ((a - i) % n, -((b - j) % n))
        return sorted(crossed, key=crossed.get)

    def crossed_subgons(self, i, j):
        """Subgons met by the diagonal (v_i, v_j), in order: for each pair
        of neighbouring walls [{i}, arc_1, ..., arc_d, {j}], the subgon
        holding both.  When (v_i, v_j) is itself an arc, two subgons hold
        it and the lower face id is taken."""
        walls = [{i}, *self.crossed_arcs(i, j), {j}]
        order = []
        for w1, w2 in zip(walls, walls[1:]):
            fids = set.intersection(*(self.faces_at[x] for x in w1 | w2))
            if not fids:
                raise AssertionError("no subgon holds two neighbouring "
                                     "walls of the diagonal")
            order.append(min(fids))
        return order


def enumerate_tpaths(D, i, j, kind="weak"):
    """All T-paths from v_i to v_j (1-based vertex numbers, i != j)."""
    yield from _tpaths(PolygonGeometry(D), i, j, kind)


def weighted_tpaths(D, i, j, kind="weak"):
    """(path, weight) for every T-path of ``enumerate_tpaths``, all on one
    build of the dissection's tables."""
    geo = PolygonGeometry(D)
    for path in _tpaths(geo, i, j, kind):
        yield path, geo.path_weight(path)


def _tpaths(geo, i, j, kind):
    """The walk of the T-paths from v_i to v_j; the endpoints and kind are
    checked before it is returned."""
    if i == j:
        raise ValueError("endpoints must be distinct")
    n = geo.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("vertex out of range")
    crossed = geo.crossed_arcs(i, j)
    if kind == "complete":
        return _complete_tpaths(geo, i, j, crossed)
    if kind != "weak":
        raise ValueError("kind must be weak or complete")

    def extend(pos, trail, used, last_cross):
        # odd step next, to each vertex sharing a subgon with pos, in order
        ahead = set().union(*map(geo.faces.get, geo.faces_at[pos]))
        for w in sorted(ahead - {pos}):
            key = frozenset((pos, w))
            if key in used:
                continue
            odd = (trail, (pos, w))
            if w == j:
                yield TPath(i, j, _steps(odd))
            # even step next: an arc crossing (v_i,v_j) further along
            for t, pair in enumerate(crossed):
                if (t <= last_cross or pair in used or pair == key
                        or w not in pair):
                    continue
                (u2,) = pair - {w}
                yield extend(u2, (odd, (w, u2)), used | {key, pair}, t)

    return _depth_first(extend(i, None, frozenset(), -1))


def _complete_tpaths(geo, i, j, crossed):
    """Walks with exactly one even step along each crossed arc, in order,
    odd steps chaining them inside single subgons (conditions 1-2 + 3')."""
    d = len(crossed)

    def extend(pos, idx, trail):
        if idx == d:
            if pos != j and not geo.faces_at[pos].isdisjoint(geo.faces_at[j]):
                yield TPath(i, j, _steps((trail, (pos, j))))
            return
        pair = crossed[idx]
        for u in sorted(pair):
            w = next(iter(pair - {u}))
            # the odd step must move, inside one subgon
            if pos == u or geo.faces_at[pos].isdisjoint(geo.faces_at[u]):
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


def tpath_weight(D, path):
    """Product of odd-step weights over even-step weights; even steps are
    arcs of the dissection (weight one), so no ring division happens."""
    return PolygonGeometry(D).path_weight(path)


def tpath_sum(D, i, j, kind="weak"):
    return sum((wt for _path, wt in weighted_tpaths(D, i, j, kind)),
               D.context.zero())


def _left_counts(geo, subgons, path):
    """Vertices of the ell-th crossed subgon strictly on the clockwise
    side of the ell-th odd step u->w: those inside the run u -> w."""
    return tuple(sum(_between(x, u, w, geo.n) for x in geo.faces[fid])
                 for fid, (u, w) in zip(subgons, path.steps[::2]))


def phi_bijection(D, i, j):
    """The weight-preserving bijection from nonzero-traditional-weight
    matchings between v_i and v_j to complete T-paths: the number of
    vertices of each crossed subgon left of the corresponding odd step
    equals its occurrence count in the matching.  Returns the mapping
    {Matching: TPath}; raises if it fails to be a weight-preserving
    bijection.  Only the matchings of nonzero weight are walked, and
    each is weighed again and must not be zero."""
    geo = PolygonGeometry(D)
    # left-counts depend on the traversal direction; use the
    # counterclockwise one
    i, j = min(i, j), max(i, j)
    complete = _tpaths(geo, i, j, "complete")
    # endpoints first, then the matching budget, before any T-path is walked
    matchings = nonzero_traditional_matchings(D, i, j)
    subgons = geo.crossed_subgons(i, j)

    paths = {}
    for path in complete:
        key = _left_counts(geo, subgons, path)
        if key in paths:
            raise AssertionError("two complete T-paths share a left-count "
                                 "vector")
        paths[key] = path

    mapping = {}
    used = set()
    for w in matchings:
        wt = weigh_matching(w, "traditional", D)
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
        if geo.path_weight(path) != wt:
            raise AssertionError("weights differ across the bijection")
        mapping[w] = path
        used.add(path)
    if len(mapping) != len(paths):
        raise AssertionError("mapping is not surjective")
    return mapping
