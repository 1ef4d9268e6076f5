"""The coordinate geometry that ``PolygonGeometry`` used before it read
crossings from the polygon's cyclic order: vertex v_a placed at (a, a^2),
so every polygon is convex, and crossings ordered by exact ``Fraction``
positions along the diagonal.  Kept as the oracle of the cyclic-order
tables; each function takes the dissection's ``PolygonGeometry`` for its
faces and arcs."""

from fractions import Fraction

from artifact.surface import chords_cross


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


def crossed_arcs(geo, i, j):
    """(position, arc) for the arcs crossing (v_i,v_j), ordered from v_i."""
    out = []
    for pair in geo.arc_pairs:
        a, b = sorted(pair)
        if chords_cross(i, j, a, b):
            out.append((_cross_param(i, j, a, b), pair))
    out.sort()
    return out


def crossed_subgons(geo, i, j):
    """Subgons met by the diagonal (v_i, v_j), in order: the one at v_i,
    then one per crossed arc."""
    arcs = crossed_arcs(geo, i, j)
    order = []
    # subgon adjacency across arcs
    arc_faces = {}
    for fid, vs in geo.faces.items():
        vset = set(vs)
        for pair in geo.arc_pairs:
            if pair <= vset:
                arc_faces.setdefault(pair, []).append(fid)
    cur = None
    for fid, vs in geo.faces.items():
        if i in vs and (not arcs or set(arcs[0][1]) <= set(vs)):
            if not arcs and j not in vs:
                continue
            cur = fid
            break
    if cur is None:
        raise AssertionError("could not locate the first crossed subgon")
    order.append(cur)
    for _t, pair in arcs:
        nxts = [f for f in arc_faces[pair] if f != order[-1]]
        if len(nxts) != 1:
            raise AssertionError("arc does not separate two subgons")
        order.append(nxts[0])
    return order


def left_counts(geo, subgons, path):
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
