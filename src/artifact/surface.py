"""Combinatorial model of dissected polygons, punctured discs and annuli.

Surfaces carry n outer marked points (counterclockwise) and, for annuli,
m inner marked points.  Arcs are stored combinatorially.  Vertices are
named in the universal cover: the annulus and the once-punctured disc
unroll to an infinite horizontal strip whose bottom line carries the lifts
v_i^k of the outer vertices and whose top line carries the lifts w_j^k of
the inner vertices (a single point at +infinity for the disc, reached by
asymptotic arcs).  The faces of parsed input are found with one sweep of
the boundary of a strip window, read as a line: the bottom line
rightward, then the top line leftward, or the puncture.  The lifts of the
arcs are chords on that line, and each open chord holds the face under
it; a face kept is listed counterclockwise from its leftmost bottom
vertex, which lies in [0, n).  A polygon is one period, and the region
outside all its diagonals is its last face.

Ears and relabellings compose into one vertex map (``glue_ears``), of
which gluing one ear and rotating the labels are one-step forms.  Only
parsed input is swept: a skeletal core's faces are read off its layout,
and its arcs still get the sweep's arc check; a glued dissection's faces
are those it glues onto, moved by the map, plus one per ear, and a
power's are its base faces, translated.  A build checks the tiling by
counting each vertex's corners and orders them only when a table is read.

Strip coordinates: the bottom vertex v_i^k sits at global position
x = (i-1) + k*n, the top vertex w_j^k at y = (j-1) + k*m.  A bridging arc
of an annulus carries a shift bit recording whether its lift runs
v_a^0 -> w_b^0 or v_a^0 -> w_b^1 (dissections are considered up to Dehn
twist, and every class has such a representative).  Outside the text
format, ``_arc_ends`` (the ends of an arc's lift k) and its inverse
``_arc_of`` are the only place where the shift bit and the far ends are
read or written.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Tuple

from .ring import make_context


@dataclass(frozen=True)
class Surface:
    kind: str          # "polygon" | "disc" | "annulus"
    n: int
    m: int = 0

    def __post_init__(self):
        if self.kind == "polygon":
            if self.n < 3:
                raise ValueError("polygon needs n >= 3")
        elif self.kind == "disc":
            if self.n < 1:
                raise ValueError("disc needs n >= 1")
        elif self.kind == "annulus":
            if self.n < 1 or self.m < 1:
                raise ValueError("annulus needs n >= 1 and m >= 1")
        else:
            raise ValueError("unknown surface kind %r" % (self.kind,))


def polygon(n):
    return Surface("polygon", n)


def punctured_disc(n):
    return Surface("disc", n)


def annulus(n, m):
    return Surface("annulus", n, m)


class Arc(NamedTuple):
    """An arc of a dissection; a named tuple, so it orders, hashes and
    compares equal as the plain tuple (kind, a, b, shift).

    kinds: ``peri`` (counterclockwise outer peripheral from v_a to v_b),
    ``bridge`` (annulus, v_a to w_b with a strip shift bit),
    ``bridge_disc`` (v_a to the puncture), ``diag`` (polygon diagonal).
    """
    kind: str
    a: int
    b: int = 0
    shift: int = 0


# vertex labels in the strip: ("b", x) bottom, ("t", y) top, ("inf",) puncture
_INF = ("inf",)


def _translate_vertex(v, t, n, m):
    if v[0] == "b":
        return ("b", v[1] + t * n)
    if v[0] == "t":
        return ("t", v[1] + t * m)
    return v


def _arc_ends(arc, k, n, m):
    """The strip ends of lift k of an arc: v_a^k, then its far end on the
    bottom line, on the top line or at the puncture."""
    x = arc.a - 1 + k * n
    if arc.kind == "bridge":
        return ("b", x), ("t", arc.b - 1 + (arc.shift + k) * m)
    if arc.kind == "bridge_disc":
        return ("b", x), _INF
    # a peripheral arc runs counterclockwise, so it ends right of v_a^k
    far = arc.b - 1 + k * n
    if arc.kind == "peri" and arc.b <= arc.a:
        far += n
    return ("b", x), ("b", far)


def _arc_of(kind, p, q, n, m):
    """The arc of the given kind with a lift from p to q; inverts
    ``_arc_ends``."""
    k, i = divmod(p[1], n)
    if kind == "bridge":
        shift, j = divmod(q[1] - k * m, m)
        if shift not in (0, 1):
            raise AssertionError("bridging shift %d outside {0, 1}" % shift)
        return Arc(kind, i + 1, j + 1, shift)
    if kind == "bridge_disc":
        return Arc(kind, i + 1)
    return Arc(kind, i + 1, q[1] % n + 1)


class Face(NamedTuple):
    """A base face (subgon): cyclic vertex list in counterclockwise order,
    listed from its leftmost bottom vertex, which lies in [0, n)."""
    id: int
    verts: Tuple[tuple, ...]

    @property
    def size(self):
        return len(self.verts)

    def bottom_coords(self):
        return [v[1] for v in self.verts if v[0] == "b"]

    def top_coords(self):
        return [v[1] for v in self.verts if v[0] == "t"]


def _normal_face(verts, n, m):
    """A lifted face listed from its leftmost bottom vertex and translated t
    periods back so that vertex lies in [0, n); returns it and t."""
    bottom = [(v[1], k) for k, v in enumerate(verts) if v[0] == "b"]
    if not bottom:
        raise ValueError("face with no outer-boundary vertex")
    x, k = min(bottom)
    t = x // n
    return tuple(_translate_vertex(v, -t, n, m)
                 for v in verts[k:] + verts[:k]), t


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

def chords_cross(a, b, c, d):
    """Do chords {a,b} and {c,d} of a convex polygon cross internally?
    Vertices are numbered in cyclic order; chords sharing an endpoint do
    not cross."""
    if len({a, b, c, d}) < 4:
        return False
    lo, hi = min(a, b), max(a, b)
    return (lo < c < hi) != (lo < d < hi)


def _check_nesting(spans):
    """Raise unless chords, given as (left end, -right end) pairs of their
    boundary positions, pairwise nest or are disjoint; returns them sorted.
    Sorted, they come by left end and, for one left end, longest first; the
    spans still open form a stack, and each new span must end inside the
    innermost one that has not closed before it starts."""
    spans = sorted(spans)
    open_ends = []
    for lo, neg_hi in spans:
        while open_ends and open_ends[-1] <= lo:
            open_ends.pop()
        if open_ends and open_ends[-1] < -neg_hi:
            raise ValueError("crossing arcs")
        open_ends.append(-neg_hi)
    return spans


# ---------------------------------------------------------------------------
# dissections
# ---------------------------------------------------------------------------

class Dissection:
    """A validated dissection with derived base faces.

    ``base_faces`` is a list of Face records with deterministic ids; lifted
    faces are pairs (fid, t) meaning the base face translated t periods to
    the right.  ``outer_corners[i]`` lists the lifts having a corner at
    v_i^0 in counterclockwise angular order around the vertex, and
    ``inner_corners[j]`` those at w_j^0; both are ordered on first read.
    """

    def __init__(self, surface, arcs):
        self._set_arcs(surface, arcs)
        self._compute_faces()

    @classmethod
    def _assemble(cls, surface, arcs, faces):
        """A dissection with known faces, each from its leftmost bottom vertex
        in [0, n): validated, numbered and checked to tile, not swept, nor
        are its arcs checked for crossings as ``_check_arcs`` does."""
        D = cls.__new__(cls)
        D._set_arcs(surface, arcs)
        D._set_faces(faces)
        return D

    def _set_arcs(self, surface, arcs):
        self.surface = surface
        arcs = list(arcs)
        if len(set(arcs)) != len(arcs):
            raise ValueError("duplicate arcs")
        self.arcs = tuple(sorted(arcs))
        self._validate_arcs()

    # -- validation ---------------------------------------------------------

    def _validate_arcs(self):
        s = self.surface
        kinds_ok = {
            "polygon": {"diag"},
            "disc": {"bridge_disc", "peri"},
            "annulus": {"bridge", "peri"},
        }[s.kind]
        for arc in self.arcs:
            if arc.kind not in kinds_ok:
                raise ValueError("arc kind %r invalid on %s" % (arc.kind, s.kind))
            if arc.kind == "diag":
                if not (1 <= arc.a <= s.n and 1 <= arc.b <= s.n):
                    raise ValueError("diagonal endpoint out of range")
                if arc.a == arc.b or (arc.b - arc.a) % s.n in (1, s.n - 1):
                    raise ValueError("diagonal must join non-adjacent vertices")
            elif arc.kind == "peri":
                if not (1 <= arc.a <= s.n and 1 <= arc.b <= s.n):
                    raise ValueError("peripheral endpoint out of range")
                if (arc.b - arc.a) % s.n == 1:
                    raise ValueError("peripheral arc parallel to a boundary edge")
            elif arc.kind == "bridge":
                if not (1 <= arc.a <= s.n and 1 <= arc.b <= s.m):
                    raise ValueError("bridging endpoint out of range")
                if arc.shift not in (0, 1):
                    raise ValueError("bridging shift must be 0 or 1")
            elif arc.kind == "bridge_disc":
                if not 1 <= arc.a <= s.n:
                    raise ValueError("bridging endpoint out of range")
        if s.kind == "annulus" and not any(a.kind == "bridge" for a in self.arcs):
            raise ValueError("annulus dissection must contain a bridging arc")
        if s.kind == "disc" and not any(a.kind == "bridge_disc" for a in self.arcs):
            raise ValueError("punctured-disc dissection must contain a bridging arc")

    # -- strip materialization ---------------------------------------------

    def _chord_lifts(self, x_lo, x_hi, y_lo, y_hi):
        """All chords (vertex-label pairs) whose lifts fit in the window."""
        n, m = self.surface.n, self.surface.m
        chords = []
        for arc in self.arcs:
            if arc.kind == "diag":
                # smaller end first, as every other kind lifts
                chords.append(tuple(sorted(_arc_ends(arc, 0, n, m))))
                continue
            # the lifts whose v_a^k lies in the window, if the far end fits
            xa = arc.a - 1
            for k in range(-((xa - x_lo) // n), (x_hi - xa) // n + 1):
                p, q = _arc_ends(arc, k, n, m)
                if q[0] == "b" and q[1] > x_hi or (
                        q[0] == "t" and not y_lo <= q[1] <= y_hi):
                    continue
                chords.append((p, q))
        return chords

    def _compute_faces(self):
        """Find the faces with one sweep of the boundary positions that
        ``_check_arcs`` ranks.  Each chord, while open, holds the face under
        it; at a position the chords ending there close, innermost first,
        the position joins the face then on top, and the chords starting
        there open, outermost first.  A face under a chord is listed
        counterclockwise from the chord's left end, its leftmost bottom
        vertex, and kept when that lies in [0, n).  The chords starting in
        [0, 2n) suffice: those inside a kept face, and the bridge after it,
        start less than a period after it.  The face under the last bridge,
        open where the sweep passes to the top line, is cut by the window
        and starts at or past n, as the next lift of a bridge from [0, n)
        does.  The outer region is a polygon's last face; on a strip it is
        cut by the window too."""
        n, m = self.surface.n, self.surface.m
        spans = self._check_arcs()
        spans = spans[bisect_left(spans, (0,)):bisect_left(spans, (2 * n,))]
        top = 3 * n + 4 * m
        outer = []
        stack = [(-1, outer)]  # (right end, face) of each open chord
        faces = []
        k = 0
        for p in range(max([n - 1] + [-hi for _lo, hi in spans]) + 1):
            v = ("b", p) if p < 3 * n else ("t", top - p) if m else _INF
            while stack[-1][0] == p:
                face = stack.pop()[1]
                face.append(v)
                if face[0][1] < n:
                    faces.append(tuple(face))
            stack[-1][1].append(v)
            while k < len(spans) and spans[k][0] == p:
                stack.append((-spans[k][1], [v]))
                k += 1
        if self.surface.kind == "polygon":
            faces.append(tuple(outer))
        self._set_faces(faces)

    def _check_arcs(self):
        """Raise on duplicate arcs, on arcs parallel to a boundary edge and
        on crossing arcs; returns the spans of lifts -2..2 of the arcs as
        sorted (left end, -right end) pairs of boundary positions."""
        n, m = self.surface.n, self.surface.m
        # two crossing lifts lie at most one period apart, so lifts -2..2 show
        # every crossing; positions run rightward along the bottom, x at x,
        # then leftward along the top, y at 3n + 4m - y, or to the puncture
        # at 3n
        chords = self._chord_lifts(-2 * n, 3 * n - 1, -2 * m, 4 * m - 1)
        # a diagonal listed both ways round lifts to the same chord twice
        if len(set(chords)) < len(chords) or any(
                q[0] == "b" and q[1] - p[1] == 1 for p, q in chords):
            raise ValueError("duplicate arc or arc parallel to a boundary edge")
        top = 3 * n + 4 * m
        return _check_nesting([(p[1], -q[1] if q[0] == "b" else
                                (q[1] if q[0] == "t" else 0) - top)
                               for p, q in chords])

    def _set_faces(self, faces):
        faces = sorted(faces, key=lambda vs: (len(vs), vs))
        self.base_faces = [Face(i, vs) for i, vs in enumerate(faces)]
        for f in self.base_faces:
            if f.size < 3:
                raise ValueError("dissection produces a face of size < 3")
        self._index_corners()

    def _index_corners(self):
        """Drop each face corner (face, index) into the bucket of its vertex
        and check the tiling by counting: a vertex with d arc ends has d + 1
        corners.  The buckets are put in order only when a table is read."""
        s = self.surface
        n, m = s.n, s.m
        outer = [[] for _ in range(n)]
        inner = [[] for _ in range(m)]
        for f in self.base_faces:
            for k, v in enumerate(f.verts):
                if v[0] == "b":
                    outer[v[1] % n].append((f, k))
                elif v[0] == "t":
                    inner[v[1] % m].append((f, k))
        self._corners = outer, inner
        # arc endpoints per vertex, counted in one pass over the arcs
        outer_degree = [0] * (n + 1)
        inner_degree = [0] * (m + 1)
        for arc in self.arcs:
            outer_degree[arc.a] += 1
            if arc.kind in ("diag", "peri"):
                outer_degree[arc.b] += 1
            elif arc.kind == "bridge":
                inner_degree[arc.b] += 1
        for buckets, degree in ((outer, outer_degree), (inner, inner_degree)):
            for i, bucket in enumerate(buckets, 1):
                if len(bucket) != degree[i] + 1:
                    raise ValueError(
                        "region around a vertex is not tiled by polygons "
                        "(vertex %d: %d corners, degree %d)"
                        % (i, len(bucket), degree[i]))

    outer_corners = cached_property(lambda self: self._ordered_corners(0))
    inner_corners = cached_property(lambda self: self._ordered_corners(1))

    def _ordered_corners(self, inner):
        """Label -> the lifts (fid, t) with a corner at the vertex's lift 0,
        counterclockwise: by the place of the face's next vertex along the
        strip boundary, from the vertex on, then by (fid, t).  Places are
        ``_check_arcs``'s: bottom x at x, top y at 3n + 4m - y, the puncture
        at 3n (m = 0).  A next vertex lies in [-2n, 2n) or [-2m, 3m), so one
        round, 2(3n + 4m), moves a place at or before its vertex's past all."""
        n, m = self.surface.n, self.surface.m
        top = 3 * n + 4 * m
        period = m if inner else n
        table = {}
        for i, bucket in enumerate(self._corners[inner]):
            own = top - i if inner else i
            keyed = []
            for f, k in bucket:
                verts = f.verts
                t = -(verts[k][1] // period)  # periods that move it to i
                w = verts[(k + 1) % len(verts)]
                p = (w[1] + t * n if w[0] == "b" else
                     top - w[1] - t * m if w[0] == "t" else top)
                keyed.append((p if p > own else p + 2 * top, f.id, t))
            keyed.sort()
            table[i + 1] = [(fid, t) for _p, fid, t in keyed]
        return table

    # -- lifted-face helpers -------------------------------------------------

    def face(self, fid):
        return self.base_faces[fid]

    def class_key(self, fid, t):
        """Identification class of a lifted face; trivial for plain
        dissections (every lift is its own class)."""
        return (fid, t)

    def corner_choices(self, g, boundary="outer"):
        """Distinct identification classes incident at the cover vertex with
        global coordinate g (bottom line for outer, top for inner), in
        counterclockwise corner order.  Returns [(class_key, fid, t)]."""
        s = self.surface
        if boundary == "outer":
            period, table = s.n, self.outer_corners
        else:
            period, table = s.m, self.inner_corners
        i = g % period + 1
        k = (g - (i - 1)) // period
        out = []
        seen = set()
        for fid, t in table[i]:
            key = self.class_key(fid, t + k)
            if key in seen:
                continue
            seen.add(key)
            out.append((key, fid, t + k))
        return out

    def is_quotient(self):
        return False

    @cached_property
    def context(self):
        """The ring of the face sizes.  Every face has an outer corner, so
        this is the context of ``quiddity_of(self)``."""
        return make_context(f.size for f in self.base_faces)

    @property
    def base(self):
        return self

    def __repr__(self):
        return "Dissection(%s)" % (format_dissection(self).replace("\n", "; "),)


def build_dissection(surface, arcs):
    """Validate and build a dissection, deriving its faces in the strip."""
    return Dissection(surface, arcs)


# ---------------------------------------------------------------------------
# quotient dissections
# ---------------------------------------------------------------------------

class _ClassMap:
    """Union-find over base face ids with translation offsets.

    The relation (f1, t) ~ (f2, t + delta) holds for all t; chains of
    identifications may force a class to be invariant under a nonzero
    period translation, recorded as a gcd period per root.
    """

    def __init__(self, nfaces):
        self.parent = list(range(nfaces))
        self.pot = [0] * nfaces     # (f, t) ~ (parent[f], t + pot[f])
        self.period = [0] * nfaces  # gcd of forced self-translations, 0 = none

    def find(self, f):
        """f's root and offset to it; the path is compressed on the way."""
        path = []
        while self.parent[f] != f:
            path.append(f)
            f = self.parent[f]
        p = 0
        for v in reversed(path):  # nearest the root first
            p += self.pot[v]
            self.pot[v] = p
            self.parent[v] = f
        return f, p

    def union(self, f1, f2, delta):
        """Impose (f1, t) ~ (f2, t + delta) for all t."""
        r1, p1 = self.find(f1)
        r2, p2 = self.find(f2)
        d = delta + p2 - p1  # (r1, t) ~ (r2, t + d)
        if r1 == r2:
            if d:
                self.period[r1] = math.gcd(self.period[r1], abs(d))
            return
        self.parent[r2] = r1
        self.pot[r2] = -d
        self.period[r1] = math.gcd(self.period[r1], self.period[r2])

    def key(self, f, t):
        r, p = self.find(f)
        s = t + p
        g = self.period[r]
        return (r, s % g if g else s)


class QuotientDissection(Dissection):
    """An annulus dissection with same-size subgons identified.

    Identified lifts are paired copy-by-copy in the cover: whenever two
    identified subgons share an outer vertex v_i, the two lifts incident to
    each v_i^k are identified, and the relation is closed under translation.
    Faces and corner tables are those of the base; only the classes differ.
    """

    def __init__(self, base, pairs):
        if base.surface.kind != "annulus":
            raise ValueError("quotient dissections live on annuli")
        self.base_dissection = base
        self.surface = base.surface
        self.arcs = base.arcs
        self.base_faces = base.base_faces
        # a pair (fa, fb) closes over every shared outer vertex; a triple
        # (fa, fb, delta) glues only at the stated translation offset
        self.trace = tuple(tuple(int(x) for x in p) for p in pairs)
        self._classes = _ClassMap(len(base.base_faces))
        for p in self.trace:
            self._merge(p[0], p[1], p[2] if len(p) > 2 else None)

    def _merge(self, fa, fb, delta=None):
        n, m = self.surface.n, self.surface.m
        nfaces = len(self.base_faces)
        if not (0 <= fa < nfaces and 0 <= fb < nfaces):
            raise ValueError("glue face id out of range")
        if fa == fb and not delta:
            # gluing a subgon to its own translate needs an explicit offset
            raise ValueError("cannot identify a subgon with itself")
        A, B = self.face(fa), self.face(fb)
        if A.size != B.size:
            raise ValueError("identified subgons must have equal size")
        for f in (A, B):
            if not f.top_coords() or not f.bottom_coords():
                raise ValueError(
                    "cannot identify a subgon with all vertices on one boundary")
        relations = []
        for xa in A.bottom_coords():
            for xb in B.bottom_coords():
                if (xa - xb) % n == 0 and (fa != fb or xa != xb):
                    # lifts of A and B meeting at the same cover vertex:
                    # (A, t) and (B, t + (xa - xb)/n)
                    relations.append((xa - xb) // n)
        if not relations:
            raise ValueError("identified subgons must share an outer vertex")
        if delta is not None:
            if delta not in relations:
                raise ValueError("glue offset %d has no shared outer vertex"
                                 % delta)
            relations = [delta]
        def cover_edges(face, t):
            k = len(face.verts)
            return {frozenset((_translate_vertex(face.verts[i], t, n, m),
                               _translate_vertex(face.verts[(i + 1) % k],
                                                 t, n, m)))
                    for i in range(k)}

        for d in relations:
            # the incident lift pair (A, 0) ~ (B, d) must not share an edge
            if cover_edges(A, 0) & cover_edges(B, d):
                raise ValueError("cannot identify subgons sharing an edge")
            self._classes.union(fa, fb, d)

    outer_corners = property(lambda self: self.base_dissection.outer_corners)
    inner_corners = property(lambda self: self.base_dissection.inner_corners)

    def class_key(self, fid, t):
        return self._classes.key(fid, t)

    def is_quotient(self):
        return True

    @property
    def base(self):
        return self.base_dissection

    def classes(self):
        """Partition of base face ids by identification class (ignoring
        translation offsets)."""
        groups = {}
        for f in range(len(self.base_faces)):
            r, _p = self._classes.find(f)
            groups.setdefault(r, []).append(f)
        return sorted(groups.values())

    def __repr__(self):
        return "QuotientDissection(glue=%s)" % (list(self.trace),)


def make_quotient(D, pairs):
    """Identify the listed face-id pairs, validating each against the
    quotient-dissection restrictions."""
    return QuotientDissection(D.base, pairs)


# ---------------------------------------------------------------------------
# quiddity derivation
# ---------------------------------------------------------------------------

def _corner_multisets(D, boundary="outer"):
    """A_i for each boundary vertex, read counterclockwise along that
    boundary: the sorted sizes of the distinct identification classes with
    a corner at v_i^0 (the small-half-circle count; for plain dissections
    every corner is its own class, so self-folded subgons contribute once
    per corner)."""
    s = D.surface
    inner = boundary == "inner"
    if inner and s.kind != "annulus":
        raise ValueError("inner boundary only exists on annuli")
    # read counterclockwise with respect to the inner boundary, which
    # reverses the strip direction
    labels = range(s.m, 0, -1) if inner else range(1, s.n + 1)
    if D.is_quotient():   # identified lifts at one vertex count once
        rows = ([D.face(c[1]) for c in D.corner_choices(i - 1, boundary)]
                for i in labels)
    else:                 # a multiset: the unordered buckets will do
        rows = ([f for f, _k in D._corners[inner][i - 1]] for i in labels)
    return tuple(tuple(sorted(len(f.verts) for f in row)) for row in rows)


def quiddity_of(D, boundary="outer"):
    """Derived quiddity cycle, with the multisets of ``_corner_multisets``."""
    from .frieze import QuiddityCycle, _sizes
    A = _corner_multisets(D, boundary)   # face sizes >= 3, no empty A_i
    return QuiddityCycle._trusted(A, make_context(_sizes(A)))


# ---------------------------------------------------------------------------
# powers, ears, rotation
# ---------------------------------------------------------------------------

def dissection_power(D, k):
    """The k-th power: the same strip pattern read over k periods, a
    dissection of A_{kn,km} or S_{kn}."""
    if D.is_quotient():
        raise ValueError("powers are defined for plain dissections")
    s = D.surface
    if s.kind == "polygon":
        raise ValueError("powers are defined on annuli and punctured discs")
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m = s.n, s.m
    # arc c of the power is lift c of the base arc, read over k periods
    arcs = [_arc_of(arc.kind, *_arc_ends(arc, c, n, m), k * n, k * m)
            for arc in D.arcs for c in range(k)]
    # the c-th translate of a base face starts at its leftmost vertex plus
    # c periods, which lies in [0, kn)
    faces = [tuple(_translate_vertex(v, c, n, m) for v in f.verts)
             for f in D.base_faces for c in range(k)]
    return Dissection._assemble(Surface(s.kind, k * n, k * m), arcs, faces)


def glue_ear(D, g, p):
    """Attach a p-ear between outer vertices g and g+1: insert p-2 new
    outer vertices there and a peripheral arc enclosing them."""
    return glue_ears(D, [(g, p, 0)])


def rotate_dissection(D, r):
    """Relabel outer vertices so that old v_{1+r} becomes new v_1 (the
    cycle read from position 1 starts r steps later); inner labels of an
    annulus are re-anchored so all bridging shifts stay in {0,1}."""
    return glue_ears(D, [(None, 0, r)])


def glue_ears(D, steps):
    """Attach a sequence of ears with one build: for steps (g, p, r) in
    order, glue a p-ear between outer vertices g and g+1, then rotate the
    labels by r; a step with g None rotates only.  Each step only inserts
    p - 2 outer vertices after v_g and shifts the labels by r, so the steps
    compose into one map from vertices to final labels, applied to the arcs
    of D, to one ear arc per step and to the faces, which are not swept
    again: those of D moved by the map, and one per ear."""
    if not steps:
        return D
    base = D.base
    s = base.surface
    m = s.m
    order = list(range(s.n))  # order[k]: id of the vertex labelled k + 1
    wrap = [0] * s.n          # periods each vertex's lift has moved
    ears = []                 # the vertex ids of each ear, in boundary order
    rotated = False
    for g, p, r in steps:
        n = len(order)
        if g is not None:
            if not 1 <= g <= n:
                raise ValueError("glue position out of range")
            ears.append([order[g - 1], *range(n, n + p - 2), order[g % n]])
            order[g:g] = range(n, n + p - 2)
            wrap.extend([0] * (p - 2))
        r %= len(order)
        if r:
            rotated = True
            # the labels below r move across v_1 into the previous period
            for v in order[:r]:
                wrap[v] -= 1
            order = order[r:] + order[:r]
    N = len(order)
    label = [0] * N
    for k, v in enumerate(order):
        label[v] = k

    # a bridge keeps its inner end's strip height, less the periods its
    # outer end moved; rotations re-anchor the inner labels at height 0
    heights = [_arc_ends(arc, -wrap[arc.a - 1], s.n, m)[1][1]
               for arc in base.arcs if arc.kind == "bridge"]
    lift = -min(heights) if rotated and heights else 0
    closed = s.kind == "polygon"

    def bottom(x):  # a polygon's boundary closes up after one period
        return ("b", x % N if closed else x)

    def move(v):
        if v[0] == "t":
            return ("t", v[1] + lift)
        if v[0] != "b":  # the puncture
            return v
        k, i = divmod(v[1], s.n)
        return bottom(label[i] + (k + wrap[i]) * N)

    arcs = [_arc_of(arc.kind, *map(move, _arc_ends(arc, 0, s.n, m)), N, m)
            for arc in base.arcs]
    kind = "diag" if s.kind == "polygon" else "peri"
    arcs += [Arc(kind, label[e[0]] + 1, label[e[-1]] + 1) for e in ears]

    moved = [_normal_face([move(v) for v in f.verts], N, m)
             for f in base.base_faces]
    faces = [f for f, _t in moved]
    for u, *rest in ears:
        # the ear's vertices follow u's label, the last at most a period on
        x = label[u]
        ear = [x] + [x + (label[w] - x - 1) % N + 1 for w in rest]
        ear = tuple(map(bottom, ear))  # on a strip, from x in [0, N)
        faces.append(_normal_face(ear, N, m)[0] if closed else ear)
    new = Dissection._assemble(Surface(s.kind, N, m), arcs, faces)
    if not D.is_quotient():
        return new
    # a relation (a, b, d) identifying lift (a, 0) with lift (b, d) becomes
    # (a', b', d + t_b - t_a), t the period shift of a moved face's normal form
    ids = {f.verts: f.id for f in new.base_faces}
    trace = []
    for rel in D.trace:
        (fa, ta), (fb, tb) = moved[rel[0]], moved[rel[1]]
        trace.append((ids[fa], ids[fb]) if len(rel) == 2
                     else (ids[fa], ids[fb], rel[2] + tb - ta))
    return QuotientDissection(new, trace)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# directive -> (arc kind, or None for a surface header; number of
# integers; their usage in error messages)
_DIRECTIVES = {
    "polygon": (None, 1, "n"),
    "disc": (None, 1, "n"),
    "annulus": (None, 2, "n and m"),
    "bridge": ("bridge", 3, "outer inner shift"),
    "bridge-disc": ("bridge_disc", 1, "outer"),
    "peri": ("peri", 2, "two outer vertices"),
    "diag": ("diag", 2, "two vertices"),
}
_DIRECTIVE_OF = {kind or head: head for head, (kind, _k, _u) in _DIRECTIVES.items()}


def format_dissection(D):
    """Serialize in the line format: header, one arc per line, glue lines
    for quotients."""
    s = D.surface
    rows = [(s.kind, (s.n, s.m))] + [(arc.kind, (arc.a, arc.b, arc.shift))
                                     for arc in D.arcs]
    lines = []
    for kind, nums in rows:
        head = _DIRECTIVE_OF[kind]
        nums = nums[:_DIRECTIVES[head][1]]
        lines.append(" ".join([head] + [str(x) for x in nums]))
    if D.is_quotient():
        for p in D.trace:
            lines.append("glue " + " ".join(str(x) for x in p))
    return "\n".join(lines)


def parse_dissection_text(text):
    """Parse the dissection text format; returns a Dissection or
    QuotientDissection."""
    surface = None
    arcs = []
    glues = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        # glue is neither a header nor an arc of the table
        kind, arity, usage = _DIRECTIVES.get(head, ("glue", None, None))
        if arity is None and head != "glue":
            raise ValueError("line %d: unknown directive %r" % (lineno, head))
        # ASCII -?[0-9]+ only: int() also takes "+3", "1_2" and other digits
        if not all(x.isascii() and x.removeprefix("-").isdigit()
                   for x in args):
            raise ValueError("line %d: non-integer argument" % lineno)
        nums = [int(x) for x in args]
        if kind is None:
            if surface is not None:
                raise ValueError("line %d: duplicate header" % lineno)
        elif surface is None:
            raise ValueError("line %d: %s before surface header"
                             % (lineno, "arc" if arity else "glue"))
        if arity is None:
            if len(nums) not in (2, 3):
                raise ValueError("line %d: glue takes two face ids and an "
                                 "optional offset" % lineno)
            glues.append(tuple(nums))
            continue
        if len(nums) != arity:
            raise ValueError("line %d: %s takes %s" % (lineno, head, usage))
        if kind is None:
            surface = Surface(head, *nums)
        else:
            arcs.append(Arc(kind, *nums))
    if surface is None:
        raise ValueError("missing surface header")
    D = Dissection(surface, arcs)
    if glues:
        return QuotientDissection(D, glues)
    return D
