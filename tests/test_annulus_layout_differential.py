"""Differential test of the one-pass annulus layout in ``realize._construct``
against the node layout it replaced, kept here as the oracle.

The oracle lays out the inner boundary as a list of nodes, an arc or a
filler vertex each, merges the nodes that share a vertex, numbers them,
and reads the number m of inner vertices off the last node.  Both must
give the same surface and arcs, or the same ValueError, on every gap-size
assignment, valid or not, of every cycle of length n <= 3 over the
multisets of one to three sizes from {3, 4, 5}, and of length n <= 2 over
those of one to five, where an anchor keeps two sizes or more besides its
gaps' and their order shows.  Where ``_construct`` draws a punctured
disc, the layout climbs to height 0, which the oracle must refuse.
"""

import itertools

import artifact.realize as realize
from artifact import Arc, annulus, quiddity_new
from artifact.realize import _layout, all_pchoices


def _multisets(most):
    return [m for k in range(1, most + 1)
            for m in itertools.combinations_with_replacement((3, 4, 5), k)]


DEGENERATE = ("inner boundary degenerates to no vertices; "
              "the cycle has no annulus realization of this shape")


def annulus_by_nodes(Q, pchoice):
    """(surface, arcs) of the annulus layout of a gap-size assignment."""
    n = Q.n
    anchors, gaps, gap_p = _layout(Q, pchoice)
    l = len(anchors)
    nodes = []            # ("arc", anchor 0-based) or ("fill",)
    merges = set()        # adjacent node index pairs carrying one vertex
    wrap_merge = False
    for j in range(l):
        a = anchors[j]
        p_left = gap_p[(j - 1) % l]
        p_right = gap_p[j]
        R = list(Q.A[a])
        try:
            R.remove(p_left)
            R.remove(p_right)
        except ValueError:
            raise ValueError("gap-size assignment incompatible with the "
                             "multiset at position %d" % (a + 1))
        R.sort()
        nodes.append(("arc", a))
        for r in R:
            nodes.extend([("fill",)] * (r - 3))
            nodes.append(("arc", a))
        # the gap towards the next anchor
        p, g = gap_p[j], gaps[j]
        if p - 2 < g:
            raise ValueError("cycle is not skeletal at position %d" % (a + 1))
        if p - 2 == g:
            if j == l - 1:
                wrap_merge = True
            else:
                merges.add(len(nodes) - 1)   # merge with the next node
        else:
            nodes.extend([("fill",)] * (p - 3 - g))

    ys = []
    y = 0
    for k, _node in enumerate(nodes):
        if k > 0 and (k - 1) not in merges:
            y += 1
        elif k == 0:
            y = 0
        ys.append(y)
    m = ys[-1] if wrap_merge else ys[-1] + 1
    if m < 1:
        raise ValueError(DEGENERATE)

    arcs = []
    for (kind, *rest), y in zip(nodes, ys):
        if kind != "arc":
            continue
        a = rest[0]
        if y < m:
            arcs.append(Arc("bridge", a + 1, y + 1, 0))
        else:
            arcs.append(Arc("bridge", a + 1, 1, 1))
    return annulus(n, m), arcs


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class Laid(tuple):
    """(surface, arcs) as laid out, standing in for the dissection that
    would check them."""

    def _check_arcs(self):
        pass


def test_one_pass_layout_matches_the_node_layout(monkeypatch):
    monkeypatch.setattr(realize.Dissection, "_assemble", classmethod(
        lambda cls, surface, arcs, faces: Laid((surface, arcs))))
    kinds = {"annulus": 0, "ValueError": 0, "disc": 0}
    for n, most in ((1, 5), (2, 5), (3, 3)):
        for A in itertools.product(_multisets(most), repeat=n):
            Q = quiddity_new(A)
            if all(len(a) == 1 for a in A):
                continue              # no anchor: polygon friezes
            for pchoice in all_pchoices(Q):
                got = _outcome(realize._construct, Q, pchoice)
                want = _outcome(annulus_by_nodes, Q, pchoice)
                if got[0] == "disc":
                    assert want == ("ValueError", DEGENERATE), (A, pchoice)
                    kinds["disc"] += 1
                    continue
                if got[0] == "annulus":
                    got = got[1]
                assert got == want, (A, pchoice)
                kinds[want[0] if want[0] == "ValueError" else "annulus"] += 1
    assert kinds["disc"] == 11, kinds
    assert min(kinds["annulus"], kinds["ValueError"]) > 1000, kinds
