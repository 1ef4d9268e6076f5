"""Matchings between boundary vertices and the three weightings.

A matching contributing to the entry m_{i,j} picks one incident subgon
for every cover vertex strictly between positions i and j on the outer
boundary (global coordinates; vertex v_a of the surface sits at
coordinate a-1 plus multiples of the period).  Summing the local weight
recovers the frieze entry; the traditional weight is its nonnegative
sibling; the annulus weight of full-period matchings recovers growth
coefficients.

``matching_sum`` adds the weights up without listing the matchings (a
transfer-matrix pass over the window positions); ``enumerate_matchings``
with ``weigh_matching`` is the brute force it is tested against.
``nonzero_traditional_matchings`` lists only the matchings of nonzero
traditional weight, pruning the others as it walks.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from .ring import chebyshev_u
from .frieze import FriezeTable, QuiddityCycle, growth_coefficient
from .surface import dissection_power, quiddity_of

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class Matching:
    i: int
    j: int
    choice: tuple  # (class_key, fid, t) per intermediate coordinate

    def __len__(self):
        return len(self.choice)


def _choice_lists(D, i, j, budget):
    """The corner choices at each position strictly inside the window from
    i to j; raise ``BudgetExceeded`` when a nonempty window has more than
    ``budget`` matchings."""
    s = D.surface
    lists = [D.corner_choices(g % s.n if s.kind == "polygon" else g, "outer")
             for g in range(i, j - 1)]
    if j > i and prod(len(c) for c in lists) > budget:
        raise BudgetExceeded("more than %d matchings" % budget)
    return lists


def enumerate_matchings(W, i, j, budget=DEFAULT_BUDGET):
    """All matchings contributing to m_{i,j}, in counterclockwise corner
    order per vertex.  m_{i,i} has none; m_{i,i+1} has exactly the empty
    matching.  W is a dissection or a quotient dissection."""
    if j < i:
        raise ValueError("need j >= i")
    if j == i:
        return
    for combo in product(*_choice_lists(W, i, j, budget)):
        yield Matching(i, j, combo)


def nonzero_traditional_matchings(D, i, j, budget=DEFAULT_BUDGET):
    """The matchings of ``enumerate_matchings(D, i, j)`` whose traditional
    weight is nonzero, in the same order.  That weight is zero once a
    p-gon has more than p - 2 corners, and otherwise a product of
    U_k(lambda_p) > 0 with k <= p - 2.  A depth-first walk on an explicit
    stack keeps the corner count of every lifted face and drops a prefix
    as soon as one p-gon has p - 1 corners in it.  ``budget`` still caps
    the number of all matchings in the window; it and the other checks
    raise at the call, before any matching is asked for."""
    if D.is_quotient():
        raise ValueError("traditional weights are defined only for "
                         "ordinary dissections")
    if j < i:
        raise ValueError("need j >= i")
    return _nonzero_walk(D, i, j, _choice_lists(D, i, j, budget))


def _nonzero_walk(D, i, j, lists):
    """The pruned walk of ``nonzero_traditional_matchings``."""
    if j == i:
        return
    if not lists:
        yield Matching(i, j, ())
        return
    cap = {f.id: f.size - 2 for f in D.base_faces}
    counts = defaultdict(int)   # lifted face -> corners chosen so far
    chosen = []
    stack = [iter(lists[0])]    # the corners left to try at each position
    while stack:
        for corner in stack[-1]:
            if counts[corner[0]] < cap[corner[1]]:
                break
        else:
            stack.pop()
            if chosen:
                counts[chosen.pop()[0]] -= 1
            continue
        counts[corner[0]] += 1
        chosen.append(corner)
        if len(chosen) < len(lists):
            stack.append(iter(lists[len(chosen)]))
        else:
            yield Matching(i, j, tuple(chosen))
            counts[chosen.pop()[0]] -= 1


@lru_cache(maxsize=None)
def _u(ctx, k, p):
    """U_k(lambda_p) in ctx, computed once per process."""
    return chebyshev_u(ctx, k, ctx.lam(p))


def check_window(W, mode, i, j):
    """Raise unless j >= i and ``mode`` can weigh the matchings that
    contribute to m_{i,j} on W, each of j - i - 1 corners."""
    if j < i:
        raise ValueError("need j >= i")
    if mode not in ("local", "traditional", "annulus"):
        raise ValueError("unknown weighting mode %r" % mode)
    if mode != "local" and W.is_quotient():
        raise ValueError("mode %r is defined only for ordinary dissections"
                         % mode)
    if mode == "annulus" and j - i - 1 != W.surface.n:
        raise ValueError("annulus weighting needs a full-period matching")


def weigh_matching(w, mode, D):
    """Weight of one matching: local (run rule, class equality),
    traditional (per lifted face), or annulus (per base face,
    full-period matchings only)."""
    check_window(D, mode, w.i, w.j)
    ctx, base = D.context, D.base
    if mode == "local":
        total = ctx.one()
        k = 0
        for idx, (key, fid, _t) in enumerate(w.choice):
            k += 1
            nxt = w.choice[idx + 1][0] if idx + 1 < len(w.choice) else None
            if nxt != key:
                total = total * _u(ctx, k, base.face(fid).size)
                k = 0
        return total
    counts = {}
    for key, fid, _t in w.choice:
        face = key if mode == "traditional" else fid
        counts[face] = (counts.get(face, (0, fid))[0] + 1, fid)
    total = ctx.one()
    for k, fid in counts.values():
        p = base.face(fid).size
        if k > p - 2:
            return ctx.zero()
        total = total * _u(ctx, k, p)
    return total


def matching_sum(W, i, j, mode="local", budget=DEFAULT_BUDGET):
    """Exact ring sum of weights over all matchings contributing to
    m_{i,j}.  One pass over the window positions keeps the partial sums
    of equal states merged.  In local mode the cost is about linear in
    the window length; traditional and annulus modes keep one state per
    multiset of open faces, which can grow exponentially with it.
    ``budget`` caps the number of matchings, as for the enumeration."""
    ctx = W.context
    check_window(W, mode, i, j)
    if j == i:
        return ctx.zero()
    lists = _choice_lists(W, i, j, budget)
    sizes = {f.id: f.size for f in W.base_faces}
    if mode == "local":
        return _local_sum(lists, sizes, ctx)
    return _count_sum(lists, sizes, ctx, mode == "traditional")


def _local_sum(lists, sizes, ctx):
    """Local weights: a run of k equal class keys closes with the factor
    U_k(lambda) of its face.  State (class key, fid, length of the open
    run) -> sum of the products of the closed runs."""
    states = {(None, None, 0): ctx.one()}
    for options in lists:
        nxt = defaultdict(ctx.zero)
        for (key, fid, k), val in states.items():
            closed = val * _u(ctx, k, sizes[fid]) if k else val
            for key2, fid2, _t in options:
                if key2 == key:
                    nxt[key, fid2, k + 1] += val
                else:
                    nxt[key2, fid2, 1] += closed
        states = nxt
    return sum((val * _u(ctx, k, sizes[fid]) if k else val
                for (_key, fid, k), val in states.items()), ctx.zero())


def _count_sum(lists, sizes, ctx, per_lift):
    """Traditional (per_lift: faces are lifted class keys) and annulus
    (faces are base fids) weights: a face met k times has the factor
    U_k(lambda_p), zero once k > p - 2.  State: frozenset of (face, k) for
    the faces met so far that have a corner further on; the factor of a
    face is multiplied in at its last corner in the window."""
    last, fid_of = {}, {}
    for idx, options in enumerate(lists):
        for key, fid, _t in options:
            face = key if per_lift else fid
            last[face], fid_of[face] = idx, fid
    states = defaultdict(ctx.zero, {frozenset(): ctx.one()})
    for idx, options in enumerate(lists):
        grown = defaultdict(ctx.zero)
        for state, val in states.items():
            counts = dict(state)
            for key, fid, _t in options:
                face = key if per_lift else fid
                k = counts.get(face, 0) + 1
                if k <= sizes[fid] - 2:
                    grown[state - {(face, k - 1)} | {(face, k)}] += val
        states = defaultdict(ctx.zero)
        for state, val in grown.items():
            done = {(face, k) for face, k in state if last[face] == idx}
            for face, k in done:
                val = val * _u(ctx, k, sizes[fid_of[face]])
            states[state - done] += val
    return states[frozenset()]


def growth_via_annulus_weight(D, k=1, budget=DEFAULT_BUDGET):
    """Growth coefficient s_k as the annulus-weight sum over full-period
    matchings of the k-th power dissection; cross-checked against the
    frieze recurrence."""
    if D.is_quotient():
        raise ValueError("annulus weighting is not defined on quotients")
    Dk = dissection_power(D, k) if k > 1 else D
    nk = Dk.surface.n
    total = matching_sum(Dk, 0, nk + 1, mode="annulus", budget=budget)
    expected = growth_coefficient(FriezeTable(quiddity_of(D, "outer")), k)
    if total != expected:
        raise AssertionError("annulus-weight sum disagrees with the frieze "
                             "growth coefficient")
    return total


def inner_outer_consistency(D):
    """Compare the principal growth coefficients computed from the outer
    and inner quiddity cycles of an annulus dissection.  Returns
    (equal, s1_outer, s1_inner)."""
    base = D.base
    if base.surface.kind != "annulus":
        raise ValueError("inner boundary requires an annulus")
    Q_out = quiddity_of(D, "outer")
    Q_in_raw = quiddity_of(D, "inner")
    ctx = Q_out.context
    # every subgon meets the outer boundary, so the outer ring covers the
    # inner sizes and both coefficients live in the same ring
    if any(ctx.L % p for a in Q_in_raw.A for p in a):
        raise AssertionError("inner subgon size outside the outer ring")
    Q_in = QuiddityCycle(Q_in_raw.A, ctx)
    s_out = growth_coefficient(FriezeTable(Q_out), 1)
    s_in = growth_coefficient(FriezeTable(Q_in), 1)
    return s_out == s_in, s_out, s_in
