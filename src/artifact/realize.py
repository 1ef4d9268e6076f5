"""Realization of quiddity cycles by dissections and quotient dissections.

The pipeline: a skeletal cycle passing the quiddity-level test is realized
directly (punctured disc or annulus) by choosing a compatible subgon size
p_{i,i+1} for every boundary gap and drawing the bridging arcs in the
strip model; cycles where no compatible choice exists get a quotient
witness; non-skeletal cycles are reduced by cutting ears on the multisets
alone, and the witness is re-assembled by gluing every ear back onto the
core's dissection in one build.
"""

from dataclasses import dataclass, field
from itertools import islice, product
from typing import Optional

from .frieze import (QuiddityCycle, FriezeTable, realizability_test,
                     is_skeletal_quiddity, _realizability_verdict, _runs_from,
                     _meets, _cut_in_place)
from .surface import (Dissection, annulus, punctured_disc, polygon,
                      make_quotient, glue_ears, _INF, _arc_of,
                      _corner_multisets)


# ---------------------------------------------------------------------------
# compatible size choices
# ---------------------------------------------------------------------------

def _gap_choices(Q):
    """Sorted candidate sizes for each boundary gap: values common to the
    multisets at both endpoints.  Empty candidate list means the cycle
    already fails the quiddity-level test."""
    n = Q.n
    out = []
    for i in range(n):
        common = set(Q.A[i]) & set(Q.A[(i + 1) % n])
        out.append(sorted(common))
    return out


def _clash(a, p, q):
    """Whether sizes p and q on both gaps of a vertex with multiset a clash:
    p = q, a is not a singleton, yet p appears in a only once."""
    return len(a) > 1 and p == q and a.count(p) < 2


def _violations(Q, pchoice):
    """0-based indices i where the sizes chosen on both gaps of v_i clash."""
    return [i for i in range(Q.n)
            if _clash(Q.A[i], pchoice[i - 1], pchoice[i])]


def _chain_pass(A, choices, x):
    """(fewest, walk) for size x at gap 0: the fewest clashes of a gap-size
    assignment, and a walk of the assignments having them, in lexicographic
    order.  A clash at v_i reads only gaps i - 1 and i, so a backward pass
    keeps, per size c at gap i, the fewest clashes at v_{i+1}, ..., v_{n-1},
    v_0; the walk goes depth first, in increasing size order, through the
    sizes that keep the fewest, so every prefix it meets completes: O(n k^2)
    for k candidates per gap, then O(n k) per assignment walked."""
    n = len(A)
    cost = [None] * n + [{x: 0}]
    for i in range(n - 1, -1, -1):
        cost[i] = {c: min(_clash(A[(i + 1) % n], c, d) + k
                          for d, k in cost[i + 1].items())
                   for c in choices[i]}

    def walk():
        pchoice, stack = [x] * n, [iter((x,))]
        while stack:
            i = len(stack) - 1        # stack[i] walks the sizes of gap i
            pchoice[i] = c = next(stack[i], None)
            if c is None:
                stack.pop()
            elif i == n - 1:
                yield tuple(pchoice)
            else:
                stack.append(iter([d for d, k in cost[i + 1].items()
                                   if _clash(A[i + 1], c, d) + k
                                   == cost[i][c]]))
    return cost[0][x], walk()


def _fewest_clashes(Q):
    """(pchoice, bad): the lexicographically first gap-size assignment with
    the fewest clashes, and its clashing indices: O(n k^3).  Raises
    ValueError when a gap has no candidate."""
    choices = _gap_choices(Q)
    if not all(choices):
        raise ValueError("cycle fails the realizability test")
    _fewest, walk = min((_chain_pass(Q.A, choices, x) for x in choices[0]),
                        key=lambda pass_: pass_[0])
    pchoice = next(walk)
    return pchoice, _violations(Q, pchoice)


def all_pchoices(Q):
    """All gap-size assignments (lexicographic order).  pchoice[i] is the
    size shared between v_{i+1} and v_{i+2}, 0-based."""
    return product(*_gap_choices(Q))


def valid_pchoices(Q):
    """Gap-size assignments with no clashing index, lexicographic order: the
    walks of the chain passes that find no clash."""
    choices = _gap_choices(Q)
    for x in choices[0] if all(choices) else ():
        fewest, walk = _chain_pass(Q.A, choices, x)
        if not fewest:
            yield from walk


# ---------------------------------------------------------------------------
# the geometric construction for a skeletal cycle with a fixed choice
# ---------------------------------------------------------------------------

def _layout(Q, pchoice):
    """(anchors, gaps, gap_p) of a gap-size assignment: the anchors (0-based
    positions whose multiset is not a singleton), the boundary gap from
    each anchor to the next and the size chosen at each gap."""
    n = Q.n
    anchors = [i for i in range(n) if len(Q.A[i]) > 1]
    if not anchors:
        raise ValueError("constant singleton cycles are polygon friezes; "
                         "no disc or annulus construction applies")
    gaps = [(b - a) % n or n
            for a, b in zip(anchors, anchors[1:] + anchors[:1])]
    return anchors, gaps, [pchoice[a] for a in anchors]


def _construct(Q, pchoice):
    """Build the dissection realizing a skeletal cycle from a fixed gap-size
    assignment.  Returns ("disc", D) when the layout climbs to height 0,
    else ("annulus", D)."""
    n = Q.n
    anchors, gaps, gap_p = _layout(Q, pchoice)
    # one period of the inner boundary, left to right; an arc ends at
    # height y, each further size r of its anchor climbs r - 2 and a gap of
    # length g with size p climbs p - 2 - g; the climb of the period is the
    # number m of inner vertices, and m = 0 leaves a punctured disc
    y, ends = 0, []
    for j, a in enumerate(anchors):
        R = list(Q.A[a])
        try:
            R.remove(gap_p[j - 1])
            R.remove(gap_p[j])
        except ValueError:
            raise ValueError("gap-size assignment incompatible with the "
                             "multiset at position %d" % (a + 1))
        ends.append((a, y))
        for r in R:
            y += r - 2
            ends.append((a, y))
        if gap_p[j] - 2 < gaps[j]:
            raise ValueError("cycle is not skeletal at position %d" % (a + 1))
        y += gap_p[j] - 2 - gaps[j]
    m = y
    surface = annulus(n, m) if m else punctured_disc(n)
    arcs = [_arc_of("bridge", ("b", a), ("t", y), n, m) if m
            else _arc_of("bridge_disc", ("b", a), _INF, n, m)
            for a, y in ends]
    # consecutive bridge ends (a, y), (b, w) bound the face from v_a to v_b
    # along the bottom, then from w down to y along the top or the puncture
    faces = [tuple(("b", x) for x in range(a, b + 1))
             + (tuple(("t", z) for z in range(w, y - 1, -1)) if m else (_INF,))
             for (a, y), (b, w) in zip(ends, ends[1:] + [(anchors[0] + n, m)])]
    D = Dissection._assemble(surface, arcs, faces)
    D._check_arcs()
    return surface.kind, D


def skeletal_realize(Q):
    """Realize a skeletal cycle passing the quiddity-level test from its
    first clash-free gap-size assignment.

    Returns ("disc", D), ("annulus", D), or ("no_valid_choice", None).  The
    layout's height m is a sum of terms >= 0 that all vanish only when
    every anchor holds just its two gaps' sizes, and then every clash-free
    assignment has the same sum of sizes, so all of them give one shape.
    """
    verdict = realizability_test(Q)
    if not verdict.ok:
        raise ValueError("cycle fails the realizability test (%s)" % verdict.reason)
    if not is_skeletal_quiddity(Q):
        raise ValueError("cycle is not skeletal")
    pchoice, bad = _fewest_clashes(Q)
    return ("no_valid_choice", None) if bad else _construct(Q, pchoice)


# ---------------------------------------------------------------------------
# quotient realization
# ---------------------------------------------------------------------------

def quotient_realize(Q):
    """Quotient-dissection witness for a skeletal cycle that passes the test
    but admits no clash-free gap-size assignment."""
    pchoice, bad = _fewest_clashes(Q)
    if not bad:
        raise ValueError("cycle admits an ordinary realization; "
                         "no quotient needed")
    return _quotient(Q, pchoice, bad)


def _quotient(Q, pchoice, bad):
    """Q's quotient witness from its ``_fewest_clashes`` (pchoice, bad)."""
    # each clashing entry is widened by one extra copy of its gap size;
    # the two variants differ in whether the flanking subgons are glued
    # with the full shared-vertex closure or only at the clashing vertex
    A_hat = list(Q.A)
    for j in bad:
        A_hat[j] = tuple(sorted(A_hat[j] + (pchoice[j],)))
    Q_hat = QuiddityCycle._trusted(tuple(A_hat), Q.context)  # Q's sizes
    try:
        # a widened entry holds three sizes or more: never a disc
        D = _construct(Q_hat, pchoice)[1]
    except ValueError as exc:
        raise AssertionError("quotient construction failed: %s" % exc)
    last_err = None
    for glue_mode in ("closure", "at_vertex"):
        pairs = []
        for j in bad:
            corners = D.corner_choices(j, "outer")
            (_k1, fa, ta) = corners[0]
            (_k2, fb, tb) = corners[-1]
            if D.face(fa).size != D.face(fb).size:
                continue
            if fa == fb:
                # the flanking corners are two lifts of one subgon,
                # glued to its own translate
                if glue_mode != "at_vertex" or ta == tb:
                    continue
                pair = (fa, fb, tb - ta)
            else:
                pair = (fa, fb, tb - ta) if glue_mode == "at_vertex" \
                    else (min(fa, fb), max(fa, fb))
            if pair not in pairs:
                pairs.append(pair)
        try:
            if not pairs:
                raise ValueError("no identifiable subgon pair")
            QD = make_quotient(D, pairs)
        except ValueError as exc:
            last_err = exc
            continue
        derived = _corner_multisets(QD)
        if derived == Q.A:
            return QD
        last_err = ValueError("quotient witness quiddity mismatch: %r vs %r"
                              % (derived, Q.A))
    raise AssertionError("quotient construction failed: %s" % last_err)


# ---------------------------------------------------------------------------
# full classification
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    kind: str                      # unrealizable | polygon | punctured_disc
                                   # | annulus | quotient_annulus
    n: Optional[int] = None
    m: Optional[int] = None
    reason: Optional[str] = None
    witness: Optional[object] = None
    cut_trace: list = field(default_factory=list)

    @property
    def realizable(self):
        return self.kind != "unrealizable"


def _reduce(A):
    """Cut ears off a cycle of multisets until it fails the quiddity-level
    test, is a constant singleton cycle, or is skeletal.  Each cut takes
    the first singleton run of length >= p - 2 in the child's order and
    shortens the cycle by p - 2, so the loop ends.  A constant cycle [p]^k
    with k != p fails: only the p-gon has every multiset [p].

    One sweep: the cycle is tested once, then each cut is made in place
    and only the three adjacencies at its flanks and the runs through them
    are tested again; the test passed before the cut, so nothing else can
    fail.  Runs starting before ``scan`` are shorter than p - 2, so the
    next cut is looked for from there and a cut costs its neighbourhood.

    Returns (A, trace, steps, reason): the multisets left, the cut trace
    [(start, p)], the ``glue_ears`` step undoing each cut, in cut order,
    and the failure reason (None when the cycle left passes the test)."""
    reason = _realizability_verdict(A).reason
    L, trace, steps = list(A), [], []
    multi = sum(len(a) > 1 for a in A)   # 0 and passing: constant
    scan = 0
    while reason is None and multi:
        first = next((s for s, length in _runs_from(L, scan)
                      if length >= L[s][0] - 2), None)
        if first is None:
            break
        # the test passed, so the run has length exactly p-2
        p, n = L[first][0], len(L)
        try:
            step = _cut_in_place(L, first, p)
        except ValueError:
            reason = "cut_underflow"
            break
        trace.append((first + 1, p))
        steps.append(step)
        m = len(L)
        # a cut across the head keeps only positions before its run
        scan = first if first + p - 2 <= n else m
        left, right = step[0] - 1, step[0] % m
        if not (_meets(L[left - 1], L[left]) and _meets(L[left], L[right])
                and _meets(L[right], L[(right + 1) % m])):
            reason = "empty_intersection"
            break
        flanks = {f for f in (left, right) if len(L[f]) == 1}
        multi -= len(flanks)
        if not multi:
            break
        for f in flanks:
            start = f
            while L[start - 1] == L[f]:
                start -= 1
            start, length = next(_runs_from(L, start % m))
            if length > L[f][0] - 2:
                reason = "long_run"
            elif length == L[f][0] - 2:
                scan = min(scan, start)
    if reason is None and not multi and L[0][0] != len(L):
        reason = "constant_core_length"
    return (tuple(L) if trace else A), trace, steps, reason


def classify_realizability(Q):
    """Decide how (and whether) a quiddity cycle is realizable, with a
    constructed witness and the ear-cut trace leading to the skeletal core."""
    return _classify(Q)[0]


def _classify(Q):
    """The classification of Q, its skeletal core (None when Q is
    unrealizable) and the ``glue_ears`` steps from the core back to Q."""
    A, trace, steps, reason = _reduce(Q.A)
    steps.reverse()
    if reason is not None:
        return (Classification("unrealizable", reason=reason, cut_trace=trace),
                None, steps)
    core = QuiddityCycle._trusted(A, Q.context) if steps else Q
    result = _classify_core(core)
    result.cut_trace = trace
    if steps:
        result.witness = glue_ears(result.witness, steps)
    s = result.witness.base.surface
    result.n, result.m = s.n, (s.m if s.kind == "annulus" else None)
    # the multisets alone: a ring context would refuse a bad witness's
    # sizes past the degree cap with a ValueError, which exits 2, not 3
    derived = _corner_multisets(result.witness)
    if derived != Q.A:
        raise AssertionError("%s witness has outer multisets %r, not the "
                             "cycle's %r" % (result.kind, derived, Q.A))
    return result, core, steps


def _classify_core(Q):
    """Classify a cycle that passes the test and has no ear left to cut."""
    if all(len(a) == 1 for a in Q.A):     # it passed the test: [n]^n
        witness = Dissection._assemble(polygon(Q.n), [], [tuple(
            ("b", x) for x in range(Q.n))])
        return Classification("polygon", witness=witness)

    # _reduce cut every ear, so Q is skeletal and passes the test
    pchoice, bad = _fewest_clashes(Q)
    if bad:
        return Classification("quotient_annulus",
                              witness=_quotient(Q, pchoice, bad))
    kind, D = _construct(Q, pchoice)

    # cross-check the disc/annulus split against the first growth coefficient
    is_disc_by_growth = FriezeTable(Q).trace() == Q.context.from_int(2)
    if is_disc_by_growth != (kind == "disc"):
        raise AssertionError("surface shape disagrees with the growth "
                             "coefficient criterion")
    return Classification("punctured_disc" if kind == "disc" else "annulus",
                          witness=D)


# ---------------------------------------------------------------------------
# distinct witnesses for one cycle
# ---------------------------------------------------------------------------

def witness_nonuniqueness_probe(Q):
    """One witness per clash-free gap-size assignment of the skeletal core
    (empty for polygon, quotient, and unrealizable cycles); each witness is
    re-assembled through the same cut trace."""
    cls, core, steps = _classify(Q)
    if cls.kind not in ("punctured_disc", "annulus"):
        return []
    # the classification's witness is that of the first clash-free choice
    later = islice(valid_pchoices(core), 1, None)
    return [cls.witness] + [glue_ears(_construct(core, pchoice)[1], steps)
                            for pchoice in later]
