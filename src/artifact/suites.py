"""Random instance generators and the randomized suites of ``artifact
verify``, one per identity of the paper: the frieze diamond rule, local and
traditional matching weights, growth by annulus weights, inner and outer
growth, the T-path bijection phi, and positivity of realizable friezes.

Each generator draws from the ``random.Random`` it is given in a fixed
order, and the golden ``verify`` cases consume those streams, so a change
to the order of its draws changes what every seed checks.  A suite is
called as ``SUITES[name](rng, count, out)``: it writes one line per failed
instance to ``out`` as it occurs and returns the number of failures.
"""

from collections import Counter
from functools import partial

from .frieze import (FriezeTable, check_positivity, format_quiddity,
                     quiddity_new)
from .matchings import (growth_via_annulus_weight, inner_outer_consistency,
                        matching_sum)
from .realize import classify_realizability
from .ring import format_elem
from .surface import (Arc, build_dissection, chords_cross, format_dissection,
                      polygon, quiddity_of)
from .tpaths import phi_bijection

SIZES = (3, 4, 5, 6)


def random_quiddity(rng, nmin=2, nmax=5, sizes=SIZES):
    """Random cycle built around a gap-size chain, so adjacent multisets
    always intersect; occasionally collapsed to singletons for variety."""
    n = rng.randint(nmin, nmax)
    gaps = [rng.choice(sizes) for _ in range(n)]
    A = []
    for i in range(n):
        entries = [gaps[i - 1], gaps[i]]
        if gaps[i - 1] == gaps[i] and rng.random() < 0.3:
            entries = [gaps[i]]
        else:
            entries += [rng.choice(sizes) for _ in range(rng.randint(0, 2))]
        A.append(tuple(sorted(entries)))
    return quiddity_new(A)


def random_free_quiddity(rng, nmin=2, nmax=5, sizes=SIZES):
    """Unconstrained random cycle (may well be unrealizable)."""
    n = rng.randint(nmin, nmax)
    return quiddity_new([
        tuple(sorted(rng.choice(sizes) for _ in range(rng.randint(1, 3))))
        for _ in range(n)])


def random_polygon_dissection(rng, nmin=4, nmax=9, max_arcs=8):
    n = rng.randint(nmin, nmax)
    cand = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
            if not (a == 1 and b == n)]
    rng.shuffle(cand)
    arcs = []
    for a, b in cand:
        if len(arcs) >= max_arcs or rng.random() < 0.3:
            continue
        if all(not chords_cross(a, b, c, d) for c, d in
               ((x.a, x.b) for x in arcs)):
            arcs.append(Arc("diag", a, b))
    return build_dissection(polygon(n), arcs)


def random_witness(rng, kinds, attempts=200):
    """Random realizable cycle's witness with the classification kind in
    ``kinds``; raises if the attempt budget runs out."""
    for _ in range(attempts):
        Q = random_quiddity(rng)
        cls = classify_realizability(Q)
        if cls.kind in kinds:
            return Q, cls
    raise AssertionError("no %s witness found in %d attempts"
                         % ("/".join(kinds), attempts))


def random_quotient_cycle(rng, attempts=200):
    """Random cycle classifying as quotient annulus: a singleton-forced
    gap size clashing at a larger multiset, plus random extras."""
    for _ in range(attempts):
        p = rng.choice([s for s in SIZES if s > 3])
        n = rng.randint(2, 4)
        A = []
        for i in range(n):
            if i % 2 == 0 and rng.random() < 0.7:
                A.append((p,))
            else:
                extras = [rng.choice(SIZES) for _ in range(rng.randint(1, 2))]
                A.append(tuple(sorted([p] + extras)))
        Q = quiddity_new(A)
        cls = classify_realizability(Q)
        if cls.kind == "quotient_annulus":
            return Q, cls
    raise AssertionError("no quotient cycle found in %d attempts" % attempts)


# A suite's check draws instance k from rng and returns its failure line,
# or None when the identity holds; _run counts and writes the failures.

def _run(check, rng, count, out):
    fails = 0
    for k in range(count):
        line = check(rng, k)
        if line is not None:
            fails += 1
            out.write(line + "\n")
    return fails


def _diamond(rng, _k):
    Q = random_free_quiddity(rng)
    F = FriezeTable(Q)
    one = Q.context.one()
    for i in range(Q.n):
        for j in range(i + 1, i + 3 * Q.n):
            det = (F.entry(i, j) * F.entry(i + 1, j + 1)
                   - F.entry(i, j + 1) * F.entry(i + 1, j))
            if det != one:
                return "diamond fails at (%d,%d) for %s" % (
                    i, j, format_quiddity(Q))
    return None


def _weights_equal(rng, _k):
    D = (random_polygon_dissection(rng) if rng.random() < 0.5 else
         random_witness(rng, ("punctured_disc", "annulus"))[1].witness)
    n = D.surface.n
    i = rng.randint(0, n - 1)
    # on a polygon the window must not wrap around the boundary
    span = n - 1 if D.surface.kind == "polygon" else n + 1
    j = i + rng.randint(1, span)
    if matching_sum(D, i, j, "local") != matching_sum(D, i, j, "traditional"):
        return "local/traditional weights differ on window (%d,%d)" % (i, j)
    return None


def _growth_matching(rng, _k):
    _Q, cls = random_witness(rng, ("annulus",))
    try:
        growth_via_annulus_weight(cls.witness, 1)
    except AssertionError as exc:
        return "growth mismatch: %s" % exc
    return None


def _inner_outer(rng, _k):
    _Q, cls = random_witness(rng, ("annulus",))
    equal, s_out, s_in = inner_outer_consistency(cls.witness)
    if not equal:
        return "inner/outer growth differs: %s vs %s" % (
            format_elem(s_out), format_elem(s_in))
    return None


def _phi(rng, _k):
    D = random_polygon_dissection(rng)
    n = D.surface.n
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    try:
        phi_bijection(D, i, j)
    except AssertionError as exc:
        return "phi fails on %d->%d of %s: %s" % (
            i, j, format_dissection(D).replace("\n", "; "), exc)
    return None


def _realizable_positive(rng, k):
    if k % 2:
        Q, cls = random_witness(rng, ("punctured_disc", "annulus"))
        kind = cls.kind
    else:
        Q, kind = quiddity_of(random_polygon_dissection(rng)), "polygon"
    verdict = check_positivity(FriezeTable(Q))
    if verdict.kind != "provably_positive":
        return "realizable %s frieze is %s: %s" % (
            kind, verdict.kind, format_quiddity(Q))
    return None


def _positivity_sweep(rng, count, out):
    """Reports the positivity verdicts on quotient cycles, which may be
    nonpositive; fails on a realizable witness not provably positive."""
    logged = Counter(
        check_positivity(FriezeTable(random_quotient_cycle(rng)[0])).kind
        for _ in range(count))
    for kind in sorted(logged):
        out.write("  %s: %d\n" % (kind, logged[kind]))
    return _run(_realizable_positive, rng, count, out)


SUITES = {
    "unimodular": partial(_run, _diamond),
    "weights-equal": partial(_run, _weights_equal),
    "growth-matching": partial(_run, _growth_matching),
    "inner-outer": partial(_run, _inner_outer),
    "phi": partial(_run, _phi),
    "positivity-sweep": _positivity_sweep,
}
