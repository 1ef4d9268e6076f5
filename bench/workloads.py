"""The three seeded workloads: inputs, ops and known-answer checks.

Each workload builds, from one ``random.Random(seed)``, a fixed list of ops
(one pass).  The list is stratified: which kinds of input and which sizes
appear, and how often, is fixed by the plan tables below, and the seed only
chooses the inputs within each slot (ear positions and order, window
offsets, witnesses, dissections).  Anchor slots, the heaviest ops and the
ops the percentiles fall on, build their input from a generator seeded by
the slot alone.  Anchor cycles are the same for every seed, because a
rotation changes what classification and the positivity scan cost; matching
windows move by whole periods and T-path dissections get rotated labels,
which keep the cost.  That keeps the work per pass, and the ops that p50 and
p90 read, the same across seeds while every seed gives different inputs.

An op reads an input file written during set-up and runs either a CLI verb
through ``artifact.dispatch`` in-process or, where no verb exists, a
library call.  Its check runs outside the timed region and raises when the
output disagrees with the known answer: ``CheckFailed``, or whatever error
a malformed output causes while it is read back.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from .exact import ExactRing, ReferenceFrieze, split_cells

SIZES = (3, 4, 5, 6)
README_ANNULUS = ((3, 3, 4), (3,), (3, 3, 4, 4))
# a core drawn by the recipe of the CLI's random_quotient_cycle (a forced gap
# size clashing at a larger multiset); fixed, so that every seed's quotient
# cycles cost the same to cut down
QUOTIENT_CORE = ((4,), (4, 5), (3, 4))
WORKED_ANNULUS = """annulus 3 3
bridge 1 1 0
bridge 3 2 0
bridge 3 1 1
peri 1 3
"""


class CheckFailed(Exception):
    """An op's output disagrees with its known answer."""


@dataclass
class Op:
    kind: str
    run: Callable      # art -> result
    check: Callable    # (art, result) -> None, raises CheckFailed
    input_path: str
    args: tuple = ()   # the verb's options besides the input file


class References:
    """Reference rings for the checks, one per subgon-size set."""

    def __init__(self, art):
        self.art = art
        self._rings = {}

    def ring(self, A):
        sizes = frozenset(p for a in A for p in a)
        if sizes not in self._rings:
            ctx = self.art.make_context(sizes)
            self._rings[sizes] = ExactRing(ctx.L, ctx.minpoly)
        return self._rings[sizes]

    def frieze(self, A):
        return ReferenceFrieze(self.ring(A), A)


# ---------------------------------------------------------------------------
# op runners and shared check helpers
# ---------------------------------------------------------------------------

def verb_op(kind, verb, path, args, check):
    """An op running ``artifact VERB PATH ARGS`` in-process; its result is
    (exit code, stdout, stderr)."""
    args = tuple(str(a) for a in args)

    def run(art):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = art.dispatch([verb, path, *args], out)
        return code, out.getvalue(), err.getvalue()
    return Op(kind, run, check, path, args)


def expect_exit(result, code):
    got, _out, err = result
    if got != code:
        raise CheckFailed("exit %d, expected %d: %s"
                          % (got, code, err.strip()[-300:]))


def labelled_value(lines, label):
    """The text after ``label`` on the one line that starts with it."""
    found = [ln[len(label):] for ln in lines if ln.startswith(label)]
    if len(found) != 1:
        raise CheckFailed("expected one %r line, found %d" % (label, len(found)))
    return found[0]


def expect_elem(R, text, expected, what):
    try:
        got = R.parse(text)
    except ValueError as exc:
        raise CheckFailed("%s: %s" % (what, exc))
    if got != expected:
        raise CheckFailed("%s is %s, expected %s" % (what, text.strip(), expected))


def write_input(workdir, idx, text):
    path = workdir / ("in%03d.txt" % idx)
    path.write_text(text)
    return str(path)


def cycle_text(A):
    return " ".join("[%s]" % ",".join(map(str, a)) for a in A) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def ear_sizes(count, sizes):
    """The fixed multiset of ears adding ``count`` vertices: the sizes in
    turn, largest first, and a 3-ear when no size fits the remainder."""
    order = sorted(sizes, reverse=True)
    ears, k = [], 0
    while count > 0:
        p = order[k % len(order)]
        k += 1
        if p - 2 > count:
            if min(order) - 2 <= count:
                continue
            p = 3
        ears.append(p)
        count -= p - 2
    return ears


def anchor_rng(*slot):
    """Generator for an anchor slot: the same for every seed."""
    return random.Random(repr(slot))


def rotate_cycle(A, rng):
    """The cycle read from a seeded start."""
    r = rng.randrange(len(A))
    return A[r:] + A[:r]


def glue_ears(art, A, n, sizes, rng):
    """Glue the fixed ear multiset for period n, in seeded order at seeded
    positions."""
    Q = art.quiddity_new(A)
    ears = ear_sizes(n - Q.n, sizes)
    rng.shuffle(ears)
    for p in ears:
        Q = art.glue(Q, p, rng.randint(1, Q.n))
    return Q.A


def gap_chain_cycle(rng, nmin=2, nmax=5):
    """Random cycle whose adjacent multisets share a gap size (the recipe of
    the CLI's random_quiddity), so many are realizable."""
    n = rng.randint(nmin, nmax)
    gaps = [rng.choice(SIZES) for _ in range(n)]
    A = []
    for i in range(n):
        entries = [gaps[i - 1], gaps[i]]
        if gaps[i - 1] == gaps[i] and rng.random() < 0.3:
            entries = [gaps[i]]
        else:
            entries += [rng.choice(SIZES) for _ in range(rng.randint(0, 2))]
        A.append(tuple(sorted(entries)))
    return tuple(A)


class WitnessPool:
    """Random annulus witnesses in the ring L = 60 (sizes 3, 4 and 5 all
    present), drawn without replacement.  The pool first classifies a fixed
    number of random cycles, so that set-up does the same work for every
    seed, and grows only when no candidate fits a request."""

    def __init__(self, art, rng, size):
        self.art, self.rng = art, rng
        self.items = [self._next() for _ in range(size)]

    def _next(self):
        while True:
            A = gap_chain_cycle(self.rng)
            if not {3, 4, 5} <= {p for a in A for p in a}:
                continue
            cls = self.art.classify_realizability(self.art.quiddity_new(A))
            if cls.kind == "annulus":
                return A, cls.witness

    def draw(self, accept):
        """(cycle, witness, accept's value) for a seeded choice among the
        witnesses that ``accept`` maps to a true value."""
        while True:
            hits = [(k, got) for k, (_A, D) in enumerate(self.items)
                    if (got := accept(D))]
            if hits:
                k, got = self.rng.choice(hits)
                A, D = self.items.pop(k)
                return A, D, got
            self.items.append(self._next())


def matchings_in_window(D, i, j):
    """Number of matchings contributing to m_{i,j} (the enumeration size)."""
    return math.prod(len(D.corner_choices(g, "outer")) for g in range(i, j - 1))


def _chords_cross(n, a, b, c, d):
    if len({a, b, c, d}) < 4:
        return False
    inside = lambda x: (x - a) % n < (b - a) % n
    return inside(c) != inside(d)


def polygon_dissection(rng, n, arcs_wanted):
    """Random non-crossing diagonals of an n-gon, ``arcs_wanted`` of them."""
    while True:
        cand = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
                if not (a == 1 and b == n)]
        rng.shuffle(cand)
        arcs = []
        for a, b in cand:
            if len(arcs) < arcs_wanted and all(
                    not _chords_cross(n, a, b, c, d) for c, d in arcs):
                arcs.append((a, b))
        if len(arcs) == arcs_wanted:
            return arcs


# ---------------------------------------------------------------------------
# classify-ears
# ---------------------------------------------------------------------------

CLASSIFY_CORES = (  # with QUOTIENT_CORE, indexed by D33, D44, ANN, QUOT
    (((3, 3),), "punctured_disc"),
    (((4, 4), (4,)), "punctured_disc"),
    (README_ANNULUS, "annulus"),
)
THREE_EARS, MIXED_EARS = (3,), (3, 4, 5)


D33, D44, ANN, QUOT = range(4)


def _classify_plan():
    """(core, ears, n, anchor key) per op; ops with one key classify the
    same cycle.  The 73 seeded cycles (key None) rotate over the cores;
    3-ear cycles stop at n = 48, below the cut-depth guard of ROADMAP item
    2.  Twelve classifications of one 3-ear n = 20 disc cycle cost about
    the median and hold p50; ten of one 3-ear n = 40 annulus cycle hold p90,
    with the five heavier ops above them."""
    seeded = [(k % 4, THREE_EARS, n) for k, n in enumerate(
        (16,) * 10 + (18,) * 6 + (20,) * 6)]
    seeded += [(k % 4, MIXED_EARS, n) for k, n in enumerate(
        (16,) * 10 + (18,) * 6 + (20,) * 6 + (24,) * 6 + (28,) * 4)]
    seeded += [(k % 3, THREE_EARS, n) for k, n in enumerate(
        (24,) * 6 + (28,) * 8 + (32,) * 5)]
    heavy = [(D44, THREE_EARS, 48), (ANN, THREE_EARS, 48),
             (D33, MIXED_EARS, 90), (D44, MIXED_EARS, 110),
             (ANN, MIXED_EARS, 120)]
    return tuple(slot + (None,) for slot in seeded) \
        + ((D33, THREE_EARS, 20, "p50"),) * 12 \
        + ((ANN, THREE_EARS, 40, "p90"),) * 10 \
        + tuple(slot + (k,) for k, slot in enumerate(heavy))


CLASSIFY_PLAN = _classify_plan()


def classify_check(A, kind):
    def check(art, result):
        expect_exit(result, 0)
        lines = result[1].splitlines()
        if not lines or lines[0] != "verdict: " + kind:
            raise CheckFailed("%r, expected verdict %s"
                              % (lines[0] if lines else "", kind))
        if labelled_value(lines, "n: ") != str(len(A)):
            raise CheckFailed("witness period differs from the input")
        if "witness:" not in lines:
            raise CheckFailed("no witness printed")
        text = "\n".join(lines[lines.index("witness:") + 1:])
        W = art.parse_dissection_text(text)
        if art.quiddity_of(W, "outer").A != tuple(A):
            raise CheckFailed("witness quiddity differs from the input")
    return check


def build_classify_ears(art, rng, workdir):
    cores = list(CLASSIFY_CORES) + [(QUOTIENT_CORE, "quotient_annulus")]
    ops = []
    for idx, (core_idx, ears, n, key) in enumerate(CLASSIFY_PLAN):
        core, kind = cores[core_idx]
        if key is None:
            A = rotate_cycle(glue_ears(art, core, n, ears, rng), rng)
        else:
            A = glue_ears(art, core, n, ears, anchor_rng("classify", key))
        path = write_input(workdir, idx, cycle_text(A))
        ops.append(verb_op("classify", "classify", path, (),
                           classify_check(A, kind)))
    return ops


# ---------------------------------------------------------------------------
# frieze-scan
# ---------------------------------------------------------------------------

S345 = (3, 4, 5)
# (kind, period, subgon sizes); the sizes fix the ring, L = 60 for the
# larger cycles, and the fixed ear multisets fix the work per slot.  Cycles
# of period ANCHOR_PERIOD or more are anchors: their ops are the heavier two
# thirds of the pass and hold both p50 and p90.
FRIEZE_PLAN = (
    ("polygon", 4, (4,)), ("polygon", 5, (3, 4)), ("polygon", 6, S345),
    ("polygon", 7, (3, 5)), ("polygon", 8, S345), ("polygon", 9, (3, 4, 6)),
    ("polygon", 10, S345), ("polygon", 11, (4, 5)), ("polygon", 12, S345),
    ("polygon", 13, (3, 4, 6)), ("polygon", 14, S345), ("polygon", 16, S345),
    ("annulus", 5, (3, 4)), ("annulus", 6, S345), ("annulus", 7, (3, 4)),
    ("annulus", 8, S345), ("annulus", 10, S345), ("annulus", 12, S345),
    ("annulus", 14, (3, 4, 6)), ("annulus", 16, S345),
    ("free", 3, (3, 4)), ("free", 4, (3, 5)), ("free", 5, (4, 6)),
    ("free", 6, S345), ("free", 8, S345), ("free", 10, S345),
    ("free", 12, (3, 4, 6)), ("free", 14, S345), ("free", 16, S345),
    ("quotient", 6, S345), ("quotient", 8, S345), ("quotient", 10, S345),
    ("quotient", 12, S345), ("quotient", 16, S345),
)
ANCHOR_PERIOD = 8
GROWTH_K = 5
POSITIVITY_KINDS = ("provably_positive", "nonpositive_found", "inconclusive")


def frieze_cycle(art, rng, kind, n, sizes):
    if kind == "polygon":
        p = max(sizes)
        return glue_ears(art, ((p,),) * p, n, sizes, rng)
    if kind == "annulus":
        return glue_ears(art, README_ANNULUS, n, sizes, rng)
    if kind == "quotient":
        return glue_ears(art, QUOTIENT_CORE, n, sizes, rng)
    # free: every multiset has two or three entries, so every entry is >= 2;
    # the first entries run through the sizes so that all of them occur
    return tuple(tuple(sorted([sizes[i % len(sizes)]] + [
        rng.choice(sizes) for _ in range(rng.randint(1, 2))]))
        for i in range(n))
class FriezeAnswers:
    """Known answers for one cycle, computed on first use."""

    def __init__(self, refs, A, kind):
        self.refs, self.A, self.kind = refs, A, kind
        self._F = None

    @property
    def F(self):
        if self._F is None:
            self._F = self.refs.frieze(self.A)
        return self._F

    def check_gen(self, art, result):
        expect_exit(result, 0)
        n, R = len(self.A), self.F.R
        rows = [split_cells(ln) for ln in result[1].splitlines()]
        if len(rows) != 3 * n + 2 or any(len(r) != 2 * n for r in rows):
            raise CheckFailed("gen printed %d rows, expected %d rows of %d"
                              % (len(rows), 3 * n + 2, 2 * n))
        if set(rows[0]) != {"0"} or set(rows[1]) != {"1"}:
            raise CheckFailed("boundary rows are not 0s and 1s")
        try:
            vals = [[R.parse(c) for c in r] for r in rows]
        except ValueError as exc:
            raise CheckFailed("unparsable cell: %s" % exc)
        if vals[2] != [self.F.entries[i % n] for i in range(2 * n)]:
            raise CheckFailed("first row differs from the quiddity entries")
        one = R.const(1)
        for t in range(1, 3 * n + 1):
            above, row, below = vals[t - 1], vals[t], vals[t + 1]
            for i in range(2 * n - 1):
                det = R.sub(R.mul(row[i], row[i + 1]),
                            R.mul(below[i], above[i + 1]))
                if det != one:
                    raise CheckFailed("diamond at row %d column %d has "
                                      "determinant %s" % (t - 1, i, det))
        if self.kind == "polygon":
            # a dissected n-gon's frieze has width n - 3
            if set(vals[n - 1]) != {one} or set(vals[n]) != {R.const(0)}:
                raise CheckFailed("polygon frieze does not close at width %d"
                                  % (n - 3))

    def check_growth(self, art, result):
        if result[0] not in (0, 1):
            expect_exit(result, 0)
        n, R, F = len(self.A), self.F.R, self.F
        lines = result[1].splitlines()
        s = [R.const(2)]
        for k in range(1, GROWTH_K + 1):
            if F.finite_within(k * n + 2):
                expect_exit(result, 1)
                if lines[k - 1:] != ["growth coefficient undefined for "
                                     "finite friezes"]:
                    raise CheckFailed("finite frieze not reported at s_%d" % k)
                return
            if k > len(lines) or not lines[k - 1].startswith("s_%d = " % k):
                raise CheckFailed("missing s_%d" % k)
            s.append(R.parse(lines[k - 1].split(" = ", 1)[1]))
            if s[k] != F.growth(k):
                raise CheckFailed("s_%d differs from the frieze" % k)
            if k >= 2 and s[k] != R.sub(R.mul(s[1], s[k - 1]), s[k - 2]):
                raise CheckFailed("s_%d breaks s_{k+1} = s_1 s_k - s_{k-1}" % k)
        expect_exit(result, 0)
        if len(lines) != GROWTH_K:
            raise CheckFailed("extra growth output")

    def check_positivity(self, art, result):
        kind, witness = result
        if kind not in POSITIVITY_KINDS:
            raise CheckFailed("unknown positivity verdict %r" % kind)
        if self.kind in ("polygon", "annulus") and kind != "provably_positive":
            raise CheckFailed("realizable %s cycle got %s" % (self.kind, kind))
        if kind == "nonpositive_found":
            i, j = witness
            n, R = len(self.A), self.F.R
            if not 2 <= j - i <= 3 * n + 1:
                raise CheckFailed("witness %r outside the scan" % (witness,))
            value, scale = approx(R, self.F.entry(i, j))
            if value > 1e-9 * scale:
                raise CheckFailed("witness entry %r is positive" % (witness,))


def approx(R, coeffs):
    """Float value of an element and the size of its rounding error scale."""
    mu = 2.0 * math.cos(math.pi / R.L)
    terms = [c * mu ** k for k, c in enumerate(coeffs)]
    return sum(terms), sum(abs(t) for t in terms) + 1.0


def positivity_op(path):
    def run(art):
        with open(path) as fh:
            Q = art.parse_quiddity_text(fh.read())
        v = art.check_positivity(art.FriezeTable(Q), 3 * Q.n)
        return v.kind, v.witness
    return run


def build_frieze_scan(art, rng, workdir):
    refs = References(art)
    ops = []
    for idx, (kind, n, sizes) in enumerate(FRIEZE_PLAN):
        if n >= ANCHOR_PERIOD:
            A = frieze_cycle(art, anchor_rng("frieze", idx), kind, n, sizes)
        else:
            A = rotate_cycle(frieze_cycle(art, rng, kind, n, sizes), rng)
        path = write_input(workdir, idx, cycle_text(A))
        ans = FriezeAnswers(refs, A, kind)
        ops += [
            verb_op("gen", "gen", path, ("--depth", 3 * n), ans.check_gen),
            verb_op("growth", "growth", path, ("--k", GROWTH_K),
                    ans.check_growth),
            Op("positivity", positivity_op(path), ans.check_positivity, path),
        ]
    return ops


# ---------------------------------------------------------------------------
# matching-sums
# ---------------------------------------------------------------------------

# The pass is laid out so that its percentiles fall inside groups of ops of
# equal cost: the five heaviest ops lie above p90, the ten local sums over
# windows of length 10 on the worked annulus hold p90 in the middle of their
# group, and the T-path ops hold p50.  Windows on the worked annulus start at
# a seeded multiple of its period 3, so the enumeration size is fixed while
# the input varies.
WORKED_LOCAL = ((3, 4), (5, 4), (7, 4), (9, 4), (10, 10), (13, 1))
WORKED_TRAD = ((4, 4), (8, 4), (12, 4), (14, 1))
WORKED_ANN = 6
# (mode, enumeration-size band, windows) per mixed-size witness
WITNESS_WINDOWS = ((("local", (1000, 2000), 1), ("trad", (50, 150), 1),
                    ("ann", (1, 150), 1)),) \
    + ((("trad", (50, 150), 1), ("ann", (1, 150), 1)),) * 2
# enumeration-size bands of the k = 2 annulus-weight sum, two ops each
GROWTH_BANDS = ((1, 150), (2000, 3500))
WITNESS_CANDIDATES = 60
TPATH_OPS = 43
TPATH_CROSSINGS = 2


def matchings_check(refs, A, i, j, mode):
    def check(art, result):
        expect_exit(result, 0)
        F = refs.frieze(A)
        if mode == "ann":
            n = len(A)
            want = F.R.sub(F.entry(i, i + n + 1), F.entry(i + 1, i + n))
        else:
            want = F.entry(i, j)
        lines = result[1].splitlines()
        expect_elem(F.R, labelled_value(lines, "sum: "), want,
                    "%s sum on (%d,%d)" % (mode, i, j))
    return check


def growth_annulus_check(refs, A):
    def check(art, result):
        F = refs.frieze(A)
        if result != F.growth(2):
            raise CheckFailed("annulus-weight s_2 differs from the frieze")
    return check


def growth_annulus_op(path):
    def run(art):
        with open(path) as fh:
            D = art.parse_dissection_text(fh.read())
        return art.growth_via_annulus_weight(D, 2).coeffs
    return run


def tpaths_check(refs, A, i, j):
    def check(art, result):
        expect_exit(result, 0)
        lines = result[1].splitlines()
        F = refs.frieze(A)
        count = int(labelled_value(lines, "paths: "))
        if count < 1 or count != len(lines) - 3:
            raise CheckFailed("%d paths listed, %d counted"
                              % (len(lines) - 3, count))
        expect_elem(F.R, labelled_value(lines, "sum: "),
                    F.entry(min(i, j), max(i, j)), "T-path sum")
        if not lines[-1].startswith("phi bijection verified on "):
            raise CheckFailed("phi bijection not verified")
    return check


def windows_in_band(D, lo, hi, full_period):
    """Windows (i, j) whose enumeration size lies in (lo, hi]: full-period
    windows j = i + n + 1, or any window from i in one period."""
    n = D.surface.n
    out = []
    for i in range(n):
        lengths = [n + 1] if full_period else range(2, 4 * n)
        for length in lengths:
            size = matchings_in_window(D, i, i + length)
            if size > hi:
                break
            if size > lo:
                out.append((i, i + length))
    return out


def build_matching_sums(art, rng, workdir):
    refs = References(art)
    ops = []

    def add(text, make_op):
        ops.append(make_op(write_input(workdir, len(ops), text)))

    def add_matchings(text, A, i, j, mode):
        add(text, lambda path: verb_op(
            "matchings-" + mode, "matchings", path,
            ("--from", i, "--to", j, "--mode", mode),
            matchings_check(refs, A, i, j, mode)))

    # witnesses, their windows and the T-path shapes are anchors; the seed
    # shifts windows by whole periods and rotates vertex labels
    shape_rng = anchor_rng("matching-sums")
    pool = WitnessPool(art, shape_rng, WITNESS_CANDIDATES)
    worked_A = art.quiddity_of(art.parse_dissection_text(WORKED_ANNULUS)).A
    for mode, plan in (("local", WORKED_LOCAL), ("trad", WORKED_TRAD)):
        for length, count in plan:
            for _ in range(count):
                i = 3 * rng.randint(0, 3)
                add_matchings(WORKED_ANNULUS, worked_A, i, i + length, mode)
    for _ in range(WORKED_ANN):
        i = rng.randint(0, 5)
        add_matchings(WORKED_ANNULUS, worked_A, i, i + 4, "ann")

    for plan in WITNESS_WINDOWS:
        def accept(W):
            found = [windows_in_band(W, lo, hi, mode == "ann")
                     for mode, (lo, hi), _k in plan]
            return found if all(found) else None
        A, D, found = pool.draw(accept)
        text = art.format_dissection(D) + "\n"
        n = D.surface.n
        for (mode, _band, count), windows in zip(plan, found):
            for i, j in shape_rng.sample(windows, count):
                t = n * rng.randint(0, 3)
                add_matchings(text, A, i + t, j + t, mode)

    for lo, hi in GROWTH_BANDS:
        for _ in range(2):
            # corner counts repeat with the period, so the square of the
            # k = 1 size is the size over the doubled period
            # not relabelled by the seed: the enumeration's cost depends on
            # where the doubled period starts
            A, D, _size = pool.draw(lambda W: lo < matchings_in_window(
                    W, 0, W.surface.n + 1) ** 2 <= hi)
            add(art.format_dissection(D) + "\n", lambda path: Op(
                "growth-annulus", growth_annulus_op(path),
                growth_annulus_check(refs, A), path))

    for k in range(TPATH_OPS):
        n = 8 + k % 5
        while True:
            arcs = polygon_dissection(shape_rng, n, n - 4)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
                     if (i, j) != (1, n) and sum(
                         _chords_cross(n, i, j, a, b) for a, b in arcs)
                     == TPATH_CROSSINGS]
            if pairs:
                break
        i, j = shape_rng.choice(pairs)
        if shape_rng.random() < 0.5:
            i, j = j, i
        # the seed rotates the vertex labels
        r = rng.randrange(n)
        i, j = (i - 1 + r) % n + 1, (j - 1 + r) % n + 1
        arcs = [((a - 1 + r) % n + 1, (b - 1 + r) % n + 1) for a, b in arcs]
        text = "polygon %d\n" % n + "".join("diag %d %d\n" % ab for ab in arcs)
        A = art.quiddity_of(art.parse_dissection_text(text)).A
        add(text, lambda path: verb_op(
            "tpaths", "tpaths", path, ("--from", i, "--to", j, "--kind",
                                       "weak", "--check-phi"),
            tpaths_check(refs, A, i, j)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable    # (art, rng, workdir) -> [Op]
    limit_ms: float    # failed ops are charged at this per-op latency


WORKLOADS = {w.name: w for w in (
    Workload("classify-ears", build_classify_ears, 10000.0),
    Workload("frieze-scan", build_frieze_scan, 3000.0),
    Workload("matching-sums", build_matching_sums, 20000.0),
)}
