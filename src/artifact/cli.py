"""Command-line interface: frieze generation, realizability classification,
growth coefficients, matching and T-path enumeration, verification suites,
and schematic SVG rendering.

Exit codes: 0 success, 1 mathematical negative (e.g. unrealizable cycle),
2 input error, 3 internal assertion failure.
"""

import argparse
import functools
import math
import random
import sys

from .ring import format_elem
from .frieze import (FriezeTable, format_quiddity, quiddity_new,
                     check_positivity, growth_coefficients)
from .surface import (parse_dissection_text, format_dissection, quiddity_of,
                      dissection_power, chords_cross)
from .realize import classify_realizability, witness_nonuniqueness_probe
from .matchings import (check_window, enumerate_matchings, weigh_matching,
                        matching_sum, growth_via_annulus_weight,
                        inner_outer_consistency, DEFAULT_BUDGET)
from .tpaths import PolygonGeometry, weighted_tpaths, phi_bijection

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_quiddity_text(line):
    """Parse one cycle in the bracketed-multiset format, e.g.
    ``[3,3,4] [3] [3,3,4,4]``.  ``#`` starts a comment."""
    src = line.split("#", 1)[0]
    A = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "[":
            raise ValueError("offset %d: expected '['" % i)
        j = src.find("]", i)
        if j < 0:
            raise ValueError("offset %d: unterminated multiset" % i)
        body = src[i + 1:j]
        entries = []
        pos = i + 1
        for tok in body.split(","):
            stripped = tok.strip()
            at = pos + tok.index(stripped) if stripped else pos
            if not (stripped.isascii() and stripped.isdigit()):
                raise ValueError("offset %d: expected an integer" % at)
            p = int(stripped)
            if p < 3:
                raise ValueError("offset %d: subgon size %d is below 3"
                                 % (at, p))
            entries.append(p)
            pos += len(tok) + 1
        A.append(tuple(sorted(entries)))
        i = j + 1
    if not A:
        raise ValueError("no multisets found")
    return quiddity_new(A)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_quiddity(path):
    for raw in _read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return parse_quiddity_text(line)
    raise ValueError("no quiddity cycle found in %s" % path)


def _load_dissection(path):
    return parse_dissection_text(_read_text(path))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_gen(args, out):
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    Q = _load_quiddity(args.input)
    F = FriezeTable(Q)
    rows = [["0"] * Q.n, ["1"] * Q.n]
    text = {}    # coefficients -> cell: each distinct value formatted once
    for t in range(1, args.depth + 1):
        rows.append([text.get(e.coeffs) or
                     text.setdefault(e.coeffs, format_elem(e))
                     for e in F.row(t)])
    width = max(len(c) for r in rows for c in r) + 2
    for r, cells in enumerate(rows):
        indent = " " * ((r % 2) * (width // 2))
        period = "".join(c.ljust(width) for c in cells)   # printed twice
        out.write(indent + (period * 2).rstrip() + "\n")
    return EXIT_OK


def _print_classification(cls, out):
    out.write("verdict: %s\n" % cls.kind)
    if cls.kind == "unrealizable":
        out.write("reason: %s\n" % cls.reason)
        return
    if cls.n is not None:
        out.write("n: %d\n" % cls.n)
    if cls.m is not None:
        out.write("m: %d\n" % cls.m)
    if cls.cut_trace:
        out.write("cut trace: %s\n"
                  % "; ".join("ear of size %d at position %d" % (p, s)
                              for s, p in cls.cut_trace))
    if cls.witness is not None:
        out.write("witness:\n")
        out.write(format_dissection(cls.witness) + "\n")


def _cmd_classify(args, out):
    Q = _load_quiddity(args.input)
    cls = classify_realizability(Q)
    _print_classification(cls, out)
    if args.all_witnesses:
        for idx, W in enumerate(witness_nonuniqueness_probe(Q), 1):
            out.write("witness %d:\n%s\n" % (idx, format_dissection(W)))
    return EXIT_OK if cls.realizable else EXIT_NEGATIVE


def _cmd_realize(args, out):
    Q = _load_quiddity(args.input)
    cls = classify_realizability(Q)
    if not cls.realizable:
        out.write("unrealizable: %s\n" % cls.reason)
        return EXIT_NEGATIVE
    out.write(format_dissection(cls.witness) + "\n")
    return EXIT_OK


def _cmd_growth(args, out):
    Q = _load_quiddity(args.input)
    if args.k < 1:
        raise ValueError("k must be >= 1")
    F = FriezeTable(Q)
    try:
        for k, s in enumerate(growth_coefficients(F, args.k), 1):
            out.write("s_%d = %s\n" % (k, format_elem(s)))
    except ValueError as exc:
        out.write("%s\n" % exc)
        return EXIT_NEGATIVE
    return EXIT_OK


_MODES = {"local": "local", "trad": "traditional", "ann": "annulus"}


def _cmd_matchings(args, out):
    D = _load_dissection(args.input)
    mode = _MODES[args.mode]
    i, j = args.from_, args.to
    if args.list:
        check_window(D, mode, i, j)
        total = D.context.zero()
        count = 0
        for w in enumerate_matchings(D, i, j, budget=args.budget):
            wt = weigh_matching(w, mode, D)
            total = total + wt
            count += 1
            faces = " ".join(str(fid) for _key, fid, _t in w.choice)
            out.write("%-20s %s\n" % (faces if faces else "(empty)",
                                      format_elem(wt)))
        out.write("matchings: %d\n" % count)
    else:
        total = matching_sum(D, i, j, mode=mode, budget=args.budget)
    out.write("sum: %s\n" % format_elem(total))
    return EXIT_OK


def _cmd_tpaths(args, out):
    D = _load_dissection(args.input)
    geo = PolygonGeometry(D)
    i, j = args.from_, args.to
    # the bijection is checked first, so a refusal prints no paths
    mapping = phi_bijection(D, i, j, geo) if args.check_phi else None
    total = D.context.zero()
    count = 0
    for path, wt in weighted_tpaths(D, i, j, args.kind, geo):
        total = total + wt
        count += 1
        route = " ".join("%d->%d" % st for st in path.steps)
        out.write("%-40s %s\n" % (route, format_elem(wt)))
    out.write("paths: %d\n" % count)
    out.write("sum: %s\n" % format_elem(total))
    if mapping is not None:
        out.write("phi bijection verified on %d matchings\n" % len(mapping))
    return EXIT_OK


def _cmd_power(args, out):
    D = _load_dissection(args.input)
    out.write(format_dissection(dissection_power(D, args.k)) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# random instance generators (shared with the test suite)
# ---------------------------------------------------------------------------

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
    from .surface import Arc, build_dissection, polygon
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


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_unimodular(rng, count, out):
    fails = 0
    for _ in range(count):
        Q = random_free_quiddity(rng)
        F = FriezeTable(Q)
        one = Q.context.one()
        depth = 3 * Q.n
        for i in range(Q.n):
            for j in range(i + 1, i + depth):
                det = (F.entry(i, j) * F.entry(i + 1, j + 1)
                       - F.entry(i, j + 1) * F.entry(i + 1, j))
                if det != one:
                    fails += 1
                    out.write("diamond fails at (%d,%d) for %s\n"
                              % (i, j, format_quiddity(Q)))
                    break
            else:
                continue
            break
    return fails


def _suite_weights_equal(rng, count, out):
    fails = 0
    for _ in range(count):
        if rng.random() < 0.5:
            D = random_polygon_dissection(rng)
        else:
            _Q, cls = random_witness(rng, ("punctured_disc", "annulus"))
            D = cls.witness
        n = D.surface.n
        i = rng.randint(0, n - 1)
        # on a polygon the window must not wrap around the boundary
        span = n - 1 if D.surface.kind == "polygon" else n + 1
        j = i + rng.randint(1, span)
        a = matching_sum(D, i, j, "local")
        b = matching_sum(D, i, j, "traditional")
        if a != b:
            fails += 1
            out.write("local/traditional weights differ on window (%d,%d)\n"
                      % (i, j))
    return fails


def _suite_growth_matching(rng, count, out):
    fails = 0
    for _ in range(count):
        _Q, cls = random_witness(rng, ("annulus",))
        try:
            growth_via_annulus_weight(cls.witness, 1)
        except AssertionError as exc:
            fails += 1
            out.write("growth mismatch: %s\n" % exc)
    return fails


def _suite_inner_outer(rng, count, out):
    fails = 0
    for _ in range(count):
        _Q, cls = random_witness(rng, ("annulus",))
        equal, s_out, s_in = inner_outer_consistency(cls.witness)
        if not equal:
            fails += 1
            out.write("inner/outer growth differs: %s vs %s\n"
                      % (format_elem(s_out), format_elem(s_in)))
    return fails


def _suite_phi(rng, count, out):
    fails = 0
    for _ in range(count):
        D = random_polygon_dissection(rng)
        n = D.surface.n
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        try:
            phi_bijection(D, i, j)
        except AssertionError as exc:
            fails += 1
            out.write("phi fails on %d->%d of %s: %s\n"
                      % (i, j, format_dissection(D).replace("\n", "; "), exc))
    return fails


def _suite_positivity_sweep(rng, count, out):
    """Reports the verdicts on quotient cycles, which may be nonpositive;
    fails on a polygon, disc or annulus witness not provably positive."""
    logged = {}
    for _ in range(count):
        Q, _cls = random_quotient_cycle(rng)
        verdict = check_positivity(FriezeTable(Q), 3 * Q.n)
        logged[verdict.kind] = logged.get(verdict.kind, 0) + 1
    for kind in sorted(logged):
        out.write("  %s: %d\n" % (kind, logged[kind]))
    fails = 0
    for k in range(count):
        if k % 2:
            Q, cls = random_witness(rng, ("punctured_disc", "annulus"))
            kind = cls.kind
        else:
            Q, kind = quiddity_of(random_polygon_dissection(rng)), "polygon"
        verdict = check_positivity(FriezeTable(Q), 3 * Q.n)
        if verdict.kind != "provably_positive":
            fails += 1
            out.write("realizable %s frieze is %s: %s\n"
                      % (kind, verdict.kind, format_quiddity(Q)))
    return fails


_SUITES = {
    "unimodular": _suite_unimodular,
    "weights-equal": _suite_weights_equal,
    "growth-matching": _suite_growth_matching,
    "inner-outer": _suite_inner_outer,
    "phi": _suite_phi,
    "positivity-sweep": _suite_positivity_sweep,
}


def _cmd_verify(args, out):
    if args.count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(args.seed)
    fails = _SUITES[args.suite](rng, args.count, out)
    out.write("suite %s: %d pass, %d fail\n"
              % (args.suite, args.count - fails, fails))
    return EXIT_OK if fails == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ["#c6dbef", "#fdd0a2", "#c7e9c0", "#fcbba1", "#dadaeb",
            "#fee391", "#d9d9d9", "#a6dba0", "#f1b6da", "#b2e2e2"]


def render_svg(D):
    """Schematic picture: vertices on circles, arcs as straight chords,
    faces shaded by identification class and labelled by id."""
    base = D.base
    s = base.surface
    cx = cy = 220.0
    R, r_in = 180.0, 75.0

    def outer_pt(a):
        th = -math.pi / 2 + 2 * math.pi * ((a - 1) % s.n) / s.n
        return (cx + R * math.cos(th), cy + R * math.sin(th))

    def inner_pt(b):
        mm = s.m if s.kind == "annulus" else 1
        th = -math.pi / 2 + 2 * math.pi * ((b - 1) % mm) / mm
        return (cx + r_in * math.cos(th), cy + r_in * math.sin(th))

    def vert_pt(v):
        if v[0] == "b":
            return outer_pt(v[1] + 1)
        if v[0] == "t":
            return inner_pt(v[1] + 1)
        return (cx, cy)  # the puncture

    if D.is_quotient():
        class_index = {fid: D.class_key(fid, 0)[0]
                       for fid in range(len(base.base_faces))}
        roots = sorted(set(class_index.values()))
        color_of = {f: _PALETTE[roots.index(c) % len(_PALETTE)]
                    for f, c in class_index.items()}
    else:
        color_of = {f.id: _PALETTE[f.id % len(_PALETTE)]
                    for f in base.base_faces}

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="440" '
             'height="440" viewBox="0 0 440 440">']
    parts.append('<circle cx="%g" cy="%g" r="%g" fill="none" '
                 'stroke="black"/>' % (cx, cy, R))
    if s.kind == "annulus":
        parts.append('<circle cx="%g" cy="%g" r="%g" fill="none" '
                     'stroke="black"/>' % (cx, cy, r_in))
    elif s.kind == "disc":
        parts.append('<circle cx="%g" cy="%g" r="3" fill="black"/>'
                     % (cx, cy))
    for f in base.base_faces:
        pts = [vert_pt(v) for v in f.verts]
        path = " ".join("%g,%g" % p for p in pts)
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        parts.append('<polygon points="%s" fill="%s" fill-opacity="0.6" '
                     'stroke="none"/>' % (path, color_of[f.id]))
        parts.append('<text x="%g" y="%g" font-size="13" '
                     'text-anchor="middle">%d</text>' % (x, y, f.id))
    for arc in base.arcs:
        if arc.kind == "diag" or arc.kind == "peri":
            p, q = outer_pt(arc.a), outer_pt(arc.b)
        elif arc.kind == "bridge":
            p, q = outer_pt(arc.a), inner_pt(arc.b)
        else:
            p, q = outer_pt(arc.a), (cx, cy)
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                     'stroke="black"/>' % (p[0], p[1], q[0], q[1]))
    for i in range(1, s.n + 1):
        x, y = outer_pt(i)
        parts.append('<circle cx="%g" cy="%g" r="3" fill="black"/>' % (x, y))
        lx = cx + (x - cx) * 1.09
        ly = cy + (y - cy) * 1.09
        parts.append('<text x="%g" y="%g" font-size="12" '
                     'text-anchor="middle">%d</text>' % (lx, ly, i))
    if s.kind == "annulus":
        for j in range(1, s.m + 1):
            x, y = inner_pt(j)
            parts.append('<circle cx="%g" cy="%g" r="3" fill="black"/>'
                         % (x, y))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(args, out):
    D = _load_dissection(args.input)
    svg = render_svg(D)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        out.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: building it costs
    about sixty times as much as parsing one command line with it."""
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Exact frieze patterns, realizability by dissections, "
                    "and combinatorial formula checks.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="print frieze rows")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=6)

    p = sub.add_parser("classify", help="full realizability classification")
    p.add_argument("input")
    p.add_argument("--all-witnesses", action="store_true")

    p = sub.add_parser("realize", help="print a witness dissection")
    p.add_argument("input")

    p = sub.add_parser("growth", help="growth coefficients s_1..s_k")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("matchings", help="matching sums and tables")
    p.add_argument("input")
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", dest="to", type=int, required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default="local")
    p.add_argument("--list", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("tpaths", help="T-path enumeration")
    p.add_argument("input")
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", dest="to", type=int, required=True)
    p.add_argument("--kind", choices=["weak", "complete"], default="weak")
    p.add_argument("--check-phi", action="store_true")

    p = sub.add_parser("power", help="k-th power of an annulus dissection")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=2)

    p = sub.add_parser("verify", help="randomized property suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)

    p = sub.add_parser("render", help="schematic SVG of a dissection")
    p.add_argument("input")
    p.add_argument("--out")
    return ap


_COMMANDS = {
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "realize": _cmd_realize,
    "growth": _cmd_growth,
    "matchings": _cmd_matchings,
    "tpaths": _cmd_tpaths,
    "power": _cmd_power,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def dispatch(argv, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.verb](args, out)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    except AssertionError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
