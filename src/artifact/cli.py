"""Command-line interface: frieze generation, realizability classification,
growth coefficients, matching and T-path enumeration, the verification
suites of ``artifact.suites``, and schematic SVG rendering.

Exit codes: 0 success, 1 mathematical negative (e.g. unrealizable cycle),
2 input error, 3 internal assertion failure.
"""

import argparse
import functools
import math
import random
import sys

from .ring import format_elem
from .frieze import FriezeTable, growth_coefficients, parse_quiddity_text
from .surface import (parse_dissection_text, format_dissection,
                      dissection_power, _arc_ends)
from .realize import classify_realizability, witness_nonuniqueness_probe
from .matchings import (check_window, enumerate_matchings, weigh_matching,
                        matching_sum, DEFAULT_BUDGET)
from .tpaths import weighted_tpaths, phi_bijection
from .suites import SUITES

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

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
    if args.k < 1:
        raise ValueError("k must be >= 1")
    Q = _load_quiddity(args.input)
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
    i, j = args.from_, args.to
    # the bijection is checked first, so a refusal prints no paths
    mapping = phi_bijection(D, i, j) if args.check_phi else None
    total = D.context.zero()
    count = 0
    for path, wt in weighted_tpaths(D, i, j, args.kind):
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
    if args.k < 1:
        raise ValueError("k must be >= 1")
    D = _load_dissection(args.input)
    out.write(format_dissection(dissection_power(D, args.k)) + "\n")
    return EXIT_OK


def _cmd_verify(args, out):
    if args.count < 0:
        raise ValueError("count must be >= 0")
    fails = SUITES[args.suite](random.Random(args.seed), args.count, out)
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

    def vert_pt(v):
        if v[0] == "inf":
            return (cx, cy)  # the puncture
        radius, period = (R, s.n) if v[0] == "b" else (r_in, s.m)
        th = -math.pi / 2 + 2 * math.pi * (v[1] % period) / period
        return (cx + radius * math.cos(th), cy + radius * math.sin(th))

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
        p, q = map(vert_pt, _arc_ends(arc, 0, s.n, s.m))
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                     'stroke="black"/>' % (p[0], p[1], q[0], q[1]))
    for i in range(1, s.n + 1):
        x, y = vert_pt(("b", i - 1))
        parts.append('<circle cx="%g" cy="%g" r="3" fill="black"/>' % (x, y))
        lx = cx + (x - cx) * 1.09
        ly = cy + (y - cy) * 1.09
        parts.append('<text x="%g" y="%g" font-size="12" '
                     'text-anchor="middle">%d</text>' % (lx, ly, i))
    if s.kind == "annulus":
        for j in range(1, s.m + 1):
            x, y = vert_pt(("t", j - 1))
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
    """The argument parser and its verb parsers by name, built once per
    process: building them costs about sixty times as much as parsing one
    command line with them.  ``dispatch`` parses a command line that
    starts with a verb with that verb's parser alone."""
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
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)

    p = sub.add_parser("render", help="schematic SVG of a dissection")
    p.add_argument("input")
    p.add_argument("--out")
    return ap, sub.choices


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


def _parse_args(argv):
    ap, verbs = build_parser()
    if argv and argv[0] in verbs:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return ap.parse_args(argv)


def dispatch(argv, out=None):
    """Run one command line and return its exit code.  A line that starts
    with a verb is parsed by that verb's own parser; any other, or one that
    leaves arguments over, by the whole parser, which writes every usage
    and error text."""
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(argv)
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
