"""Per-layer tracing installed from the benchmark's own files.

``Tracer.install`` wraps the public functions of each layer module.  A
module binds the names it imports when it loads (``cli`` imports nearly
everything, ``matchings`` and ``tpaths`` import ``chebyshev_u``, ...), so a
function is replaced in every ``artifact`` namespace that holds it, and
methods are replaced on their class.  ``uninstall`` restores the originals.

Every wrapped call pushes a frame; on return its duration is charged to the
function and added to the parent frame's child time, so a function's self
time is its duration minus the time of the wrapped calls it made.  Calls
marked SPAN also keep a span record ``(key, op, parent span, start, end)``
in memory, written out by ``write_spans`` when the run ends.  Hot leaves
(ring multiplication, Chebyshev values, sign decisions, frieze entries,
corner queries, matching and T-path weights) are counted and timed but keep
no span record, so that millions of calls stay affordable; the cost that
remains shows in ``trace.overhead_ratio``.
"""

import json
import sys
from time import perf_counter

SPAN, TALLY, GEN, LEAF = "span", "tally", "gen", "leaf"

# (module, attribute, stat key, how); the key's prefix names the layer
TARGETS = (
    ("cli", "dispatch", "cli.dispatch", SPAN),
    ("realize", "classify_realizability", "realize.classify", SPAN),
    ("realize", "skeletal_realize", "realize.skeletal_realize", SPAN),
    ("realize", "quotient_realize", "realize.quotient_realize", SPAN),
    ("realize", "witness_nonuniqueness_probe", "realize.probe", SPAN),
    ("realize", "all_pchoices", "realize.all_pchoices", GEN),
    ("realize", "valid_pchoices", "realize.valid_pchoices", GEN),
    ("surface", "Dissection.__init__", "surface.build", SPAN),
    ("surface", "glue_ear", "surface.glue_ear", SPAN),
    ("surface", "rotate_dissection", "surface.rotate", SPAN),
    ("surface", "quiddity_of", "surface.quiddity_of", SPAN),
    ("surface", "make_quotient", "surface.make_quotient", SPAN),
    ("surface", "dissection_power", "surface.power", SPAN),
    # QuotientDissection.corner_choices delegates to this method
    ("surface", "Dissection.corner_choices", "surface.corner_choices", TALLY),
    ("frieze", "QuiddityCycle.__init__", "frieze.cycle", SPAN),
    ("frieze", "FriezeTable.entry", "frieze.entry", TALLY),
    ("frieze", "check_positivity", "frieze.check_positivity", SPAN),
    ("frieze", "growth_coefficient", "frieze.growth_coefficient", SPAN),
    ("ring", "RingContext.__init__", "ring.context", SPAN),
    ("ring", "RingElem.__mul__", "ring.mul", LEAF),
    ("ring", "RingElem.__rmul__", "ring.mul", LEAF),
    ("ring", "chebyshev_u", "ring.chebyshev_u", TALLY),
    ("ring", "sign_of", "ring.sign_of", TALLY),
    ("matchings", "matching_sum", "matchings.matching_sum", SPAN),
    ("matchings", "enumerate_matchings", "matchings.enumerate", GEN),
    ("matchings", "weigh_matching", "matchings.weigh_matching", TALLY),
    ("matchings", "growth_via_annulus_weight", "matchings.growth_annulus",
     SPAN),
    ("tpaths", "enumerate_tpaths", "tpaths.enumerate", GEN),
    ("tpaths", "tpath_weight", "tpaths.tpath_weight", TALLY),
    ("tpaths", "tpath_sum", "tpaths.tpath_sum", SPAN),
    ("tpaths", "phi_bijection", "tpaths.phi_bijection", SPAN),
)

CALLS, TOTAL, SELF, ITEMS, MULS = range(5)


class Tracer:
    """Counts, self times and spans of the wrapped layer functions.

    A frame is ``[child seconds, layer, ring multiplications inside, span
    index]``; the span index is the nearest enclosing recorded span.
    """

    def __init__(self, package="artifact"):
        self.package = package
        self.stack = []
        self.stats = {}        # key -> [calls, total s, self s, items, muls]
        self.counters = {"realize.ear_cuts": 0, "surface.faces_built": 0,
                         "matchings.budget_exceeded": 0}
        self.spans = []
        self.op = -1
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])

    def _close(self, stat, frame, parent, dt, calls=1):
        """Charge a finished frame: self time is its duration minus the time
        of the wrapped calls it made."""
        stat[CALLS] += calls
        stat[TOTAL] += dt
        stat[SELF] += dt - frame[0]
        stat[MULS] += frame[2]
        if parent is not None:
            parent[0] += dt
            parent[2] += frame[2]

    def _escaped(self, exc, layer, parent):
        budget = getattr(sys.modules.get(self.package + ".matchings"),
                         "BudgetExceeded", None)
        if (budget is not None and isinstance(exc, budget)
                and layer == "matchings"
                and (parent is None or parent[1] != "matchings")):
            self.counters["matchings.budget_exceeded"] += 1

    def span(self, key):
        """Context manager recording one span around bench-side code."""
        return _SpanContext(self, key)

    def _wrap(self, key, how, fn, post):
        layer = key.split(".", 1)[0]
        stat = self._stat(key)
        st, spans, tr = self.stack, self.spans, self

        if how == LEAF:
            def leaf(a, b):
                t0 = perf_counter()
                r = fn(a, b)
                dt = perf_counter() - t0
                stat[CALLS] += 1
                stat[TOTAL] += dt
                stat[SELF] += dt
                if st:
                    top = st[-1]
                    top[0] += dt
                    top[2] += 1
                return r
            return leaf

        if how == GEN:
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent = st[-1] if st else None
                    frame = [0.0, layer, 0, parent[3] if parent else -1]
                    st.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        tr._escaped(exc, layer, parent)
                        raise
                    finally:
                        dt = perf_counter() - t0
                        st.pop()
                        # each resumption is one timed segment of the call
                        tr._close(stat, frame, parent, dt, calls=0)
                    stat[ITEMS] += 1
                    yield item

            def counted(*args, **kwargs):
                stat[CALLS] += 1
                return gen(*args, **kwargs)
            return counted

        record = how == SPAN

        def call(*args, **kwargs):
            parent = st[-1] if st else None
            if record:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent[3] if parent else -1
            frame = [0.0, layer, 0, idx]
            st.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._escaped(exc, layer, parent)
                raise
            finally:
                t1 = perf_counter()
                st.pop()
                tr._close(stat, frame, parent, t1 - t0)
                if record:
                    spans[idx] = (key, tr.op, parent[3] if parent else -1,
                                  t0, t1)
            if post is not None:
                post(tr, args, result)
            return result
        return call

    # -- installation -----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package
                                        or name.startswith(self.package + "."))}
        for modname, attr, key, how in TARGETS:
            mod = mods[self.package + "." + modname]
            post = _POST.get(key)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(key, how, orig, post))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(key, how, orig, post)
            for m in mods.values():
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapper)
                        self._undo.append((m, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    # -- results ----------------------------------------------------------------

    def calls(self, key):
        return self._stat(key)[CALLS]

    def self_s(self, key):
        return self._stat(key)[SELF]

    def items(self, key):
        return self._stat(key)[ITEMS]

    def layer_self_s(self, layer):
        return sum(s[SELF] for k, s in self.stats.items()
                   if k.startswith(layer + "."))

    def counts(self):
        """Every count the trace keeps; these repeat exactly for one seed."""
        out = dict(self.counters)
        for key, s in sorted(self.stats.items()):
            out[key + ".calls"] = s[CALLS]
            out[key + ".items"] = s[ITEMS]
            out[key + ".muls"] = s[MULS]
        return out

    def write_spans(self, path):
        """Spans as ``[key, op, parent, start, end]`` rows, times in seconds
        from the first span."""
        rows = [s for s in self.spans if s is not None]
        t0 = min((s[3] for s in rows), default=0.0)
        with open(path, "w") as fh:
            json.dump({"fields": ["key", "op", "parent", "start_s", "end_s"],
                       "spans": [[k, op, p, a - t0, b - t0]
                                 for k, op, p, a, b in rows]}, fh)


class _SpanContext:
    def __init__(self, tracer, key):
        self.tr, self.key = tracer, key

    def __enter__(self):
        tr = self.tr
        self.parent = tr.stack[-1] if tr.stack else None
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.frame = [0.0, self.key.split(".", 1)[0], 0, self.idx]
        tr.stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tr
        tr.stack.pop()
        tr._close(tr._stat(self.key), self.frame, self.parent, t1 - self.t0)
        tr.spans[self.idx] = (self.key, tr.op,
                              self.parent[3] if self.parent else -1,
                              self.t0, t1)
        return False


def _count_ear_cuts(tr, args, cls):
    tr.counters["realize.ear_cuts"] += len(cls.cut_trace)


def _count_faces(tr, args, _none):
    tr.counters["surface.faces_built"] += len(args[0].base_faces)


_POST = {"realize.classify": _count_ear_cuts, "surface.build": _count_faces}


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, better, value from the tracer)
PER_LAYER = (
    ("cli.self_s", "s", "lower", lambda t: t.layer_self_s("cli")),
    ("realize.classify_calls", "count", "lower",
     lambda t: t.calls("realize.classify")),
    ("realize.self_s", "s", "lower", lambda t: t.layer_self_s("realize")),
    ("realize.ear_cuts", "count", "lower",
     lambda t: t.counters["realize.ear_cuts"]),
    ("realize.pchoices_tried", "count", "lower",
     lambda t: t.items("realize.all_pchoices")),
    ("realize.pchoice_valid_ratio", "ratio", "higher",
     lambda t: _ratio(t.items("realize.valid_pchoices"),
                      t.items("realize.all_pchoices"))),
    ("surface.dissections_built", "count", "lower",
     lambda t: t.calls("surface.build")),
    ("surface.builds_per_ear_cut", "ratio", "lower",
     lambda t: _ratio(t.calls("surface.build"),
                      t.counters["realize.ear_cuts"])),
    ("surface.faces_built", "count", "lower",
     lambda t: t.counters["surface.faces_built"]),
    ("surface.build_self_s", "s", "lower", lambda t: t.self_s("surface.build")),
    ("surface.glue_ear_self_s", "s", "lower",
     lambda t: t.self_s("surface.glue_ear")),
    ("surface.rotate_self_s", "s", "lower", lambda t: t.self_s("surface.rotate")),
    ("surface.quiddity_of_self_s", "s", "lower",
     lambda t: t.self_s("surface.quiddity_of")),
    ("surface.corner_choices_calls", "count", "lower",
     lambda t: t.calls("surface.corner_choices")),
    ("frieze.entry_calls", "count", "lower", lambda t: t.calls("frieze.entry")),
    ("frieze.entry_self_s", "s", "lower", lambda t: t.self_s("frieze.entry")),
    ("frieze.check_positivity_self_s", "s", "lower",
     lambda t: t.self_s("frieze.check_positivity")),
    ("frieze.growth_coefficient_self_s", "s", "lower",
     lambda t: t.self_s("frieze.growth_coefficient")),
    ("frieze.cycles_built", "count", "lower", lambda t: t.calls("frieze.cycle")),
    ("ring.mul_calls", "count", "lower", lambda t: t.calls("ring.mul")),
    ("ring.mul_self_s", "s", "lower", lambda t: t.self_s("ring.mul")),
    ("ring.chebyshev_u_calls", "count", "lower",
     lambda t: t.calls("ring.chebyshev_u")),
    ("ring.chebyshev_u_self_s", "s", "lower",
     lambda t: t.self_s("ring.chebyshev_u")),
    ("ring.sign_of_calls", "count", "lower", lambda t: t.calls("ring.sign_of")),
    ("ring.sign_of_self_s", "s", "lower", lambda t: t.self_s("ring.sign_of")),
    ("ring.contexts_built", "count", "lower", lambda t: t.calls("ring.context")),
    ("ring.context_self_s", "s", "lower", lambda t: t.self_s("ring.context")),
    ("matchings.matching_sum_calls", "count", "lower",
     lambda t: t.calls("matchings.matching_sum")),
    ("matchings.matching_sum_self_s", "s", "lower",
     lambda t: t.self_s("matchings.matching_sum")),
    ("matchings.matchings_enumerated", "count", "lower",
     lambda t: t.items("matchings.enumerate")),
    ("matchings.weigh_matching_calls", "count", "lower",
     lambda t: t.calls("matchings.weigh_matching")),
    ("matchings.muls_per_sum", "ratio", "lower",
     lambda t: _ratio(t._stat("matchings.matching_sum")[MULS],
                      t.calls("matchings.matching_sum"))),
    ("matchings.growth_annulus_self_s", "s", "lower",
     lambda t: t.self_s("matchings.growth_annulus")),
    ("matchings.budget_exceeded", "count", "lower",
     lambda t: t.counters["matchings.budget_exceeded"]),
    ("tpaths.paths_enumerated", "count", "lower",
     lambda t: t.items("tpaths.enumerate")),
    ("tpaths.enumerate_self_s", "s", "lower",
     lambda t: t.self_s("tpaths.enumerate")),
    ("tpaths.tpath_weight_calls", "count", "lower",
     lambda t: t.calls("tpaths.tpath_weight")),
    ("tpaths.tpath_weight_self_s", "s", "lower",
     lambda t: t.self_s("tpaths.tpath_weight")),
    ("tpaths.phi_bijection_self_s", "s", "lower",
     lambda t: t.self_s("tpaths.phi_bijection")),
)
