"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program under test is imported from the
checkout's ``src/`` directory.  Each workload is a closed loop with one
client in this single-threaded process: the next op starts when the last
one has returned and been checked.

Untraced (``--trace 0``): set-up runs ``SETUP_REPEATS`` times (fresh import
of ``artifact``, input generation and file writing) and reports the median
as ``setup_s``, scaled by reference timings taken after each set-up.  Then passes over the workload's op list run until
``--seconds`` have passed, and at least ``MIN_PASSES`` whole passes; the
last pass stops at the deadline.  Each op is timed alone, and its latency
is the median of its executions in the run.  Its known-answer check runs outside the
timed region, and so does a timing of ``bench.hostspeed.reference`` after
every op.  Times are reported in reference milliseconds, scaled by the host
speed those timings read (see ``bench.hostspeed``).

Traced (``--trace 1``): a pass with the per-layer wrappers installed,
between two untraced passes.  Counts come from the traced pass and repeat
exactly for one seed; ``trace.overhead_ratio`` is the traced pass's wall
time over the faster untraced pass's.  Spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show the same numbers, and
the failure ratio, for a reader.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import hostspeed                              # noqa: E402
from bench.measure import OpRecord, summarize            # noqa: E402
from bench.tracer import PER_LAYER, Tracer               # noqa: E402
from bench.workloads import WORKLOADS, CheckFailed       # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
PACKAGE = "artifact"

# (metric, unit) printed by an untraced run, in BENCHMARK.json order
END_TO_END = (("p50_ms", "ms"), ("p90_ms", "ms"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to test)."""


def import_program(src):
    """Import a fresh copy of the package from ``src``."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    art = importlib.import_module(PACKAGE)
    if not Path(art.__file__).resolve().is_relative_to(src):
        raise BenchError("%s imported from %s, not from %s"
                         % (PACKAGE, art.__file__, src))
    return art


def setup(workload, seed, src, workdir):
    """Median set-up time over SETUP_REPEATS; returns (art, ops, seconds,
    reference timings taken after each set-up for the host's speed)."""
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        art = import_program(src)
        workdir.mkdir(parents=True)
        ops = workload.build(art, random.Random(seed), workdir)
        times.append(perf_counter() - t0)
        reference += [hostspeed.time_reference() for _ in range(3)]
    return art, ops, statistics.median(times), reference


def run_op(art, op):
    """(seconds, result, error) of one op; an uncaught exception fails it."""
    t0 = perf_counter()
    try:
        result, error = op.run(art), None
    except Exception as exc:     # recorded as a failed op, the run goes on
        result, error = None, "%s: %s" % (type(exc).__name__, exc)
    return perf_counter() - t0, result, error


def check_op(art, op, result, error, verified, idx):
    """Known-answer check; an output already verified for this op passes."""
    if error is not None:
        return error
    if verified.get(idx) == result:
        return None
    try:
        op.check(art, result)
    except CheckFailed as exc:
        return "wrong answer: %s" % exc
    except Exception as exc:     # output too malformed to read back
        return "wrong answer: %s: %s" % (type(exc).__name__, exc)
    verified[idx] = result
    return None


def timed_run(art, ops, seconds):
    """Records of every execution, the reference timings taken after each
    op (for the host's speed) and the number of passes begun."""
    records, verified, reference = [], {}, []
    deadline = perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        for idx, op in enumerate(ops):
            if passes >= MIN_PASSES and perf_counter() >= deadline:
                break
            dt, result, error = run_op(art, op)
            reference.append(hostspeed.time_reference())
            error = check_op(art, op, result, error, verified, idx)
            records.append(OpRecord(idx, op.kind, dt, error is None,
                                    error or ""))
        passes += 1
    return records, reference, passes


def traced_run(art, ops, trace_path):
    """A traced pass between two untraced ones; checks run after each."""
    records, verified = [], {}

    def one_pass(tracer=None):
        results = []
        t0 = perf_counter()
        for idx, op in enumerate(ops):
            if tracer is None:
                results.append(run_op(art, op))
                continue
            tracer.op = idx
            with tracer.span("bench." + op.kind):
                results.append(run_op(art, op))
        wall = perf_counter() - t0
        for idx, (op, (dt, result, error)) in enumerate(zip(ops, results)):
            error = check_op(art, op, result, error, verified, idx)
            records.append(OpRecord(idx, op.kind, dt, error is None,
                                    error or ""))
        return wall

    plain = one_pass()
    tracer = Tracer(PACKAGE)
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced one, so that a slow spell
    # of the host during one of them does not read as negative overhead
    plain = min(plain, one_pass())
    tracer.write_spans(trace_path)
    metrics = {name: (float(fn(tracer)), unit)
               for name, unit, _better, fn in PER_LAYER}
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return records, metrics, tracer


def report(workload, seed, records, metrics, note):
    failed = [r for r in records if not r.ok]
    print("workload %s  seed %d  %s  ops %d  failed %d"
          % (workload.name, seed, note, len(records), len(failed)))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6f %s" % (name, value, unit))
    for r in failed[:5]:
        print("  failed %s: %s" % (r.kind, r.error[:300]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print("bench: no %s package under %s" % (PACKAGE, src), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out"
    workdir = out / ("inputs-%d" % os.getpid())
    try:
        art, ops, setup_s, setup_ref = setup(workload, args.seed, src, workdir)
        if args.trace:
            trace_path = out / ("trace-%s-seed%d.json"
                                % (workload.name, args.seed))
            records, metrics, _tr = traced_run(art, ops, trace_path)
            note = "traced, spans in %s" % trace_path.relative_to(ROOT)
        else:
            records, reference, passes = timed_run(art, ops, args.seconds)
            scale = hostspeed.scale(reference)
            stats = summarize(records, workload.limit_ms, scale)
            raw = summarize(records, workload.limit_ms)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = dict(stats, peak_rss_mb=rss_mb,
                          setup_s=setup_s * hostspeed.scale(setup_ref))
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            note = ("%d passes, fail_ratio %.6f, host scale %.4f; unscaled "
                    "p50 %.4f ms, p90 %.4f ms, %.4f ops/s, set-up %.4f s"
                    % (passes, stats["fail_ratio"], scale, raw["p50_ms"],
                       raw["p90_ms"], raw["ops_per_s"], setup_s))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(workload, args.seed, records, metrics, note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
