"""Latency statistics with failure charging.

A failed op (exit 3, exit 2 on a valid input, an uncaught exception, or an
output that disagrees with the known answer) misses every latency limit: it
is recorded at the workload's fixed per-op limit and counts as no completed
work.  Without this rule a program that fails fast would read as faster.
"""

import math
import statistics
from dataclasses import dataclass

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


@dataclass
class OpRecord:
    op: int            # index of the op in the workload's pass
    kind: str
    seconds: float
    ok: bool
    error: str = ""


def charged_ms(records, limit_ms, scale=1.0):
    """Latency in ms of each op of the pass: the median of its executions
    in the run times ``scale`` (see ``bench.hostspeed``), or the per-op
    limit if any execution failed.

    The host's speed changes from second to second; the median over
    executions spread across the run reads the op's typical cost in it.
    Every op runs at least ``bench.run.MIN_PASSES`` times."""
    times, failed = {}, set()
    for r in records:
        times.setdefault(r.op, [])
        if r.ok:
            times[r.op].append(r.seconds * 1000.0)
        else:
            failed.add(r.op)
    return [float(limit_ms) if op in failed
            else statistics.median(times[op]) * scale
            for op in sorted(times)]


def tail_percentile(values, q):
    """Nearest-rank q-quantile, refused unless TAIL_SAMPLES values lie
    strictly above its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < TAIL_SAMPLES:
        raise ValueError("%d samples leave fewer than %d beyond the %g "
                         "quantile" % (n, TAIL_SAMPLES, q))
    return sorted(values)[rank - 1]


def summarize(records, limit_ms, scale=1.0):
    """End-to-end latency metrics of one untraced run, times in reference
    ms when ``scale`` comes from ``bench.hostspeed.scale``."""
    lat = charged_ms(records, limit_ms, scale)
    if not lat:
        raise ValueError("no ops recorded")
    failed = [r for r in records if not r.ok]
    # a failed op counts as no completed work and costs the per-op limit
    correct = len(lat) - len({r.op for r in failed})
    return {
        "p50_ms": statistics.median(lat),
        "p90_ms": tail_percentile(lat, 0.9),
        "ops_per_s": correct / (sum(lat) / 1000.0),
        "fail_ratio": len(failed) / len(records),
    }
