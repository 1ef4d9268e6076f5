"""Host speed, read from a fixed reference computation.

On a virtual machine that shares its physical cores and memory with other
machines, such as the 2-vCPU Xeon VM where the benchmark was defined, the
speed of Python code changes by up to 1.9x over minutes.  Every time metric is therefore reported in *reference
milliseconds*: the measured time scaled by ``REFERENCE_MS / typical``,
where ``typical`` is the median time of ``reference()`` over the timings
the run takes between its ops.  ``reference()`` is the benchmark's own code
and no change to the program touches it, so a faster or slower program
moves the scaled times as much as the raw ones, while a slower host moves
the reference with them.

The kernel mixes what the program does: it builds small tuples, lists,
dicts and sets, chases indices through them, runs a union-find, and
multiplies integer coefficient vectors.
"""

import random
import statistics
from time import perf_counter

# about the median time of reference() run alone on the 2-vCPU Xeon VM where
# the benchmark was defined; it only fixes the unit of the scaled times
REFERENCE_MS = 6.0

_N = 4000
_NEIGHBOURS = [tuple(random.Random(k).randrange(_N) for _ in range(3))
               for k in range(_N)]
_COEFFS = [tuple(random.Random(-k).randrange(-50, 50) for _ in range(16))
           for k in range(8)]


def reference():
    """A fixed computation of about REFERENCE_MS."""
    nodes = [(i, list(nb), {"w": i & 15}) for i, nb in enumerate(_NEIGHBOURS)]
    seen, stack, acc = set(), [0], 0
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        _i, nb, attr = nodes[v]
        acc += attr["w"]
        stack.extend(nb)
    parent = list(range(_N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, nb, _attr in nodes:
        for b in nb:
            ra, rb = find(i), find(b)
            if ra != rb:
                parent[ra] = rb
    for a in _COEFFS:
        for b in _COEFFS:
            out = [0] * 31
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            acc += out[15]
    return acc


def time_reference():
    """Seconds taken by one reference() call."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scale(reference_seconds):
    """Factor from raw to reference milliseconds: REFERENCE_MS over the
    median of the run's reference() timings, in ms.  Multiply a raw time
    by it; divide a rate by it."""
    return REFERENCE_MS / (statistics.median(reference_seconds) * 1000.0)
