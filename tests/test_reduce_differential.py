"""The one-sweep ear reduction against the loop it replaces.

``realize._reduce`` tests the cycle once, then cuts each ear in place and
re-tests only the cut's neighbourhood, resuming the search for the next
run where the last one was found.  The reference below is the earlier
loop, with its own copies of the helpers it called: after every cut it
recomputes every singleton run, the quiddity-level verdict over all
adjacencies and the constant-cycle check, and builds the child as a new
tuple.  Both must return the same multisets, cut trace, glue steps and
failure reason.
"""

import json
import os
import random

from hypothesis import example, given, settings, strategies as st

from artifact.frieze import _cut_in_place, parse_quiddity_text
from artifact.realize import _reduce
from artifact.suites import random_quiddity

from golden.record import CASES, HERE

SIZES = (3, 4, 5, 6)


# ---------------------------------------------------------------------------
# the reference: the loop before the sweep, and the helpers it called
# ---------------------------------------------------------------------------

def reference_singleton_runs(A):
    n = len(A)
    runs = []
    is_single = [len(a) == 1 for a in A]
    if all(is_single) and len(set(A)) == 1:
        return [(1, n, A[0][0])]
    covered = [False] * n
    for s in range(n):
        if not is_single[s] or covered[s]:
            continue
        prev = (s - 1) % n
        if is_single[prev] and A[prev] == A[s]:
            continue  # not the start of a maximal run
        length = 0
        pos = s
        while is_single[pos] and A[pos] == A[s] and length < n:
            covered[pos] = True
            length += 1
            pos = (pos + 1) % n
        runs.append((s + 1, length, A[s][0]))
    return runs


def reference_verdict(A, runs):
    """The failure reason of the quiddity-level test, None when it passes."""
    n = len(A)
    for i in range(n):
        if not set(A[i]) & set(A[(i + 1) % n]):
            return "empty_intersection"
    all_same_singleton = all(a == A[0] and len(a) == 1 for a in A)
    if not all_same_singleton:
        for start, length, p in runs:
            if length > p - 2:
                return "long_run"
    return None


def reference_constant_singleton(A):
    if all(len(a) == 1 and a == A[0] for a in A):
        return A[0][0]
    return None


def reference_cut_multisets(A, i, p):
    n = len(A)
    if p < 3:
        raise ValueError("p must be >= 3")
    if n == p - 2:
        raise ValueError("cut undefined when n = p - 2")
    if n < p - 1:
        raise ValueError("period too small to cut a %d-ear" % p)
    first = (i - 1) % n           # 0-based; the interval is first..end-1 mod n
    end = first + p - 2
    if any(A[pos % n] != (p,) for pos in range(first, end)):
        raise ValueError("interval is not a constant {%d} run" % p)
    left = (first - 1) % n
    right = end % n
    if end <= n:
        survivors = list(range(first)) + list(range(end, n))
        child = list(A[:first] + A[end:])
    else:
        survivors = list(range(end - n, first))
        child = list(A[end - n:first])
    g = survivors.index(left)
    for k in (g, survivors.index(right)):
        entry = list(child[k])
        if p not in entry:
            raise ValueError(
                "flanking multiset lacks %d; cut would create an invalid entry" % p)
        entry.remove(p)
        if not entry:
            raise ValueError(
                "flanking multiset exhausted; cut would create an invalid entry")
        child[k] = tuple(entry)
    return tuple(child), (g + 1, p, -survivors[0])


def reference_reduce(A):
    trace, steps = [], []
    while True:
        runs = reference_singleton_runs(A)
        reason = reference_verdict(A, runs)
        run = next(((start, p) for start, length, p in runs
                    if length >= p - 2), None)
        p_const = reference_constant_singleton(A)
        if reason is None and p_const not in (None, len(A)):
            return A, trace, steps, "constant_core_length"
        if reason is not None or p_const is not None or run is None:
            return A, trace, steps, reason
        try:
            A, step = reference_cut_multisets(A, *run)
        except ValueError:
            return A, trace, steps, "cut_underflow"
        trace.append(run)
        steps.append(step)


def crosses_head(A, trace):
    """True when some cut's run wraps past the current cycle's end."""
    n = len(A)
    for start, p in trace:
        if start + p - 3 > n:
            return True
        n -= p - 2
    return False


def assert_same_reduction(A):
    want = reference_reduce(A)
    assert _reduce(A) == want, A
    return want


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

CORES = (((3, 3),), ((4, 4), (4,)), ((3, 3, 4), (3,), (3, 3, 4, 4)),
         ((4,), (4, 5), (3, 4)))


def as_cycle(A):
    return tuple(tuple(sorted(a)) for a in A)


def glue_ears(A, n, sizes, position):
    """Glue ears of the given sizes, in turn, until the period reaches n;
    ``position(period)`` picks the 1-based position each ear goes after."""
    A = [list(a) for a in A]
    k = 0
    while len(A) < n:
        p = sizes[k % len(sizes)]
        k += 1
        i = position(len(A))
        A[i - 1].append(p)
        A[i % len(A)].append(p)
        A[i:i] = [[p] for _ in range(p - 2)]
    return as_cycle(A)


def golden_cycles():
    with open(CASES) as fh:
        cases = json.load(fh)
    paths = sorted({c["argv"][1] for c in cases
                    if c["argv"][0] in ("classify", "realize")})
    for path in paths:
        with open(os.path.join(HERE, path)) as fh:
            yield parse_quiddity_text(fh.read()).A


def test_golden_inputs_reduce_alike():
    reasons = {assert_same_reduction(A)[3] for A in golden_cycles()}
    assert reasons == {None, "empty_intersection", "long_run",
                       "cut_underflow", "constant_core_length"}


def test_ear_glued_cores_reduce_alike():
    rng = random.Random(9)
    for core in CORES:
        for sizes in ((3,), (4,), (5,), (3, 4, 5)):
            for n in (12, 40, 120, 400):
                A = glue_ears(core, n, sizes, lambda m: rng.randint(1, m))
                r = rng.randrange(len(A))
                A = A[r:] + A[:r]
                _rest, trace, _steps, reason = assert_same_reduction(A)
                assert reason is None and len(trace) >= (n - 4) // 3


def test_tail_ears_reduce_alike():
    # each ear goes between positions n and 1, so every cut's right flank
    # is position 1 and the next ear sits at the tail
    for core in CORES:
        for sizes in ((3,), (4,), (5,), (3, 4, 5)):
            for n in (12, 40, 120, 400):
                A = glue_ears(core, n, sizes, lambda m: m)
                _rest, trace, _steps, reason = assert_same_reduction(A)
                assert reason is None and len(trace) >= (n - 4) // 3


def test_random_cycles_reduce_alike():
    # random_quiddity cycles, most with a few ears glued at random places
    # and then rotated, so cuts cross the head and fail in every way
    rng = random.Random(17)
    reasons, crossed = set(), 0
    for _ in range(2000):
        core = random_quiddity(rng, 2, 8).A
        ears = [rng.choice(SIZES) for _ear in range(rng.randint(0, 5))]
        A = glue_ears(core, len(core) + sum(p - 2 for p in ears), ears,
                      lambda m: rng.randint(1, m))
        r = rng.randrange(len(A))
        A = A[r:] + A[:r]
        _rest, trace, _steps, reason = assert_same_reduction(A)
        reasons.add(reason)
        crossed += crosses_head(A, trace)
    assert reasons >= {None, "long_run", "cut_underflow",
                       "constant_core_length"}
    assert crossed > 0


def test_cut_matches_the_reference():
    rng = random.Random(23)
    for _ in range(300):
        A = as_cycle([[rng.choice((3, 4, 5)) for _k in range(rng.randint(1, 3))]
                      for _i in range(rng.randint(1, 7))])
        for i in range(1, len(A) + 1):
            for p in (2, 3, 4, 5):
                try:
                    want = reference_cut_multisets(A, i, p)
                except ValueError as exc:
                    want = str(exc)
                child = list(A)
                try:
                    step = _cut_in_place(child, i - 1, p)
                    got = tuple(child), step
                except ValueError as exc:
                    got = str(exc)
                    # a refused cut changes nothing
                    assert tuple(child) == A
                assert got == want, (A, i, p)


def test_short_cycles_reduce_alike():
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(st.lists(st.sampled_from((3, 4, 5)), min_size=1,
                             max_size=3), min_size=3, max_size=6))
    @example([[3, 5], [3, 4], [3]])               # empty after a cut
    @example([[3, 3, 4], [3, 3], [3], [3, 3]])    # long run after a cut
    @example([[3, 3], [3, 3, 5], [3]])            # underflow after a cut
    @example([[3], [3, 4], [3, 4]])               # constant core after a cut
    @example([[4], [3, 4, 5], [4, 5], [4]])       # a run across the head
    def check(A):
        A = as_cycle(A)
        _rest, trace, _steps, reason = assert_same_reduction(A)
        if trace:
            seen.add(reason)
        if crosses_head(A, trace):
            seen.add("crosses_head")

    check()
    assert seen >= {"empty_intersection", "long_run", "cut_underflow",
                    "constant_core_length", "crosses_head"}
