"""Cycles derived from a checked cycle, against the checking constructor.

A ``QuiddityCycle`` built from outside input checks every multiset; the
children of ``glue``, ``cut`` and ``rotated``, the core of a classification
and the cycle ``quiddity_of`` reads off a dissection are built from checked
multisets without that check.  Each must be the cycle that the checking
constructor builds from the same multisets: the same sorted int tuples
and the very same ring context.  The glue reference is
the list glue that built its child through the constructor.
"""

import random

import pytest

from artifact import QuiddityCycle, cut, glue, quiddity_new, quiddity_of
from artifact import frieze
from artifact.realize import _classify
from artifact.ring import make_context

CORES = (((3, 3),), ((4, 4), (4,)), ((3, 3, 4), (3,), (3, 3, 4, 4)),
         ((4,), (4, 5), (3, 4)), ((3, 6), (3, 6), (5, 6)))


def reference_glue(Q, p, i):
    """The glue that checked its child: the flanks gain p on lists, the ear
    is inserted, and the constructor sorts and checks every multiset."""
    n = Q.n
    A = [list(a) for a in Q.A]
    A[i - 1] = sorted(A[i - 1] + [p])
    A[i % n] = sorted(A[i % n] + [p])
    new = [tuple(a) for a in A]
    new[i:i] = [(p,)] * (p - 2)
    return QuiddityCycle(new, Q.context if Q.context.L % p == 0 else None)


def assert_checked_form(child, want):
    assert child.A == want.A
    assert child.n == want.n
    assert child.context is want.context
    assert all(type(p) is int for a in child.A for p in a)


def seeded_cycles(rng, count):
    """Ear-glued cycles over the cores, some on a covering context."""
    for k in range(count):
        Q = quiddity_new(CORES[k % len(CORES)])
        if k % 3 == 2:
            # a parent on a ring larger than its sizes need
            Q = QuiddityCycle(Q.A, make_context(frieze._sizes(Q.A) | {5, 6}))
        for _ in range(rng.randint(0, 3)):
            Q = reference_glue(Q, rng.choice((3, 4, 5)), rng.randint(1, Q.n))
        yield Q


def test_glue_cut_and_rotation_children_are_checked_cycles():
    rng = random.Random(5)
    kept = changed = 0
    for Q in seeded_cycles(rng, 60):
        for r in range(-1, Q.n + 1):
            turned = Q.rotated(r)
            assert_checked_form(turned, QuiddityCycle(turned.A, Q.context))
        for p in (3, 4, 5, 6):
            for i in range(1, Q.n + 1):
                child = glue(Q, p, i)
                assert_checked_form(child, reference_glue(Q, p, i))
                if child.context is Q.context:
                    kept += 1
                else:
                    changed += 1
                # the ear sits at i+1..i+p-2 of the child; cutting it off
                # gives the parent's multisets back, on the child's context
                back = cut(child, i + 1, p)
                assert back.A == Q.A
                assert_checked_form(back, QuiddityCycle(Q.A, child.context))
    assert kept and changed


def test_a_glue_off_the_context_takes_the_ring_of_the_sizes():
    Q = quiddity_new([(3, 4), (4,), (3, 4)])           # L = 12
    child = glue(Q, 5, 2)
    assert child.context is make_context({3, 4, 5}) is not Q.context
    # a covering parent context is kept
    wide = QuiddityCycle(Q.A, make_context({3, 4, 5, 6}))
    child = glue(wide, 5, 2)
    assert child.context is wide.context
    assert_checked_form(child, reference_glue(wide, 5, 2))


def test_a_cut_that_removes_the_last_size_keeps_the_context():
    Q = glue(quiddity_new([(3, 3)] * 3), 5, 1)
    assert Q.context is make_context({3, 5})
    child = cut(Q, 2, 5)
    assert child.A == ((3, 3),) * 3
    assert_checked_form(child, QuiddityCycle(child.A, Q.context))


def test_tail_ears_grow_a_flank_to_about_n_entries():
    for core in CORES:
        Q = quiddity_new(core)
        for k in range(300):
            p = (3, 4, 5)[k % 3]
            child = glue(Q, p, Q.n)
            assert_checked_form(child, reference_glue(Q, p, Q.n))
            Q = child
        assert len(Q.A[0]) > 300
        # and off again from the tail
        for k in reversed(range(300)):
            p = (3, 4, 5)[k % 3]
            Q = cut(Q, Q.n - p + 3, p)
            assert_checked_form(Q, QuiddityCycle(Q.A, Q.context))
        assert Q.A == core


def test_glue_still_checks_its_arguments():
    Q = quiddity_new([(3, 3)])
    for p, i in ((2, 1), (3, 0), (3, 2)):
        with pytest.raises(ValueError):
            glue(Q, p, i)
    with pytest.raises(TypeError):
        glue(Q, 3.0, 1)


def test_a_size_of_an_int_subclass_is_glued_as_an_int():
    class Size(int):
        pass

    Q = quiddity_new([(3, 4), (4,)])
    for i in (1, 2):
        assert_checked_form(glue(Q, Size(4), i), reference_glue(Q, 4, i))


def test_glue_and_cut_never_check_a_multiset(monkeypatch):
    # 2,000 glues and 500 cuts: checking each child would cost about
    # 2 * 10**6 multiset checks
    calls = [0]
    check = frieze._as_multiset

    def counted(a):
        calls[0] += 1
        return check(a)

    Q = quiddity_new([(3, 3)])
    monkeypatch.setattr(frieze, "_as_multiset", counted)
    rng = random.Random(3)
    ears = []
    for _ in range(2000):
        i = rng.randint(1, Q.n)
        Q = glue(Q, 3, i)
        ears.append(i + 1)
    assert Q.n == 2001
    for i in reversed(ears[-500:]):
        Q = cut(Q, i, 3)
    assert Q.n == 1501
    assert calls[0] == 0
    Q.rotated(7)
    assert calls[0] == 0


def test_classified_cores_and_derived_cycles_are_checked_cycles():
    rng = random.Random(11)
    kinds = set()
    for Q in seeded_cycles(rng, 40):
        for p in (3, 4):
            Q = glue(Q, p, rng.randint(1, Q.n))
        cls, core, _steps = _classify(Q)
        if core is None:
            continue
        kinds.add(cls.kind)
        assert_checked_form(core, QuiddityCycle(core.A, Q.context))
        derived = quiddity_of(cls.witness)
        assert_checked_form(derived, QuiddityCycle(derived.A))
        assert derived.A == Q.A
        if cls.kind == "annulus":
            inner = quiddity_of(cls.witness, "inner")
            assert_checked_form(inner, QuiddityCycle(inner.A))
    assert {"punctured_disc", "annulus"} <= kinds, kinds
