"""The chain pass that picks a skeletal core's gap sizes, against the
product walk it replaced.

``realize._fewest_clashes`` returns the lexicographically first gap-size
assignment with the fewest clashes, and its clashing indices.  The oracle
walks every assignment of ``all_pchoices`` in order and keeps the first
with the fewest ``_violations``, as ``quotient_realize`` did; when the
fewest is 0 that is ``next(valid_pchoices(Q))``, which ``skeletal_realize``
took.  The two are compared on the short cycles of the dissection oracle
and on seeded random cycles.  A mutant that keeps the last tied
assignment is caught: ``[3,4]^k`` with k even has two clash-free ones.

``valid_pchoices`` walks the same chain pass depth first, through the
prefixes that can still complete without a clash; the oracle filters the
product.  Both must list the same assignments in the same order.

Neither classification nor the witness probe may walk the product: with
``itertools.product`` replaced in ``artifact.realize`` by a function that
raises, every short cycle still classifies and is probed, long
``[3,4]^k`` cores keep their pinned kind and m, and ``[3,4]^20`` and
``[3,4]^200`` each have their two witnesses.
"""

import random
from collections import Counter

import pytest

from artifact import (classify_realizability, quiddity_new,
                      witness_nonuniqueness_probe)
from artifact import realize
from artifact.realize import (_fewest_clashes, _violations, all_pchoices,
                              valid_pchoices)

from test_dissection_oracle import SHORT


def product_walk(Q, last=False):
    """The first (``last``: the last) assignment with the fewest clashes and
    its clashes, by walking the product; None when a gap has no candidate."""
    walk = [(c, _violations(Q, c)) for c in all_pchoices(Q)]
    if last:
        walk.reverse()
    return min(walk, key=lambda cb: len(cb[1]), default=None)


def chain_pass(Q):
    try:
        return _fewest_clashes(Q)
    except ValueError:
        return None


def disagreements(cycles, oracle):
    return [A for A in cycles
            if chain_pass(quiddity_new(A)) != oracle(quiddity_new(A))]


def random_cycles(count, seed):
    """Cycles of length 1-7 over multisets of 1-4 sizes from 3-6 whose
    every gap has a candidate size."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randint(1, 7)
        A = tuple(tuple(sorted(rng.choice((3, 4, 5, 6))
                               for _ in range(rng.randint(1, 4))))
                  for _ in range(n))
        if all(set(A[i]) & set(A[(i + 1) % n]) for i in range(n)):
            out.append(A)
    return out


def _fewest(A):
    best = product_walk(quiddity_new(A))
    return None if best is None else len(best[1])


def test_chain_pass_matches_the_product_walk_on_the_short_cycles():
    assert len(SHORT) == 7239
    assert disagreements(SHORT, product_walk) == []
    # by the fewest clashes; None: some gap has no candidate
    assert Counter(map(_fewest, SHORT)) == {None: 3996, 0: 1928, 1: 1075,
                                            2: 240}


def test_chain_pass_matches_the_product_walk_on_random_cycles():
    cycles = random_cycles(5000, seed=26)
    assert disagreements(cycles, product_walk) == []
    assert Counter(map(len, cycles)) == {1: 1674, 2: 1153, 3: 715, 4: 530,
                                         5: 411, 6: 296, 7: 221}
    assert Counter(map(_fewest, cycles)) == {0: 3040, 1: 1560, 2: 351, 3: 41,
                                             4: 7, 5: 1}


def product_filter(Q):
    return [c for c in all_pchoices(Q) if not _violations(Q, c)]


def test_valid_choices_match_the_product_filter():
    cycles = SHORT + random_cycles(5000, seed=26)
    assert [A for A in cycles if list(valid_pchoices(quiddity_new(A)))
            != product_filter(quiddity_new(A))] == []
    assert sum(len(product_filter(quiddity_new(A))) for A in cycles) == 7678


def test_the_differential_catches_a_last_tie_mutant():
    pair, four = ((3, 4),) * 2, ((3, 4),) * 4
    assert list(realize.valid_pchoices(quiddity_new(pair))) == [(3, 4), (4, 3)]
    mutant = lambda Q: product_walk(Q, last=True)
    assert {pair, four} <= set(disagreements(SHORT + [four], mutant))


def test_classification_never_walks_the_product(monkeypatch):
    def refuse(*choices):
        raise AssertionError("classification walked itertools.product")

    monkeypatch.setattr(realize, "product", refuse)
    kinds = Counter(classify_realizability(quiddity_new(A)).kind
                    for A in SHORT)
    assert kinds == {"unrealizable": 4211, "annulus": 1762,
                     "quotient_annulus": 1245, "punctured_disc": 20,
                     "polygon": 1}
    for k, kind, m in [(200, "annulus", 100), (201, "quotient_annulus", 102),
                       (2000, "annulus", 1000),
                       (2001, "quotient_annulus", 1002)]:
        c = classify_realizability(quiddity_new([(3, 4)] * k))
        assert (c.kind, c.n, c.m) == (kind, k, m)
    probed = Counter(len(witness_nonuniqueness_probe(quiddity_new(A)))
                     for A in SHORT)
    assert probed == {0: 5457, 1: 1423, 2: 291, 3: 42, 4: 24, 6: 2}
    for k in (20, 200):
        W = witness_nonuniqueness_probe(quiddity_new([(3, 4)] * k))
        assert [(D.surface.n, D.surface.m) for D in W] == [(k, k // 2)] * 2
    with pytest.raises(AssertionError, match="walked"):
        list(all_pchoices(quiddity_new([(3, 4)])))
