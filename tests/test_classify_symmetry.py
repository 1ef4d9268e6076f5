"""Classification under the symmetries of a cycle.

A rotation of a cycle, and its reversal (the mirror image), is realized
by the same surfaces, rotated or reflected.  The ear-cut order and the
lexicographic gap-size choice both depend on where the cycle starts and
which way it runs, so the verdicts could differ.  On the short cycles of
the dissection oracle, every rotation and the reversal keep the verdict
kind and n.  The witness's number m of inner vertices is not kept: an
annulus core can have clash-free choices of different m, and which one is
taken depends on the orientation.  m differs on 22 rotations or
reversals, all annuli, and each time the other m is that of one of the
witnesses ``witness_nonuniqueness_probe`` lists for the cycle.
"""

from artifact import (classify_realizability, quiddity_new,
                      witness_nonuniqueness_probe)

from test_dissection_oracle import SHORT


def test_rotations_and_reversal_keep_kind_and_n():
    verdicts = {A: classify_realizability(quiddity_new(A)) for A in SHORT}
    other_m = []
    for A, c in verdicts.items():
        for V in [A[r:] + A[:r] for r in range(1, len(A))] + [A[::-1]]:
            d = verdicts[V]
            assert (d.kind, d.n) == (c.kind, c.n), (A, V)
            if d.m != c.m:
                other_m.append((A, d.m))
                assert c.kind == "annulus", (A, V)
    assert len(other_m) == 22
    for A, m in other_m:
        witnesses = witness_nonuniqueness_probe(quiddity_new(A))
        assert m in [W.base.surface.m for W in witnesses], A
