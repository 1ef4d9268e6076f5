"""Every ``verify`` suite can fail, and what it draws is pinned.

Each suite's checked function is patched in ``artifact.suites`` so that
every instance fails, and the whole output of ``verify SUITE --seed 3
--count 5`` is compared with ``golden/suite_failures.json``.  That text was
recorded with the same patches applied to ``artifact.cli``, where the
suites lived before they moved to their own module, so the failure lines,
which name each instance, pin the generators' random streams across the
move.
"""

import io
import json
import os

import pytest

from artifact import suites
from artifact.cli import dispatch
from artifact.frieze import FriezeTable, PositivityVerdict

from golden.record import HERE

with open(os.path.join(HERE, "suite_failures.json")) as _fh:
    FAILURES = json.load(_fh)


def _raise(*_args, **_kw):
    raise AssertionError("patched")


def _patch(monkeypatch, name):
    """Make every instance of suite ``name`` fail."""
    if name == "unimodular":
        entry = FriezeTable.entry

        def patched_entry(F, i, j):   # m_{0,1} = 0 breaks the first diamond
            return F.context.zero() if (i, j) == (0, 1) else entry(F, i, j)
        monkeypatch.setattr(suites.FriezeTable, "entry", patched_entry)
    elif name == "weights-equal":
        real = suites.matching_sum

        def matching_sum(D, i, j, mode="local", *args):
            s = real(D, i, j, mode, *args)
            return s + D.context.one() if mode == "traditional" else s
        monkeypatch.setattr(suites, "matching_sum", matching_sum)
    elif name == "growth-matching":
        monkeypatch.setattr(suites, "growth_via_annulus_weight", _raise)
    elif name == "inner-outer":
        real = suites.inner_outer_consistency

        def unequal(D):
            return (False,) + real(D)[1:]
        monkeypatch.setattr(suites, "inner_outer_consistency", unequal)
    elif name == "phi":
        monkeypatch.setattr(suites, "phi_bijection", _raise)
    else:
        def nonpositive(F, depth=None):
            return PositivityVerdict("nonpositive_found", witness=(0, 2))
        monkeypatch.setattr(suites, "check_positivity", nonpositive)


def test_every_suite_is_patched():
    assert sorted(FAILURES) == sorted(suites.SUITES)


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_patched_suite_fails_on_every_instance(monkeypatch, name):
    _patch(monkeypatch, name)
    out = io.StringIO()
    assert dispatch(["verify", name, "--seed", "3", "--count", "5"], out) == 1
    assert out.getvalue() == FAILURES[name]
    assert out.getvalue().endswith("suite %s: 0 pass, 5 fail\n" % name)
