"""Golden CLI corpus: replay recorded runs of every verb through
``dispatch`` and compare exit code, stdout and stderr byte for byte.

The cases and their expected output live in ``tests/golden/cases.json``;
``tests/golden/record.py`` re-records them.
"""

import json

import pytest

from golden.record import CASES, run_case

with open(CASES) as _fh:
    _CASES = json.load(_fh)


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_golden_cli_output(case):
    code, stdout, stderr = run_case(case["argv"])
    assert stdout == case["stdout"]
    assert stderr == case["stderr"]
    assert code == case["exit"]

