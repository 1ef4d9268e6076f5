"""Golden CLI corpus: replay recorded runs of every verb through
``dispatch`` and compare exit code, stdout and stderr byte for byte.

The cases and their expected output live in ``tests/golden/cases.json``;
``tests/golden/record.py`` re-records them.  A stdout mismatch is reported
by its first differing line, not by a diff of the whole text, which for
the largest ``gen`` cases (up to 762 KB) takes minutes to build.
"""

import json

import pytest

from golden.record import CASES, run_case

with open(CASES) as _fh:
    _CASES = json.load(_fh)


def first_difference(got, want):
    """(line number, got line, wanted line) at the first line where two
    different texts differ; a line past the end of a text reads as None."""
    a, b = got.splitlines(True), want.splitlines(True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    return k + 1, a[k] if k < len(a) else None, b[k] if k < len(b) else None


def test_first_difference_names_the_line_and_both_texts():
    assert first_difference("a\nb\nc\n", "a\nx\nc\n") == (2, "b\n", "x\n")
    assert first_difference("a\nb", "a\nb\n") == (2, "b", "b\n")
    assert first_difference("a\n", "a\nb\n") == (2, None, "b\n")
    assert first_difference("", "a\n") == (1, None, "a\n")


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_golden_cli_output(case):
    code, stdout, stderr = run_case(case["argv"])
    if stdout != case["stdout"]:
        pytest.fail("stdout differs first at line %d:\n got: %r\nwant: %r"
                    % first_difference(stdout, case["stdout"]))
    assert stderr == case["stderr"]
    assert code == case["exit"]
