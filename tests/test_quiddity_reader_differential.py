"""Differential test of ``frieze.parse_quiddity_text``, the cycle reader of
the command line, against the character loop it puts a regex pass in front
of.

``parse_quiddity_text`` reads a well-formed line with one ``fullmatch`` and
builds the cycle from the multiset bodies; anything the regex pass cannot
build falls through to the character loop, which alone reports errors.
The oracle below is the former body: the loop alone, then
``quiddity_new``.  Both must give the same multisets and the same ring
context, or raise ``ValueError`` with the same message, on random token
strings, on every golden input file, on chosen edge cases, and on lines of
10^5 multisets.
"""

import os
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact.frieze import parse_quiddity_text, quiddity_new

from test_cli import TOKENS

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "inputs")


def oracle_parse(line):
    """The former ``parse_quiddity_text``: one character at a time."""
    src = line.split("#", 1)[0]
    A = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "[":
            raise ValueError("offset %d: expected '['" % i)
        j = src.find("]", i)
        if j < 0:
            raise ValueError("offset %d: unterminated multiset" % i)
        body = src[i + 1:j]
        entries = []
        pos = i + 1
        for tok in body.split(","):
            stripped = tok.strip()
            at = pos + tok.index(stripped) if stripped else pos
            if not (stripped.isascii() and stripped.isdigit()):
                raise ValueError("offset %d: expected an integer" % at)
            p = int(stripped)
            if p < 3:
                raise ValueError("offset %d: subgon size %d is below 3"
                                 % (at, p))
            entries.append(p)
            pos += len(tok) + 1
        A.append(tuple(sorted(entries)))
        i = j + 1
    if not A:
        raise ValueError("no multisets found")
    return quiddity_new(A)


def outcome(parse, text):
    """(multisets, context) of a parsed cycle, or the ValueError text."""
    try:
        Q = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return Q.A, Q.context


def assert_same(text):
    want = outcome(oracle_parse, text)
    got = outcome(parse_quiddity_text, text)
    assert got[0] == want[0], text[:200]
    if want[0] == "error":
        assert got[1] == want[1], text[:200]
    else:
        assert got[1] is want[1], text[:200]


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(TOKENS, max_size=24).map("".join))
def test_random_token_strings(text):
    assert_same(text)


@pytest.mark.parametrize("name", sorted(os.listdir(INPUTS)))
def test_golden_input_files(name):
    with open(os.path.join(INPUTS, name)) as fh:
        text = fh.read()
    assert_same(text)
    # the line the CLI reads: the first one left after comment stripping
    first = next((ln for ln in (raw.split("#", 1)[0].strip()
                                for raw in text.splitlines()) if ln), "")
    assert_same(first)


EDGE_CASES = [
    "", " \t\n", "#", "[3]", "[3] # [2]", "[3,4] [5]", " [ 3 , 4 ]\t[5] ",
    "[03,4]", "[3,,4]", "[3,]", "[,3]", "[]", "[3", "3]", "[3]]", "[[3]",
    "[3 4]", "[3] x", "[2]", "[0]", "[3,2]", "[-3]", "[+3]", "[3_0]",
    "[٣]", "[٣] [3] [3]", "[3²]", "[3 ]", "[ 3]", "　[3]",
    "[\x1c3\x1c]", "[3\x1f,4]", "[3\n,4]", "[3]\n[4]", "[7] [11] [13]",
    "[1000000007]", "[3] [%d]" % 10 ** 30,
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same(text)


def test_regex_whitespace_is_str_isspace():
    space = re.compile(r"\s")
    assert all(bool(space.fullmatch(c)) == c.isspace()
               for c in map(chr, range(sys.maxunicode + 1)))


def test_long_lines():
    clean = " ".join(["[3,4]", "[4]", "[3,3,4]"] * 33334)
    assert_same(clean)
    assert_same(clean + " [2]")
    assert_same("[" + "3" * 10 ** 5)


def test_a_size_past_the_int_digit_limit_reports_the_first_error():
    text = "[2] [" + "9" * 5000 + "]"
    assert_same(text)
    with pytest.raises(ValueError, match=r"^offset 1: subgon size 2 is "
                                         r"below 3$"):
        parse_quiddity_text(text)


def test_a_well_formed_line_does_not_reach_the_character_loop(monkeypatch):
    from artifact import frieze

    def refuse(A):
        raise AssertionError("character loop reached")
    monkeypatch.setattr(frieze, "quiddity_new", refuse)
    assert parse_quiddity_text(" [3,4]\t[4] [4,3,3] ").A == (
        (3, 4), (4,), (3, 3, 4))
