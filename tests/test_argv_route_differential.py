"""Differential test of the verb route of ``cli.dispatch`` against parsing
with the whole argument parser.

A command line that starts with a verb is parsed by that verb's own
parser, and any other by the whole parser.  For every golden case's argv
and for a fixed list of malformed command lines, the route must give the
same namespace as ``ap.parse_args``, or exit with the same code and write
byte-identical stdout and stderr.  argparse wraps usage text to the
terminal width, so ``COLUMNS`` is pinned.
"""

import json
from unittest import mock

import pytest

from artifact import cli

from golden.record import CASES

with open(CASES) as _fh:
    GOLDEN_ARGV = [case["argv"] for case in json.load(_fh)]

MALFORMED = [
    [],
    ["-h"],
    ["--help"],
    ["frob", "IN"],
    ["gen"],
    ["gen", "IN", "--depth"],
    ["gen", "IN", "--depth", "x"],
    ["matchings", "IN", "--from", "1", "--to", "2", "--mode", "zz"],
    ["matchings", "IN", "--from", "1"],
    ["gen", "IN", "extra"],
    ["gen", "IN", "--bogus"],
    ["gen", "--", "IN"],
    ["gen", "IN", "--dep", "3"],
    ["gen", "IN", "-h"],
    ["--", "gen", "IN"],
    ["verify", "nosuch"],
    ["tpaths", "IN", "--from", "1", "--to", "2", "--kind", "x"],
]


def outcome(parse, argv, capsys):
    """vars() of the parsed namespace, or (exit code, stdout, stderr)."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    assert capsys.readouterr() == ("", "")
    return vars(args)


@pytest.mark.parametrize("argv", GOLDEN_ARGV + MALFORMED,
                         ids=[" ".join(a) or "(empty)"
                              for a in GOLDEN_ARGV + MALFORMED])
def test_the_verb_route_parses_as_the_whole_parser(argv, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ap, _verbs = cli.build_parser()
    assert (outcome(cli._parse_args, argv, capsys)
            == outcome(ap.parse_args, argv, capsys))


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_golden_command_lines_take_the_verb_route(argv):
    ap, _verbs = cli.build_parser()
    with mock.patch.object(ap, "parse_args",
                           side_effect=AssertionError("whole parser used")):
        assert cli._parse_args(argv).verb == argv[0]
