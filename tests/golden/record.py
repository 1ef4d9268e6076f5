"""Record the expected exit code, stdout and stderr of golden CLI cases.

Usage: ``PYTHONPATH=src python tests/golden/record.py [--all]`` from the
repository root.  The case list (name and argv) is read from ``cases.json``
and written back with the output of the current code.  Only cases with no
recorded ``exit`` are filled in, so a new case can be added as a name and
argv and recorded without touching the others; ``--all`` re-records every
case.  Run it only at a commit whose output is trusted;
``tests/test_golden.py`` replays the recorded cases.  Input paths in argv
are relative to this directory.
"""

import argparse
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = os.path.join(HERE, "cases.json")


def run_case(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    from artifact.cli import dispatch
    out, err = io.StringIO(), io.StringIO()
    argv = [os.path.join(HERE, a) if a.startswith("inputs/") else a
            for a in argv]
    with contextlib.redirect_stderr(err):
        code = dispatch(argv, out)
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--all", action="store_true",
                    help="re-record every case, not only unrecorded ones")
    args = ap.parse_args(argv)
    with open(CASES) as fh:
        cases = json.load(fh)
    for case in cases:
        if args.all or "exit" not in case:
            case["exit"], case["stdout"], case["stderr"] = run_case(
                case["argv"])
    with open(CASES, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
