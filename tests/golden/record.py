"""Re-record the expected exit code, stdout and stderr of every golden CLI
case.

Usage: ``PYTHONPATH=src python tests/golden/record.py`` from the repository
root.  The case list (name and argv) is read from ``cases.json`` and written
back with the output of the current code, so run it only at a commit whose
output is trusted; ``tests/test_golden.py`` replays the recorded cases.
Input paths in argv are relative to this directory.
"""

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


def main():
    with open(CASES) as fh:
        cases = json.load(fh)
    for case in cases:
        case["exit"], case["stdout"], case["stderr"] = run_case(case["argv"])
    with open(CASES, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
