"""Rewrite tests/golden/verify_all.jsonl from a fresh `verify --suite all`
and print every report line that moved (name, computed old -> new, the
reference if it moved, and tol), in test_cli._golden_moves' words.

    PYTHONPATH=src python tests/regen_verify_golden.py

Refuses, and writes nothing, if any check fails.  The manifest line
(wall times) is not part of the golden stream.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_cli import GOLDEN_VERIFY_ALL, _golden_moves  # noqa: E402
from zetalab.cli import main  # noqa: E402


def regenerate():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all"])
    lines = out.getvalue().splitlines()[:-1]
    failed = [json.loads(ln)["name"] for ln in lines
              if not json.loads(ln)["pass"]]
    if code != 0 or failed:
        sys.exit(f"verify exited {code}, failing {failed}; golden not written")
    with open(GOLDEN_VERIFY_ALL) as fh:
        golden = fh.read().splitlines()
    moved = _golden_moves(lines, golden)
    with open(GOLDEN_VERIFY_ALL, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(moved)} of {len(lines)} report lines moved")
    for msg in moved:
        print(msg)


if __name__ == "__main__":
    regenerate()
