"""Rewrite every golden file a CLI command produces, from fresh runs:
verify_all.jsonl (`verify --suite all` without its manifest),
operator_dump.csv and each file of test_cli.CLI_GOLDENS.  Prints, for
each file, how many of its lines moved, then every report line of the
verify stream that moved (name, computed old -> new, the reference if it
moved, and tol), in test_cli._golden_moves' words.

    PYTHONPATH=src python tests/regen_verify_golden.py

Refuses, and writes nothing, if any check fails or a command exits with
another code than its table's.  psi_coefficient_table.json is not
touched: tests/freeze_psi_coefficients.py writes it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_cli import (CLI_GOLDENS, GOLDEN_OPERATOR_DUMP,  # noqa: E402
                      GOLDEN_VERIFY_ALL, _golden_moves, operator_dump_rows,
                      printed)


def _read(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return fh.read().splitlines()


def regenerate():
    code, lines = printed(["verify", "--suite", "all"])
    lines = lines[:-1]
    failed = [json.loads(ln)["name"] for ln in lines
              if not json.loads(ln)["pass"]]
    if code != 0 or failed:
        sys.exit(f"verify exited {code}, failing {failed}; no golden written")
    fresh = {GOLDEN_VERIFY_ALL: lines,
             GOLDEN_OPERATOR_DUMP: operator_dump_rows()}
    for name, argv, want in CLI_GOLDENS:
        code, out = printed(argv)
        if code != want:
            sys.exit(f"{' '.join(argv)} exited {code}, not {want}; "
                     f"no golden written")
        fresh[os.path.join(os.path.dirname(GOLDEN_VERIFY_ALL), name)] = out
    verify_moved = _golden_moves(lines, _read(GOLDEN_VERIFY_ALL))
    for path, new in fresh.items():
        old = _read(path)
        moved = (sum(a != b for a, b in zip(new, old))
                 + abs(len(new) - len(old)))
        with open(path, "w") as fh:
            fh.write("\n".join(new) + "\n")
        print(f"{os.path.basename(path)}: {moved} of {len(new)} lines moved")
    for msg in verify_moved:
        print(msg)


if __name__ == "__main__":
    regenerate()
