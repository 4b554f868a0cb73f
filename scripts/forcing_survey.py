#!/usr/bin/env python3
"""Empirical survey of which permutations force a factor.

For every w in S_n the script reports whether w is decomposable (then a
non-forcing witness interval is printed) and what the bounded search
says: a counterexample interval, or no counterexample up to the bound.
Indecomposable permutations with no counterexample are the interesting
open cases for a classification.

Example:
    python scripts/forcing_survey.py --n 4 --max-m 6 -o survey.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bruhatkit import cli, forcing, perms, structure  # noqa: E402


def survey_one(w, max_m, jobs, limits):
    entry = {
        "w": perms.format_perm(w),
        "length": perms.length(w),
        "decomposable": False,
    }
    witness = structure.nonforcing_witness(w, limits=limits)
    if witness is not None:
        entry["decomposable"] = True
        entry["witness"] = witness.to_json()
    verdict = forcing.forces_factor(w, max_m, jobs=jobs, limits=limits)
    entry["outcome"] = verdict.outcome
    if verdict.counterexample is not None:
        entry["counterexample"] = verdict.counterexample.to_json()
    entry["intervals_examined"] = verdict.intervals_examined
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    cli._add(parser, cli._COMMON)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--max-m", type=int, default=None,
                        help="ambient bound for the search (default n + 2)")
    cli._add(parser, cli._JOBS)
    parser.add_argument("-o", "--out", type=Path, default=None)
    args = parser.parse_args()
    limits = cli._limits_from(args)

    entries = []
    open_cases = []
    for w in perms.all_perms(args.n, limits):
        entry = survey_one(w, args.max_m, args.jobs, limits)
        entries.append(entry)
        flag = "D" if entry["decomposable"] else " "
        if "counterexample" in entry:
            ce = entry["counterexample"]
            note = f"counterexample [{ce['x']}, {ce['y']}] in S_{ce['m']}"
        else:
            note = "no counterexample up to the bound"
            if not entry["decomposable"] and entry["length"] > 1:
                open_cases.append(entry["w"])
        print(f"{entry['w']}  l={entry['length']}  {flag}  {note}")

    print()
    print(f"{len(entries)} permutations surveyed; "
          f"{sum(e['decomposable'] for e in entries)} decomposable; "
          f"{sum('counterexample' in e for e in entries)} counterexampled")
    if open_cases:
        print("no counterexample found (candidates to force a factor): "
              + " ".join(open_cases))

    if args.out:
        args.out.write_text(json.dumps(entries, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(cli.report_errors(main))
