#!/usr/bin/env python3
"""Tabulate isomorphism-class counts of Bruhat intervals and principal
order ideals per length, across a range of symmetric groups.

Example:
    python scripts/run_atlas.py --min-n 3 --max-n 6 --max-len 5 -o atlas.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bruhatkit import cli, posets  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    cli._add(parser, cli._COMMON)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-len", type=int, default=5)
    cli._add(parser, cli._JOBS)
    parser.add_argument("-o", "--out", type=Path, default=None,
                        help="write the collected JSON here")
    args = parser.parse_args()
    limits = cli._limits_from(args)

    collected = []
    for n in range(args.min_n, args.max_n + 1):
        result = posets.atlas(n, args.max_len, jobs=args.jobs,
                              limits=limits)
        collected.append(result.to_json(timing=True))
        intervals = ",".join(str(c) for c in result.counts("intervals"))
        ideals = ",".join(str(c) for c in result.counts("ideals"))
        print(f"n={n}: intervals [{intervals}]  ideals [{ideals}]  "
              f"({result.intervals_examined} intervals examined, "
              f"{result.seconds:.1f}s)")

    if args.out:
        args.out.write_text(json.dumps(collected, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(cli.report_errors(main))
