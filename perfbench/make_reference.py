#!/usr/bin/env python3
"""Write perfbench/reference.json: the answer of every operation any run
of the benchmark can make, computed by the bruhatkit in ``src/``.

    python3 perfbench/make_reference.py

Each answer must also pass the benchmark's independent checks, or
nothing is written.  Regenerate only when an output change is intended
and named in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads


def all_ops(prog):
    rng = random.Random(0)
    ops = []
    for spec in (workloads.SURVEY, workloads.SMOKE_SURVEY):
        ops += workloads.survey_ops(prog, rng, spec)
    ops += workloads.atlas_ops(prog, rng,
                               workloads.ATLAS + workloads.SMOKE_ATLAS)
    queries = [argv for pool in workloads.query_pool().values()
               for argv in pool] + workloads.heavy_queries()
    ops += [workloads.query_op(prog.cli, argv) for argv in queries]
    return ops


def main() -> int:
    prog = run.fresh_import()
    reference = {}
    problems = []
    for op in all_ops(prog):
        result = op.call()
        reason = op.verify(result)
        if reason:
            problems.append(f"{op.key}: {reason}")
        reference[op.key] = op.answer(result)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.HERE / "reference.json"
    lines = [
        f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
        for key in sorted(reference)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} answers to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
