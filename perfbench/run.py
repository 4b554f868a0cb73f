#!/usr/bin/env python3
"""Benchmark for bruhatkit: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forcing-survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

It imports bruhatkit from ``src/`` of the checkout it sits in, builds the
group tables the workload needs (timed as set-up), then makes a fixed
number of passes over the workload's operations, enough to fill about
``--seconds`` seconds at the commit that added the benchmark.  Its times
are scaled to a reference machine speed (see ``speed.py``).  Every
answer is checked after its timing stops.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records provenance.  With ``--trace 1``
the metrics are the per-layer ones, from one untraced and one traced
pass; the spans go to ``.bench_out/`` in the checkout.

``--smoke`` runs every workload at tiny sizes, untraced and traced, and
checks that each metric named in BENCHMARK.json comes out with its unit
and that no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 25

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("bruhat", "cli", "forcing", "posets", "structure", "tables",
           "words")


class SetupError(Exception):
    pass


class CpuPicker:
    """Keeps the process on whichever of its CPUs other tenants slow least.

    On a shared virtual machine each virtual CPU can run about 1.6 times
    slower for seconds to minutes while a neighbour keeps its host core
    busy, and a lone busy process otherwise stays on the CPU it started
    on.  ``settle`` times a fixed probe on every CPU the process may use,
    at most every PROBE_EVERY_S, and moves the process to the fastest.
    It runs between operations, never inside a timed one.
    """

    PROBE_EVERY_S = 0.25

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.checked = -math.inf

    def settle(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.checked < self.PROBE_EVERY_S:
            return
        speeds = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((min(_probe() for _ in range(3)), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
        self.checked = time.perf_counter()


def _probe() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i % 97, i % 89] = i
    return time.perf_counter() - t0


# --- set-up ---------------------------------------------------------------


def forget_bruhatkit() -> None:
    """Drop every imported bruhatkit module and collect the heap, so that
    no table or cache of an earlier import stays alive.  The modules form
    reference cycles, which only the cyclic collector frees."""
    for name in [m for m in sys.modules
                 if m == "bruhatkit" or m.startswith("bruhatkit.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import() -> SimpleNamespace:
    """Import bruhatkit (and its CLI) from ``src/``.  After
    ``forget_bruhatkit`` every module is executed again."""
    if not (SRC / "bruhatkit" / "__init__.py").is_file():
        raise SetupError(f"no bruhatkit sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bruhatkit")
    if Path(pkg.__file__).resolve().parent != SRC / "bruhatkit":
        raise SetupError(f"bruhatkit was imported from {pkg.__file__}")
    prog = SimpleNamespace(**{
        m: importlib.import_module(f"bruhatkit.{m}") for m in MODULES
    })
    keep = prog.tables.group_table
    caches = {}
    for mod in vars(prog).values():
        for val in vars(mod).values():
            if hasattr(val, "cache_clear") and val is not keep:
                caches[id(val)] = val
    prog.caches = list(caches.values())
    return prog


def set_up(wl, cpu, clock) -> tuple[SimpleNamespace, list[float]]:
    """Import and build the workload's group tables SETUP_REPS times;
    return the last program and every set-up time.  The earlier program
    is freed before each import, outside the timed part, so at most one
    copy of the tables is alive and the memory peak is the workload's."""
    times = []
    for _ in range(SETUP_REPS):
        prog = None
        forget_bruhatkit()
        cpu.settle()
        mark = clock.mark()
        prog = fresh_import()
        for n in wl.tables:
            prog.tables.group_table(n)
        times.append(clock.seconds(mark))
    return prog, times


# --- passes ---------------------------------------------------------------


def run_pass(prog, wl, ops, cpu, clock, reference, failures,
             tracer=None) -> list[float]:
    """Run every operation once and return each one's time.

    A scan's pass starts from cold library caches (the group tables
    excepted) and a collected heap, and its caches then grow over the
    whole pass, as in one process running the scan.  A ``query-mix``
    query is one CLI call, a process of its own: it starts from cold
    caches and a collected heap, so its time does not depend on the
    seeded order.
    """
    times = []
    for k, op in enumerate(ops):
        if k == 0 or wl.process_per_op:
            reset_caches(prog, tracer)
            gc.collect()
        cpu.settle()
        if tracer is not None:
            tracer.op_id = k
        mark = clock.mark()
        try:
            result = op.call()
        except Exception as exc:  # a cap, an error: the operation failed
            times.append(clock.seconds(mark))
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        times.append(clock.seconds(mark))
        try:
            reason = workloads.compare(op, result, reference)
        except Exception as exc:  # a malformed answer fails its check
            reason = f"{op.key}: check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(reason)
    reset_caches(prog, tracer)
    return times


def reset_caches(prog, tracer=None) -> None:
    """Clear the library's caches; with a tracer, first add the
    certificate cache's statistics to its counts."""
    if tracer is not None:
        info = prog.posets._certificate.cache_info()
        tracer.counts["posets.cert_cache.hits"] += info.hits
        tracer.counts["posets.cert_cache.misses"] += info.misses
        tracer.counts["posets.cert_cache.currsize"] += info.currsize
    for cache in prog.caches:
        cache.cache_clear()


def nearest_rank(n, q) -> int:
    """1-based rank of the q-th percentile of n samples."""
    return max(1, math.ceil(n * q / 100))


def percentile(values, q):
    return sorted(values)[nearest_rank(len(values), q) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(prog, wl, ops, cpu, meter, seconds, reference, failures):
    # A fixed pass count, not a deadline: the number of samples behind
    # each median must not depend on how fast the machine is.
    count = max(1, int(seconds // wl.pass_seconds))
    passes = [run_pass(prog, wl, ops, cpu, meter, reference, failures)
              for _ in range(count)]
    # Each operation's median time over the passes, at the reference
    # speed.  The median drops what scaling leaves of a fast or slow
    # stretch; a best time would follow the probes' errors.  Every pass
    # runs the operations in the same order from the same cache state,
    # so their times are comparable from pass to pass.
    typical = [statistics.median(times) for times in zip(*passes)]
    wall = sum(typical)
    # A scan is answered as one batch: its latency is that of the batch.
    latencies = typical if wl.process_per_op else [wall]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": metric(wall, "s"),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": metric(percentile(latencies, 99) * 1e3, "ms"),
        "qps": metric(len(ops) / wall, "1/s"),
        "rss_peak_mb": metric(rss_mb, "MB"),
    }
    n = len(latencies)
    stats = {
        "passes": len(passes),
        "latency_samples": n,
        "p99_samples_beyond": n - nearest_rank(n, 99),
        "pass_s": [sum(p) for p in passes],
    }
    return metrics, stats, len(ops) * len(passes)


# --- the traced run -------------------------------------------------------


def install(tr, prog) -> None:
    f, w, b, p, s = (prog.forcing, prog.words, prog.bruhat, prog.posets,
                     prog.structure)
    tr.spanned(prog.tables.group_table, "tables.group_table")
    tr.spanned(f.forces_factor, "forcing.forces_factor")
    tr.spanned(f.factor_deletion, "forcing.factor_deletion",
               measure=lambda cert: cert is not None)
    tr.iterated(f.intervals_isomorphic_to, "forcing.intervals_isomorphic_to")
    tr.counted_iter(w.iter_reduced_words, "words.iter_reduced_words")
    tr.spanned(w.reduced_words, "words.reduced_words", measure=len)
    tr.spanned(b.interval, "bruhat.interval",
               measure=lambda iv: len(iv.elements))
    tr.counted(b.bruhat_leq, "bruhat.bruhat_leq")
    tr.spanned(p.atlas, "posets.atlas",
               label=lambda args: f"posets.atlas.n{args[0]}",
               measure=lambda r: r.intervals_examined)
    tr.spanned(p.canonical_form, "posets.canonical_form")
    for name in ("decompose", "nonforcing_witness",
                 "swap_string_factorization"):
        tr.spanned(getattr(s, name), f"structure.{name}")
    tr.spanned(prog.cli.main, "cli.main")
    for kind in workloads.QUERY_TYPES:
        tr.spanned(getattr(prog.cli, f"cmd_{kind}"), f"cli.{kind}")


def per_layer(tr, overhead_s) -> dict:
    m = {}

    def ms_pct(name, q):
        d = tr.durations(name)
        return percentile(d, q) * 1e3 if d else 0.0

    def calls(name):
        return len(tr.spans_named(name))

    m["tables.group_table.build_s"] = metric(
        sum(tr.durations("tables.group_table")), "s")
    fd = "forcing.factor_deletion"
    n_fd = calls(fd)
    pulled = tr.counts["words.iter_reduced_words.yielded"]
    m[f"{fd}.calls"] = metric(n_fd, "count")
    m[f"{fd}.self_s"] = metric(tr.self_s(fd), "s")
    m[f"{fd}.p50_ms"] = metric(ms_pct(fd, 50), "ms")
    m[f"{fd}.p99_ms"] = metric(ms_pct(fd, 99), "ms")
    m[f"{fd}.found_frac"] = metric(
        tr.counts[f"{fd}.out"] / n_fd if n_fd else 0.0, "ratio")
    m[f"{fd}.words_per_call"] = metric(
        pulled / n_fd if n_fd else 0.0, "words/call")
    m["words.iter_reduced_words.words_pulled"] = metric(pulled, "count")
    m["words.iter_reduced_words.self_s"] = metric(
        tr.self_s("words.iter_reduced_words"), "s")
    iso = "forcing.intervals_isomorphic_to"
    m[f"{iso}.self_s"] = metric(tr.self_s(iso), "s")
    m[f"{iso}.yielded"] = metric(tr.counts[f"{iso}.yielded"], "count")
    m["forcing.forces_factor.calls"] = metric(
        calls("forcing.forces_factor"), "count")
    m["forcing.forces_factor.self_s"] = metric(
        tr.self_s("forcing.forces_factor"), "s")
    for n in (5, 6, 7):
        name = f"posets.atlas.n{n}"
        m[f"{name}.self_s"] = metric(tr.self_s(name), "s")
        m[f"{name}.intervals_examined"] = metric(
            tr.counts[f"{name}.out"], "count")
    for stat in ("hits", "misses", "currsize"):
        name = f"posets.cert_cache.{stat}"
        m[name] = metric(tr.counts[name], "count")
    cf = "posets.canonical_form"
    m[f"{cf}.calls"] = metric(calls(cf), "count")
    m[f"{cf}.self_s"] = metric(tr.self_s(cf), "s")
    m[f"{cf}.max_ms"] = metric(max(tr.durations(cf), default=0.0) * 1e3, "ms")
    rw = "words.reduced_words"
    m[f"{rw}.calls"] = metric(calls(rw), "count")
    m[f"{rw}.self_s"] = metric(tr.self_s(rw), "s")
    m[f"{rw}.words_out"] = metric(tr.counts[f"{rw}.out"], "count")
    iv = "bruhat.interval"
    m[f"{iv}.calls"] = metric(calls(iv), "count")
    m[f"{iv}.self_s"] = metric(tr.self_s(iv), "s")
    m[f"{iv}.elements_out"] = metric(tr.counts[f"{iv}.out"], "count")
    m["bruhat.bruhat_leq.calls"] = metric(
        tr.counts["bruhat.bruhat_leq.calls"], "count")
    for name in ("decompose", "nonforcing_witness",
                 "swap_string_factorization"):
        m[f"structure.{name}.self_s"] = metric(
            tr.self_s(f"structure.{name}"), "s")
    m["cli.main.self_s"] = metric(tr.self_s("cli.main"), "s")
    for kind in workloads.QUERY_TYPES:
        m[f"cli.{kind}.p50_ms"] = metric(ms_pct(f"cli.{kind}", 50), "ms")
        m[f"cli.{kind}.p99_ms"] = metric(ms_pct(f"cli.{kind}", 99), "ms")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    m["trace.spans"] = metric(len(tr.names), "count")
    return m


def traced(prog, wl, ops, cpu, meter, reference, failures, header):
    # The two pass totals are scaled, so that their difference, the
    # tracing overhead, does not follow the machine's speed; the spans
    # are plain seconds and include the probes (about 0.5%).
    untraced = sum(run_pass(prog, wl, ops, cpu, meter, reference, failures))
    tr = tracing.Tracer()
    prog.tables.group_table.cache_clear()
    install(tr, prog)
    try:
        for n in wl.tables:
            prog.tables.group_table(n)
        times = run_pass(prog, wl, ops, cpu, meter, reference, failures,
                         tracer=tr)
    finally:
        tr.uninstall()
    wall = sum(times)
    metrics = per_layer(tr, wall - untraced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{header['seed']}.json.gz"
    tr.write(path, dict(header, traced_wall_s=wall, untraced_wall_s=untraced,
                        metrics=metrics))
    stats = {"passes": 2, "traced_wall_s": wall, "untraced_wall_s": untraced,
             "trace_file": str(path.relative_to(ROOT))}
    return metrics, stats, 2 * len(ops)


# --- provenance -----------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git (which
    would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bruhatkit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
    }


# --- entry points ---------------------------------------------------------


def load_reference() -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        raise SetupError(f"missing {path.relative_to(ROOT)}")
    return json.loads(path.read_text())


def run(args) -> tuple[dict, dict]:
    """(result line, provenance) of one run."""
    wl = workloads.WORKLOADS[args.workload]
    reference = load_reference()
    cpu = CpuPicker()
    failures: list[str] = []
    with speed.SpeedMeter() as meter:
        prog, setup_times = set_up(wl, cpu, meter)
        ops = wl.ops(prog, random.Random(args.seed), args.smoke)
        header = provenance(args)
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, stats, attempted = traced(prog, wl, ops, cpu, meter,
                                               reference, failures, header)
        else:
            metrics, stats, attempted = end_to_end(prog, wl, ops, cpu, meter,
                                                   args.seconds, reference,
                                                   failures)
            metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    header.update(stats, setup_s=setup_times, speed=meter.summary(),
                  attempted=attempted, failed=len(failures),
                  failed_frac=len(failures) / attempted,
                  failures=failures[:20])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, header


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = SimpleNamespace(workload=name, seed=0, seconds=0,
                                   trace=trace, smoke=True)
            result, header = run(args)
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{name} trace={trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} unit")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name} trace={trace}: unlisted {sorted(extra)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: failures "
                                f"{header['failures']}")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, checked")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, header = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
