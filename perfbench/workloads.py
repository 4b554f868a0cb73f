"""The three workloads: their inputs, the timed call of each operation, and
the checks run on each answer after its timing has stopped.

Every operation carries a reference key.  Its answer (a verdict's JSON,
an atlas table, or a digest of the CLI's stdout) must equal the answer
stored under that key in ``reference.json``, made by
``make_reference.py``.  On top of that each answer passes independent
checks from :mod:`oracle`, which hold for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# forcing-survey: the paper's survey of S_4 up to ambient group S_6.
SURVEY = dict(n=4, m=6)
# atlas-sweep: lengths up to 5 in S_5 (few intervals, each one large),
# then lengths up to 4 in S_6 and up to 2 in S_7 (many small intervals).
# Each call takes well under 2 s, so a run makes about ten passes and an
# operation's median over them is steady on a machine whose speed drifts.
ATLAS = ((5, 5), (6, 4), (7, 2))
# Stabilized atlas counts of acceptance criterion 4, lengths 0..5.  In
# S_n the counts of every length below n have stabilized.
PUBLISHED_INTERVALS = (1, 1, 1, 3, 7, 25)
PUBLISHED_IDEALS = (1, 1, 1, 2, 3, 5)

SMOKE_SURVEY = dict(n=3, m=4)
SMOKE_ATLAS = ((4, 3),)

# query-mix: light queries per type and run, drawn from a fixed pool of
# POOL_PER_TYPE per type so that every query of every seed has a stored
# answer; plus the same heavy queries in every run.
QUERY_TYPES = ("words", "eval", "leq", "interval", "ideal", "iso",
               "decompose", "witness", "swapstring", "factorize")
LIGHT_PER_TYPE = 100
SMOKE_PER_TYPE = 2
POOL_PER_TYPE = 200
POOL_SEED = 20130315
# The long S_6 permutations (length 13) for ``words``, two of them for
# ``decompose``, and the B_6 ideal of a Coxeter element for ``iso``: the
# tail the p99 latency is about.  17 heavy in 1,017 queries put the p99
# (10 samples beyond it) inside the ``words`` group.
HEAVY_DECOMPOSE = ("465321", "564231")
HEAVY_ISO = (("2345671", "1234567:2345671"),)


@dataclass
class Op:
    key: str                          # reference key
    call: Callable[[], object]        # the timed part
    answer: Callable[[object], object]   # JSON-able answer to compare
    verify: Callable[[object], str | None]   # independent checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare(op: Op, result, reference: dict) -> str | None:
    """None when the answer is right, else the reason it is not."""
    want = reference.get(op.key)
    if want is None:
        return f"{op.key}: no stored reference answer"
    if op.answer(result) != want:
        return f"{op.key}: answer differs from the reference"
    return op.verify(result)


# --- forcing-survey ------------------------------------------------------


def _verify_verdict(w, m, verdict) -> str | None:
    gap = oracle.length(w)
    ce = verdict.counterexample
    if ce is not None:
        x, y = ce.x, ce.y
        if not (oracle.leq(x, y) and oracle.length(y) - oracle.length(x) == gap):
            return "counterexample is not an interval of the right length"
        if oracle.has_factor_deletion(x, y):
            return "counterexample admits a factor deletion"
        return None
    cert = verdict.sample_certificate
    if cert is None:
        return "no counterexample and no certificate"
    x, y = oracle.evaluate(cert.i, m), oracle.evaluate(cert.j, m)
    if cert.i != cert.j[:cert.start] + cert.j[cert.start + cert.length:]:
        return "certificate is not a factor deletion"
    if not (oracle.is_reduced_word_of(cert.j, y)
            and oracle.is_reduced_word_of(cert.i, x)
            and oracle.leq(x, y) and cert.length == gap):
        return "certificate does not evaluate to an interval of the right length"
    return None


def survey_ops(bk, rng, spec) -> list[Op]:
    forcing = bk.forcing
    m = spec["m"]
    ops = []
    for w in itertools.permutations(range(1, spec["n"] + 1)):
        ops.append(Op(
            key=f"forces {oracle.format_perm(w)} {m}",
            call=lambda w=w: forcing.forces_factor(w, m),
            answer=lambda v: v.to_json(),
            verify=lambda v, w=w: _verify_verdict(w, m, v),
        ))
    rng.shuffle(ops)
    return ops


# --- atlas-sweep ---------------------------------------------------------


def _verify_atlas(result, n, max_len) -> str | None:
    rows = result.to_json()["rows"]
    if len(rows) != max_len + 1:
        return "wrong number of rows"
    stable = rows[:n]
    k = len(stable)
    if [r["intervals"] for r in stable] != list(PUBLISHED_INTERVALS[:k]):
        return "interval counts differ from the published ones"
    if [r["ideals"] for r in stable] != list(PUBLISHED_IDEALS[:k]):
        return "ideal counts differ from the published ones"
    return None


def atlas_ops(bk, rng, calls) -> list[Op]:
    posets = bk.posets
    ops = []
    for n, max_len in calls:
        ops.append(Op(
            key=f"atlas {n} {max_len}",
            call=lambda n=n, k=max_len: posets.atlas(n, k),
            answer=lambda r: r.to_json(),
            verify=lambda r, n=n, k=max_len: _verify_atlas(r, n, k),
        ))
    rng.shuffle(ops)
    return ops


# --- query-mix: input generation ------------------------------------------


def _perm_of_length(rng, n, ell):
    """A random permutation of S_n with ``ell`` inversions, built by
    swapping a random adjacent ascent ``ell`` times (at most the
    length of the reversal)."""
    w = list(range(1, n + 1))
    for _ in range(min(ell, n * (n - 1) // 2)):
        i = rng.choice([i for i in range(n - 1) if w[i] < w[i + 1]])
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _down(rng, y, steps):
    """Walk ``steps`` random Bruhat covers down from y."""
    y = list(y)
    for _ in range(steps):
        n = len(y)
        moves = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if y[i] > y[j]
            and not any(y[j] < y[k] < y[i] for k in range(i + 1, j))
        ]
        if not moves:
            break
        i, j = rng.choice(moves)
        y[i], y[j] = y[j], y[i]
    return tuple(y)


def _swap_pair(rng, n):
    """(x, y) differing by a consecutive block, increasing in x and
    decreasing in y: a thin monotonic swap-string."""
    x = list(_perm_of_length(rng, n, rng.randint(0, 8)))
    k = rng.randint(2, min(4, n))
    i = rng.randint(0, n - k)
    x[i:i + k] = sorted(x[i:i + k])
    y = list(x)
    y[i:i + k] = reversed(x[i:i + k])
    return tuple(x), tuple(y)


def _query(rng, kind):
    f = oracle.format_perm
    n = rng.randint(5, 8)
    if kind == "words":
        return ["words", f(_perm_of_length(rng, n, rng.randint(3, 7)))]
    if kind == "eval":
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(1, 20))]
        return ["eval", "".join(map(str, word)), "--n", str(n)]
    if kind == "leq":
        y = _perm_of_length(rng, n, rng.randint(2, 12))
        x = (_down(rng, y, rng.randint(1, 6)) if rng.random() < 0.5
             else _perm_of_length(rng, n, rng.randint(0, 10)))
        return ["leq", f(x), f(y)]
    if kind == "interval":
        y = _perm_of_length(rng, n, rng.randint(4, 10))
        argv = ["interval", f(_down(rng, y, rng.randint(1, 4))), f(y)]
        return argv + ["--dot"] if rng.random() < 0.25 else argv
    if kind == "ideal":
        argv = ["ideal", f(_perm_of_length(rng, n, rng.randint(2, 5)))]
        return argv + ["--dot"] if rng.random() < 0.25 else argv
    if kind == "iso":
        # Up to length 4: the boolean ideals B_5 and B_6 take from 0.1 s
        # to over a second, too heavy for the light share.
        ell = rng.randint(2, 4)
        w = _perm_of_length(rng, n, ell)
        pick = rng.randrange(4)
        if pick == 0:
            return ["iso", f(w), f(oracle.inverse(w))]
        if pick == 1:
            x = _down(rng, w, rng.randint(1, ell))
            c = oracle.conjugate_by_longest
            return ["iso", f"{f(x)}:{f(w)}", f"{f(c(x))}:{f(c(w))}"]
        other = ell if pick == 2 else rng.choice(
            [k for k in range(2, 5) if k != ell])
        return ["iso", f(w), f(_perm_of_length(rng, n, other))]
    if kind == "decompose":
        return ["decompose", f(_perm_of_length(rng, n, rng.randint(3, 7)))]
    if kind == "witness":
        # The witness lives in S_{n+1}; S_8 would pass the default cap.
        # Its deletion search reads all of R(w_plus), which from length 5
        # on can take a second: too heavy for the light share.
        n = min(n, 7)
        return ["witness", f(_perm_of_length(rng, n, rng.randint(3, 4)))]
    if kind in ("swapstring", "factorize"):
        x, y = _swap_pair(rng, n)
        return [kind, f(x), f(y)]
    raise ValueError(kind)


def query_pool() -> dict[str, list[list[str]]]:
    """The fixed pool every run draws its light queries from."""
    rng = random.Random(POOL_SEED)
    return {
        kind: [_query(rng, kind) for _ in range(POOL_PER_TYPE)]
        for kind in QUERY_TYPES
    }


def heavy_queries() -> list[list[str]]:
    long6 = [
        oracle.format_perm(w)
        for w in itertools.permutations(range(1, 7))
        if oracle.length(w) == 13
    ]
    return ([["words", p] for p in long6]
            + [["decompose", p] for p in HEAVY_DECOMPOSE]
            + [["iso", a, b] for a, b in HEAVY_ISO])


# --- query-mix: independent checks ----------------------------------------


def _check_words(argv, out):
    w = oracle.parse_perm(argv[1])
    lines = out.splitlines()
    if len(lines) != oracle.count_reduced_words(w):
        return "wrong number of reduced words"
    if any(a >= b for a, b in zip(lines, lines[1:])):
        return "reduced words are not sorted and distinct"
    for line in lines[::max(1, len(lines) // 50)]:
        if not oracle.is_reduced_word_of(oracle.parse_word(line), w):
            return f"{line} is not a reduced word of {argv[1]}"
    return None


def _check_eval(argv, out):
    got = oracle.format_perm(oracle.evaluate(oracle.parse_word(argv[1]),
                                             int(argv[3])))
    return None if out.strip() == got else "wrong product"


def _check_leq(argv, out):
    x, y = oracle.parse_perm(argv[1]), oracle.parse_perm(argv[2])
    want = "true" if oracle.leq(x, y) else "false"
    return None if out.strip() == want else "wrong comparison"


def _check_interval_json(low, high, out):
    data = json.loads(out)
    elems = [oracle.parse_perm(z) for z in data["elements"]]
    if (data["low"], data["high"]) != (oracle.format_perm(low),
                                       oracle.format_perm(high)):
        return "wrong endpoints"
    if len(set(elems)) != len(elems) or low not in elems or high not in elems:
        return "elements are not distinct or miss an endpoint"
    for z in elems:
        if not (oracle.leq(low, z) and oracle.leq(z, high)):
            return f"{oracle.format_perm(z)} lies outside the interval"
    for a, b in data["covers"]:
        pa, pb = oracle.parse_perm(a), oracle.parse_perm(b)
        if oracle.length(pb) != oracle.length(pa) + 1 or not oracle.leq(pa, pb):
            return f"{a} -> {b} is not a cover"
    return None


def _check_dot(out):
    ok = out.startswith("digraph poset {") and out.rstrip().endswith("}")
    return None if ok else "malformed DOT"


def _check_interval(argv, out):
    if "--dot" in argv:
        return _check_dot(out)
    return _check_interval_json(oracle.parse_perm(argv[1]),
                                oracle.parse_perm(argv[2]), out)


def _check_ideal(argv, out):
    if "--dot" in argv:
        return _check_dot(out)
    w = oracle.parse_perm(argv[1])
    return _check_interval_json(tuple(sorted(w)), w, out)


def _spec_ends(spec):
    if ":" in spec:
        lo, hi = spec.split(":")
        return oracle.parse_perm(lo), oracle.parse_perm(hi)
    w = oracle.parse_perm(spec)
    return tuple(sorted(w)), w


def _check_iso(argv, out):
    (x1, y1), (x2, y2) = _spec_ends(argv[1]), _spec_ends(argv[2])
    c = oracle.conjugate_by_longest
    same_shape = (
        (x2, y2) == (x1, y1)
        or (x2, y2) == (oracle.inverse(x1), oracle.inverse(y1))
        or (x2, y2) == (c(x1), c(y1))
    )
    gap1 = oracle.length(y1) - oracle.length(x1)
    gap2 = oracle.length(y2) - oracle.length(x2)
    if same_shape and out.strip() != "true":
        return "automorphic images reported non-isomorphic"
    if gap1 != gap2 and out.strip() != "false":
        return "intervals of different lengths reported isomorphic"
    return None


def _check_decompose(argv, out):
    d = json.loads(out)
    if d is None:
        return None
    w = oracle.parse_perm(argv[1])
    a1, a2, m = oracle.parse_word(d["a1"]), oracle.parse_word(d["a2"]), d["m"]
    if not (a1 and a2 and oracle.is_reduced_word_of(a1 + a2, w)):
        return "a1 a2 is not a reduced word of w"
    small, large = (a1, a2) if d["side"] == "left" else (a2, a1)
    if max(small) > m or min(large) <= m:
        return "blocks do not split at m"
    return None


def _check_witness(argv, out):
    d = json.loads(out)
    if d is None:
        return None
    w = oracle.parse_perm(argv[1])
    lo, hi = oracle.parse_perm(d["w_minus"]), oracle.parse_perm(d["w_plus"])
    if not oracle.is_reduced_word_of(oracle.parse_word(d["word"]), hi):
        return "witness word does not evaluate to w_plus"
    if not (oracle.leq(lo, hi)
            and oracle.length(hi) - oracle.length(lo) == oracle.length(w)):
        return "witness is not an interval of the right length"
    return None


def _check_swapstring(argv, out):
    d = json.loads(out)
    x, y = oracle.parse_perm(argv[1]), oracle.parse_perm(argv[2])
    if d is None:
        return "a constructed swap-string was not found"
    pos = d["positions"]
    differ = [p for p in range(1, len(x) + 1) if x[p - 1] != y[p - 1]]
    if not set(differ) <= set(pos) or d["k"] != len(pos):
        return "swap-string misses a differing position"
    vx, vy = [x[p - 1] for p in pos], [y[p - 1] for p in pos]
    if vx != sorted(vx) or vy != sorted(vy, reverse=True):
        return "swap-string is not monotonic"
    return None


def _check_factorize(argv, out):
    d = json.loads(out)
    x, y = oracle.parse_perm(argv[1]), oracle.parse_perm(argv[2])
    a, b, c = (oracle.parse_word(d[k]) for k in "abc")
    if not oracle.is_reduced_word_of(a + c, x):
        return "a c is not a reduced word of x"
    if not oracle.is_reduced_word_of(a + b + c, y):
        return "a b c is not a reduced word of y"
    k = next((k for k in range(1, 9) if k * (k - 1) // 2 == len(b)), None)
    shifted = tuple(letter + d["t"] for letter in b)
    if k is None or oracle.evaluate(shifted, k) != tuple(range(k, 0, -1)):
        return "b does not shift to a reversal word"
    return None


CHECKS = {
    "words": _check_words, "eval": _check_eval, "leq": _check_leq,
    "interval": _check_interval, "ideal": _check_ideal, "iso": _check_iso,
    "decompose": _check_decompose, "witness": _check_witness,
    "swapstring": _check_swapstring, "factorize": _check_factorize,
}


def run_cli(cli, argv):
    """One query through ``cli.main``, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _verify_query(argv, result):
    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    return CHECKS[argv[0]](argv, out)


def query_op(cli, argv) -> Op:
    return Op(
        key="cli " + " ".join(argv),
        call=lambda: run_cli(cli, argv),
        answer=lambda r: [r[0], digest(r[1])],
        verify=lambda r: _verify_query(argv, r),
    )


def query_ops(bk, rng, per_type, heavy=True) -> list[Op]:
    pool = query_pool()
    chosen = [argv for kind in QUERY_TYPES
              for argv in rng.sample(pool[kind], per_type)]
    if heavy:
        chosen += heavy_queries()
    rng.shuffle(chosen)
    return [query_op(bk.cli, argv) for argv in chosen]


# --- the workload table ---------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple[int, ...]       # group tables built during set-up
    ops: Callable                 # (bk, rng, smoke) -> list[Op]
    # A run of S seconds makes S // pass_seconds passes.  The values are
    # what a pass took on 2 shared cores when the benchmark was added,
    # with room for the moments when both cores ran slow.
    pass_seconds: float
    # Each operation stands for a process of its own (one CLI call), so
    # it starts from cold caches and has a latency of its own.  Otherwise
    # a pass is one batch, as one process running the scan's script.
    process_per_op: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("forcing-survey", (4, 5, 6), lambda bk, rng, smoke:
                 survey_ops(bk, rng, SMOKE_SURVEY if smoke else SURVEY),
                 pass_seconds=25),
        Workload("atlas-sweep", (5, 6, 7), lambda bk, rng, smoke:
                 atlas_ops(bk, rng, SMOKE_ATLAS if smoke else ATLAS),
                 pass_seconds=3),
        Workload("query-mix", (), lambda bk, rng, smoke:
                 query_ops(bk, rng, SMOKE_PER_TYPE if smoke else LIGHT_PER_TYPE,
                           heavy=not smoke),
                 pass_seconds=7, process_per_op=True),
    )
}
