"""Command-line surface: one subcommand per analysis family.

Exit codes: 0 on success (including a "no counterexample" forcing
verdict), 1 when a configured cap is exceeded, 2 on usage errors.
Outputs are byte-stable across runs and across --jobs settings; timing
is reported as 0.0 unless --timing is given, so that JSON outputs stay
reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bruhat, forcing, perms, posets, structure, words
from .limits import CapExceeded, Limits


def _limits_from(args: argparse.Namespace) -> Limits:
    return Limits(
        max_n=args.max_group_size,
        max_word_length=args.max_word_length,
        max_reduced_words=args.max_reduced_words,
    )


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _interval_output(iv: bruhat.Interval, as_dot: bool) -> None:
    if as_dot:
        poset = posets.poset_from_interval(iv)
        labels = [perms.format_perm(z) for z in iv.elements]
        sys.stdout.write(posets.to_dot(poset, labels))
    else:
        _print_json(bruhat.interval_to_json(iv))


def _parse_poset_spec(spec: str, limits: Limits) -> posets.RankedPoset:
    """A poset argument is either a permutation w (its principal order
    ideal) or x:y (the interval [x, y])."""
    if ":" in spec:
        lo_text, hi_text = spec.split(":", 1)
        x = perms.parse_perm(lo_text, limits)
        y = perms.parse_perm(hi_text, limits)
        return posets.poset_from_interval(bruhat.interval(x, y))
    w = perms.parse_perm(spec, limits)
    return posets.poset_from_interval(bruhat.ideal(w))


def cmd_words(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    for text in words.reduced_words(w, limits).to_json():
        print(text)
    return 0


def cmd_eval(args) -> int:
    limits = _limits_from(args)
    word = words.parse_word(args.word)
    n = args.n if args.n is not None else max(word, default=0) + 1
    print(perms.format_perm(words.evaluate(word, n, limits)))
    return 0


def cmd_leq(args) -> int:
    limits = _limits_from(args)
    x = perms.parse_perm(args.x, limits)
    y = perms.parse_perm(args.y, limits)
    m = max(len(x), len(y))
    print("true" if bruhat.bruhat_leq(perms.embed(x, m, limits),
                                      perms.embed(y, m, limits)) else "false")
    return 0


def cmd_interval(args) -> int:
    limits = _limits_from(args)
    x = perms.parse_perm(args.x, limits)
    y = perms.parse_perm(args.y, limits)
    _interval_output(bruhat.interval(x, y), args.dot)
    return 0


def cmd_ideal(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    _interval_output(bruhat.ideal(w), args.dot)
    return 0


def cmd_iso(args) -> int:
    limits = _limits_from(args)
    p = _parse_poset_spec(args.spec1, limits)
    q = _parse_poset_spec(args.spec2, limits)
    print("true" if posets.is_isomorphic(p, q) else "false")
    return 0


def cmd_atlas(args) -> int:
    limits = _limits_from(args)
    result = posets.atlas(args.n, args.max_len, jobs=args.jobs, limits=limits)
    _print_json(result.to_json(timing=args.timing))
    return 0


def cmd_decompose(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    d = structure.decompose(w, limits)
    _print_json(None if d is None else d.to_json())
    return 0


def cmd_witness(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    d = structure.decompose(w, limits)
    if d is None:
        _print_json(None)
        return 0
    witness = structure.nonforcing_witness(w, d, limits)
    _print_json(witness.to_json())
    return 0


def cmd_swapstring(args) -> int:
    limits = _limits_from(args)
    x = perms.parse_perm(args.x, limits)
    y = perms.parse_perm(args.y, limits)
    ss = structure.detect_swap_string(x, y)
    if ss is None:
        _print_json(None)
        return 0
    _, _, _, t = structure.swap_string_factorization(x, y, ss, limits)
    out = ss.to_json()
    out["t"] = t
    _print_json(out)
    return 0


def cmd_factorize(args) -> int:
    limits = _limits_from(args)
    x = perms.parse_perm(args.x, limits)
    y = perms.parse_perm(args.y, limits)
    ss = structure.detect_swap_string(x, y)
    if ss is None:
        raise ValueError(
            "the pair does not differ by a thin monotonic swap-string"
        )
    a, b, c, t = structure.swap_string_factorization(x, y, ss, limits)
    _print_json(
        {
            "a": words.format_word(a),
            "b": words.format_word(b),
            "c": words.format_word(c),
            "t": t,
        }
    )
    return 0


def cmd_forces(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    verdict = forcing.forces_factor(
        w,
        args.max_n,
        jobs=args.jobs,
        use_symmetry=args.use_symmetry,
        limits=limits,
    )
    _print_json(verdict.to_json(timing=args.timing))
    return 0


_JOBS_HELP = ("worker processes, capped at the CPU count; the output is "
             "identical for every value")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-group-size", type=int, default=Limits.max_n, metavar="N",
        help="cap on the symmetric group size (default %(default)s)",
    )
    common.add_argument(
        "--max-word-length", type=int, default=Limits.max_word_length,
        metavar="L",
        help="cap on the length of w for 'words', the one command that "
             "enumerates R(w); 'forces' and 'atlas' only echo it "
             "(default %(default)s)",
    )
    common.add_argument(
        "--max-reduced-words", type=int, default=Limits.max_reduced_words,
        metavar="R",
        help="cap on |R(w)| for 'words' (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="bruhatkit",
        description="Bruhat order toolkit: reduced words, intervals, "
                    "poset isomorphism, factor-forcing searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", parents=[common],
                       help="list all reduced words of a permutation")
    p.add_argument("perm")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a word of generator letters")
    p.add_argument("word")
    p.add_argument("--n", type=int, default=None,
                   help="ambient group size (default: largest letter + 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("leq", parents=[common],
                       help="is x <= y in the Bruhat order?")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_leq)

    p = sub.add_parser("interval", parents=[common],
                       help="the interval [x, y] as JSON or DOT")
    p.add_argument("x")
    p.add_argument("y")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true", default=True)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("ideal", parents=[common],
                       help="the principal order ideal of w")
    p.add_argument("perm")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true", default=True)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("iso", parents=[common],
                       help="poset isomorphism; a spec is 'w' (ideal) "
                            "or 'x:y' (interval)")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("atlas", parents=[common],
                       help="counts of interval/ideal isomorphism classes "
                            "per length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p.add_argument("--timing", action="store_true",
                   help="report real seconds instead of 0.0")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("decompose", parents=[common],
                       help="two-block split of a reduced word, if any")
    p.add_argument("perm")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("witness", parents=[common],
                       help="non-forcing witness interval for a "
                            "decomposable permutation")
    p.add_argument("perm")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("swapstring", parents=[common],
                       help="the thin monotonic substring separating x "
                            "from y, if any")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_swapstring)

    p = sub.add_parser("factorize", parents=[common],
                       help="reduced words ac of x and abc of y with b a "
                            "shifted reversal word")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("forces", parents=[common],
                       help="bounded factor-forcing verdict")
    p.add_argument("perm")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest ambient group to scan (default w.n + 2)")
    p.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p.add_argument("--use-symmetry", action="store_true",
                   help="skip order-automorphism images (changes only the "
                        "intervals examined and the sample certificate)")
    p.add_argument("--timing", action="store_true",
                   help="report real seconds instead of 0.0")
    p.set_defaults(func=cmd_forces)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
