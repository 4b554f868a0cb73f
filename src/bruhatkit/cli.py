"""Command-line surface: one subcommand per analysis family.

Exit codes: 0 on success (including a "no counterexample" forcing
verdict), 1 when a configured cap is exceeded or stdout is closed
early, 2 on usage errors.
Outputs are byte-stable across runs and across --jobs settings; timing
is reported as 0.0 unless --timing is given, so that JSON outputs stay
reproducible.

Parsing builds only what the call needs.  When the first argument names
a subcommand, ``main`` builds that subcommand's parser alone, exactly as
the full tree builds it; building all twelve takes longer than most
queries do.  The full tree of ``_build_parser`` is built only for
top-level help, a missing or unknown subcommand, or arguments the
subcommand leaves unrecognised, so that these print the usage and errors
they always did.  No parser is cached: a CLI call is one process, so a
cached parser would still be built once per call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bruhat, forcing, perms, posets, structure, words
from .limits import CapExceeded, Limits


def _limits_from(args: argparse.Namespace) -> Limits:
    return Limits(max_n=args.max_group_size)


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
    limits = Limits(
        max_n=args.max_group_size,
        max_word_length=args.max_word_length,
        max_reduced_words=args.max_reduced_words,
    )
    w = perms.parse_perm(args.perm, limits)
    print("\n".join(words.reduced_words(w, limits).to_json()))
    return 0


def cmd_eval(args) -> int:
    limits = _limits_from(args)
    word = words.parse_word(args.word)
    n = args.n if args.n is not None else max(word, default=0) + 1
    perms.check_group_size(n, limits)
    print(perms.format_perm(words.evaluate(word, n)))
    return 0


def cmd_leq(args) -> int:
    limits = _limits_from(args)
    x = perms.parse_perm(args.x, limits)
    y = perms.parse_perm(args.y, limits)
    m = max(len(x), len(y))
    print("true" if bruhat.bruhat_leq(perms.embed(x, m),
                                      perms.embed(y, m)) else "false")
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
    d = structure.decompose(w)
    _print_json(None if d is None else d.to_json())
    return 0


def cmd_witness(args) -> int:
    limits = _limits_from(args)
    w = perms.parse_perm(args.perm, limits)
    d = structure.decompose(w)
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
    _, _, _, t = structure.swap_string_factorization(x, y, ss)
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
    a, b, c, t = structure.swap_string_factorization(x, y, ss)
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
        limits=limits,
    )
    _print_json(verdict.to_json(timing=args.timing))
    return 0


_JOBS_HELP = ("worker processes, capped at the CPU count; the output is "
             "identical for every value")


def _at_least_one(text: str) -> int:
    """A --jobs or cap value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-group-size", type=_at_least_one, default=Limits.max_n,
        metavar="N",
        help="cap on the symmetric group size (default %(default)s)",
    )


def _perm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("perm")


def _words_args(p: argparse.ArgumentParser) -> None:
    """The reduced-word caps: 'words' is the one command that enumerates
    R(w), so the only one that takes them."""
    p.add_argument(
        "--max-word-length", type=_at_least_one,
        default=Limits.max_word_length,
        metavar="L",
        help="cap on the length of w (default %(default)s)",
    )
    p.add_argument(
        "--max-reduced-words", type=_at_least_one,
        default=Limits.max_reduced_words,
        metavar="R",
        help="cap on |R(w)|, counted before any word is built "
             "(default %(default)s)",
    )
    _perm_args(p)


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("x")
    p.add_argument("y")


def _format_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dot", action="store_true",
                   help="print the Hasse diagram as DOT instead of JSON")


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("word")
    p.add_argument("--n", type=int, default=None,
                   help="ambient group size (default: largest letter + 1)")


def _interval_args(p: argparse.ArgumentParser) -> None:
    _pair_args(p)
    _format_args(p)


def _ideal_args(p: argparse.ArgumentParser) -> None:
    _perm_args(p)
    _format_args(p)


def _iso_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec1")
    p.add_argument("spec2")


def _atlas_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--jobs", type=_at_least_one, default=None,
                   help=_JOBS_HELP)
    p.add_argument("--timing", action="store_true",
                   help="report real seconds instead of 0.0")


def _forces_args(p: argparse.ArgumentParser) -> None:
    _perm_args(p)
    p.add_argument("--max-n", type=int, default=None,
                   help="largest ambient group to scan (default w.n + 2)")
    p.add_argument("--jobs", type=_at_least_one, default=None,
                   help=_JOBS_HELP)
    p.add_argument("--timing", action="store_true",
                   help="report real seconds instead of 0.0")


def _commands() -> dict:
    """Each subcommand once: name -> (function, its own arguments, help),
    in the order ``--help`` lists them.  Built per call, so that a wrapper
    set on a ``cmd_*`` attribute of this module is the one called."""
    return {
        "words": (cmd_words, _words_args,
                  "list all reduced words of a permutation"),
        "eval": (cmd_eval, _eval_args,
                 "evaluate a word of generator letters"),
        "leq": (cmd_leq, _pair_args, "is x <= y in the Bruhat order?"),
        "interval": (cmd_interval, _interval_args,
                     "the interval [x, y] as JSON or DOT"),
        "ideal": (cmd_ideal, _ideal_args,
                  "the principal order ideal of w"),
        "iso": (cmd_iso, _iso_args,
                "poset isomorphism; a spec is 'w' (ideal) or 'x:y' "
                "(interval)"),
        "atlas": (cmd_atlas, _atlas_args,
                  "counts of interval/ideal isomorphism classes per length"),
        "decompose": (cmd_decompose, _perm_args,
                      "two-block split of a reduced word, if any"),
        "witness": (cmd_witness, _perm_args,
                    "non-forcing witness interval for a decomposable "
                    "permutation"),
        "swapstring": (cmd_swapstring, _pair_args,
                       "the thin monotonic substring separating x from y, "
                       "if any"),
        "factorize": (cmd_factorize, _pair_args,
                      "reduced words ac of x and abc of y with b a shifted "
                      "reversal word"),
        "forces": (cmd_forces, _forces_args,
                   "bounded factor-forcing verdict"),
    }


def _fill(p: argparse.ArgumentParser, func, own_args) -> None:
    """A subcommand's arguments after its -h: the group-size cap, then
    its own."""
    _common_args(p)
    own_args(p)
    p.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatkit",
        description="Bruhat order toolkit: reduced words, intervals, "
                    "poset isomorphism, factor-forcing searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, own_args, help_text) in _commands().items():
        _fill(sub.add_parser(name, help=help_text), func, own_args)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = _commands().get(argv[0]) if argv else None
    extra = None
    if command is not None:
        func, own_args, _ = command
        parser = argparse.ArgumentParser(prog=f"bruhatkit {argv[0]}")
        _fill(parser, func, own_args)
        args, extra = parser.parse_known_args(argv[1:])
    if command is None or extra:
        # the full tree reports these as it always has
        args = _build_parser().parse_args(argv)
    return report_errors(args.func, args)


def report_errors(func, *args) -> int:
    """``func(*args)``, ending in one ``error:`` line on stderr and exit
    code 1 for a cap exceeded or 2 for a bad value; scripts use it too.
    A reader that closes stdout early (``| head``) ends the call with
    exit code 1 and nothing on stderr: stdout is flushed here, and on a
    broken pipe pointed at the null device, so that the flush at
    shutdown has nothing left to fail on."""
    try:
        code = func(*args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
