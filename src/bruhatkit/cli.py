"""Command-line surface: one subcommand per analysis family.

Exit codes: 0 on success (including a "no counterexample" forcing
verdict), 1 when a configured cap is exceeded or stdout is closed
early, 2 on usage errors.
Outputs are byte-stable across runs and across --jobs settings; timing
is reported as 0.0 unless --timing is given, so that JSON outputs stay
reproducible.

Every subcommand enters through one input step, ``_run``: the caps from
its flags, then each permutation argument parsed against them in order,
before the command runs.  Each argument is declared once, as data: a
piece is a tuple of (option string, ``add_argument`` keywords), and
``_COMMANDS`` lists the pieces of every command.  ``_add`` declares them
on an argparse parser, the full tree's or a script's.

Parsing builds no parser for a well-formed call.  When the first
argument names a subcommand, ``_quick`` reads the call against that
subcommand's pieces, accepting it only when every token is a
positional, a declared flag spelled exactly or a value its type takes;
it then gives the Namespace the full tree would.  Anything else (help,
``--flag=value``, an abbreviation, ``--``, a negative or bad value, a
missing or extra argument, a missing or unknown subcommand) goes to the
full tree of ``_build_parser``, which prints the help, usage and errors
it always did.  Nothing is cached: a CLI call is one process, so a
cached parser would still be built once per call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bruhat, forcing, perms, posets, structure, words
from .limits import CapExceeded, Limits


def _limits_from(args: argparse.Namespace) -> Limits:
    """The caps of a parsed call: the group size, and the reduced-word
    caps where the command declares them (``_WORD_CAPS``)."""
    return Limits(
        args.max_group_size,
        getattr(args, "max_word_length", Limits.max_word_length),
        getattr(args, "max_reduced_words", Limits.max_reduced_words))


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _interval_output(iv: bruhat.Interval, as_dot: bool) -> None:
    if as_dot:
        labels = [perms.format_perm(z) for z in iv.elements]
        sys.stdout.write(posets.to_dot(iv, labels))
    else:
        _print_json(bruhat.interval_to_json(iv))


def _parse_poset_spec(spec: str, limits: Limits) -> bruhat.Interval:
    """A poset argument is either a permutation w (its principal order
    ideal) or x:y (the interval [x, y])."""
    texts = spec.split(":")
    if len(texts) > 2:
        raise ValueError(f"cannot parse poset {spec!r}: a spec is 'w' or "
                         "'x:y'")
    ends = [perms.parse_perm(text, limits) for text in texts]
    return bruhat.interval(*ends) if len(ends) == 2 else bruhat.ideal(*ends)


def cmd_words(args, limits, w) -> None:
    print(words.reduced_words(w, limits).to_text())


def cmd_eval(args, limits) -> None:
    word = words.parse_word(args.word)
    n = args.n if args.n is not None else max(word, default=0) + 1
    perms.check_group_size(n, limits)
    print(perms.format_perm(words.evaluate(word, n)))


def cmd_leq(args, limits, x, y) -> None:
    m = max(len(x), len(y))
    print("true" if bruhat.bruhat_leq(perms.embed(x, m),
                                      perms.embed(y, m)) else "false")


def cmd_interval(args, limits, x, y) -> None:
    _interval_output(bruhat.interval(x, y), args.dot)


def cmd_ideal(args, limits, w) -> None:
    _interval_output(bruhat.ideal(w), args.dot)


def cmd_iso(args, limits) -> None:
    p = _parse_poset_spec(args.spec1, limits)
    q = _parse_poset_spec(args.spec2, limits)
    print("true" if posets.is_isomorphic(p, q) else "false")


def cmd_atlas(args, limits) -> None:
    result = posets.atlas(args.n, args.max_len, jobs=args.jobs, limits=limits)
    _print_json(result.to_json(timing=args.timing))


def cmd_decompose(args, limits, w) -> None:
    d = structure.decompose(w)
    _print_json(None if d is None else d.to_json())


def cmd_witness(args, limits, w) -> None:
    witness = structure.nonforcing_witness(w, limits=limits)
    _print_json(None if witness is None else witness.to_json())


def cmd_swapstring(args, limits, x, y) -> None:
    ss = structure.detect_swap_string(x, y)
    out = None
    if ss is not None:
        out = ss.to_json()
        out["t"] = structure.swap_string_factorization(x, y)[3]
    _print_json(out)


def cmd_factorize(args, limits, x, y) -> None:
    found = structure.swap_string_factorization(x, y)
    if found is None:
        raise ValueError(
            "the pair does not differ by a thin monotonic swap-string"
        )
    a, b, c, t = found
    _print_json(
        {
            "a": words.format_word(a),
            "b": words.format_word(b),
            "c": words.format_word(c),
            "t": t,
        }
    )


def cmd_forces(args, limits, w) -> None:
    verdict = forcing.forces_factor(
        w,
        args.max_n,
        jobs=args.jobs,
        limits=limits,
    )
    _print_json(verdict.to_json(timing=args.timing))


def _run(name, args) -> int:
    """The one input step of every subcommand: its caps, then each
    permutation argument it declares (``_PERM_ARGS``) parsed against them
    in order, then ``cmd_<name>(args, limits, *permutations)``, which
    succeeds by returning and fails by raising for
    :func:`report_errors`."""
    limits = _limits_from(args)
    values = vars(args)
    parsed = [perms.parse_perm(values[arg], limits)
              for arg in _PERM_ARGS if arg in values]
    globals()[f"cmd_{name}"](args, limits, *parsed)
    return 0


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


# Argument pieces: each argument once, as its one option string and the
# keywords of its ``add_argument`` call.  A piece takes only ``type``,
# ``default``, ``required``, ``metavar``, ``help`` and
# ``action="store_true"``, the keywords that :func:`_quick` reads as
# argparse does.

_COMMON = (
    ("--max-group-size", dict(
        type=_at_least_one, default=Limits.max_n, metavar="N",
        help="cap on the symmetric group size (default %(default)s)")),
)
_PERM = (("perm", {}),)
_PAIR = (("x", {}), ("y", {}))
_PERM_ARGS = ("perm", "x", "y")     # the permutations, as _run parses them
_DOT = (("--dot", dict(action="store_true",
                       help="print the Hasse diagram as DOT instead of "
                            "JSON")),)
# the reduced-word caps: 'words' is the one command that enumerates
# R(w), so the only one that takes them
_WORD_CAPS = (
    ("--max-word-length", dict(
        type=_at_least_one, default=Limits.max_word_length, metavar="L",
        help="cap on the length of w (default %(default)s)")),
    ("--max-reduced-words", dict(
        type=_at_least_one, default=Limits.max_reduced_words, metavar="R",
        help="cap on |R(w)|, counted before any word is built "
             "(default %(default)s)")),
)
_EVAL = (
    ("word", {}),
    ("--n", dict(type=int, default=None,
                 help="ambient group size (default: largest letter + 1)")),
)
_SPECS = (("spec1", {}), ("spec2", {}))
_ATLAS_SIZE = (("--n", dict(type=int, required=True)),
               ("--max-len", dict(type=int, required=True)))
_MAX_N = (("--max-n", dict(
    type=int, default=None,
    help="largest ambient group to scan (default w.n + 2)")),)
_JOBS = (("--jobs", dict(
    type=_at_least_one, default=None,
    help="worker processes, capped at the CPU count; the output is "
         "identical for every value")),)
_TIMING = (("--timing", dict(action="store_true",
                             help="report real seconds instead of 0.0")),)

# Each subcommand once: name -> (its argument pieces in order, help), in
# the order --help lists them.  The command ``name`` runs ``cmd_<name>``,
# looked up on every call, so that a wrapper set on that attribute of
# this module is the one called.
_COMMANDS = {
    "words": ((_WORD_CAPS, _PERM), "list all reduced words of a permutation"),
    "eval": ((_EVAL,), "evaluate a word of generator letters"),
    "leq": ((_PAIR,), "is x <= y in the Bruhat order?"),
    "interval": ((_PAIR, _DOT), "the interval [x, y] as JSON or DOT"),
    "ideal": ((_PERM, _DOT), "the principal order ideal of w"),
    "iso": ((_SPECS,),
            "poset isomorphism; a spec is 'w' (ideal) or 'x:y' (interval)"),
    "atlas": ((_ATLAS_SIZE, _JOBS, _TIMING),
              "counts of interval/ideal isomorphism classes per length"),
    "decompose": ((_PERM,), "two-block split of a reduced word, if any"),
    "witness": ((_PERM,),
                "non-forcing witness interval for a decomposable "
                "permutation"),
    "swapstring": ((_PAIR,),
                   "the thin monotonic substring separating x from y, "
                   "if any"),
    "factorize": ((_PAIR,),
                  "reduced words ac of x and abc of y with b a shifted "
                  "reversal word"),
    "forces": ((_PERM, _MAX_N, _JOBS, _TIMING),
               "bounded factor-forcing verdict"),
}


def _add(parser: argparse.ArgumentParser, *pieces) -> None:
    """Declare the arguments of ``pieces`` on ``parser``, in order."""
    for piece in pieces:
        for option, keywords in piece:
            parser.add_argument(option, **keywords)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatkit",
        description="Bruhat order toolkit: reduced words, intervals, "
                    "poset isomorphism, factor-forcing searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (pieces, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        _add(command, _COMMON, *pieces)
        command.set_defaults(func=functools.partial(_run, name))
    return parser


def _quick(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the full tree gives for ``[name, *argv]``, read
    from the subcommand's pieces, or None unless every token is a
    positional, a declared flag spelled exactly or a value that does not
    start with '-' and that the flag's type takes, with every positional
    and required flag given."""
    values = {"command": name}
    positionals = []
    flags = {}
    required = set()
    for piece in (_COMMON, *_COMMANDS[name][0]):
        for option, keywords in piece:
            convert = keywords.get("type", str)
            if not option.startswith("-"):
                positionals.append((option, convert))
                continue
            dest = option.lstrip("-").replace("-", "_")
            store_true = keywords.get("action") == "store_true"
            flags[option] = (dest, None if store_true else convert)
            if keywords.get("required"):
                required.add(dest)
            else:
                values[dest] = keywords.get("default",
                                            False if store_true else None)
    positionals = iter(positionals)
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            if token not in flags:
                return None
            dest, convert = flags[token]
            if convert is None:
                values[dest] = True
                continue
            token = next(tokens, "-")     # a missing value is refused too
            if token.startswith("-"):
                return None
        else:
            dest, convert = next(positionals, (None, None))
            if dest is None:
                return None
        try:
            values[dest] = convert(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    if next(positionals, None) is not None or not required <= values.keys():
        return None
    return argparse.Namespace(**values, func=functools.partial(_run, name))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    if argv and argv[0] in _COMMANDS:
        args = _quick(argv[0], argv[1:])
    if args is None:
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
