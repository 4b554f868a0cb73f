"""Command-line surface: one subcommand per analysis family.

Exit codes: 0 on success (including a "no counterexample" forcing
verdict), 1 when a configured cap is exceeded or stdout is closed
early, 2 on usage errors.
Outputs are byte-stable across runs and across --jobs settings; timing
is reported as 0.0 unless --timing is given, so that JSON outputs stay
reproducible.

Every subcommand enters through one input step, ``_run``: the caps from
its flags, then each permutation argument parsed against them in order,
before the command runs.  Each argument is declared once, in a piece
that ``_COMMANDS`` lists for every command that takes it.

Parsing builds no parser for a well-formed call.  When the first
argument names a subcommand, ``main`` records that subcommand's
arguments from the same pieces (``_Spec``) and ``_quick`` reads the call
from them, accepting it only when every token is a positional, a
declared flag spelled exactly or a value its type takes; it then gives
the Namespace the full tree would.  Anything else (help, ``--flag=value``,
an abbreviation, ``--``, a negative or bad value, a missing or extra
argument, a missing or unknown subcommand) goes to the full tree of
``_build_parser``, which prints the help, usage and errors it always
did.  Nothing is cached: a CLI call is one process, so a cached parser
or spec would still be built once per call.
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
    return Limits(max_n=args.max_group_size)


def _word_limits(args: argparse.Namespace) -> Limits:
    return Limits(args.max_group_size, args.max_word_length,
                  args.max_reduced_words)


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
    ends = [perms.parse_perm(text, limits) for text in spec.split(":", 1)]
    iv = bruhat.interval(*ends) if len(ends) == 2 else bruhat.ideal(*ends)
    return posets.poset_from_interval(iv)


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
    d = structure.decompose(w)
    _print_json(None if d is None
                else structure.nonforcing_witness(w, d, limits).to_json())


def cmd_swapstring(args, limits, x, y) -> None:
    ss = structure.detect_swap_string(x, y)
    out = None
    if ss is not None:
        out = ss.to_json()
        out["t"] = structure.swap_string_factorization(x, y, ss)[3]
    _print_json(out)


def cmd_factorize(args, limits, x, y) -> None:
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


def cmd_forces(args, limits, w) -> None:
    verdict = forcing.forces_factor(
        w,
        args.max_n,
        jobs=args.jobs,
        limits=limits,
    )
    _print_json(verdict.to_json(timing=args.timing))


def _run(name, perm_names, limits_from, args) -> int:
    """The one input step of every subcommand: its caps, then each
    permutation argument in ``perm_names`` parsed against them in order,
    then ``cmd_<name>(args, limits, *permutations)``, which succeeds by
    returning and fails by raising for :func:`report_errors`."""
    limits = limits_from(args)
    parsed = []
    for arg in perm_names:
        parsed.append(perms.parse_perm(getattr(args, arg), limits))
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


# Argument pieces.  Each declares its arguments once; a piece that
# declares permutations returns their names, in order.

def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-group-size", type=_at_least_one, default=Limits.max_n,
        metavar="N",
        help="cap on the symmetric group size (default %(default)s)",
    )


def _perm(p: argparse.ArgumentParser) -> tuple:
    p.add_argument("perm")
    return ("perm",)


def _pair(p: argparse.ArgumentParser) -> tuple:
    p.add_argument("x")
    p.add_argument("y")
    return ("x", "y")


def _dot(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dot", action="store_true",
                   help="print the Hasse diagram as DOT instead of JSON")


def _word_caps(p: argparse.ArgumentParser) -> None:
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


def _eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("word")
    p.add_argument("--n", type=int, default=None,
                   help="ambient group size (default: largest letter + 1)")


def _specs(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec1")
    p.add_argument("spec2")


def _atlas_size(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)


def _max_n(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=None,
                   help="largest ambient group to scan (default w.n + 2)")


def _jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_at_least_one, default=None,
                   help="worker processes, capped at the CPU count; the "
                        "output is identical for every value")


def _timing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timing", action="store_true",
                   help="report real seconds instead of 0.0")


# Each subcommand once: name -> (its argument pieces in order, help), in
# the order --help lists them.  The command ``name`` runs ``cmd_<name>``,
# looked up on every call, so that a wrapper set on that attribute of
# this module is the one called.
_COMMANDS = {
    "words": ((_word_caps, _perm), "list all reduced words of a permutation"),
    "eval": ((_eval,), "evaluate a word of generator letters"),
    "leq": ((_pair,), "is x <= y in the Bruhat order?"),
    "interval": ((_pair, _dot), "the interval [x, y] as JSON or DOT"),
    "ideal": ((_perm, _dot), "the principal order ideal of w"),
    "iso": ((_specs,),
            "poset isomorphism; a spec is 'w' (ideal) or 'x:y' (interval)"),
    "atlas": ((_atlas_size, _jobs, _timing),
              "counts of interval/ideal isomorphism classes per length"),
    "decompose": ((_perm,), "two-block split of a reduced word, if any"),
    "witness": ((_perm,),
                "non-forcing witness interval for a decomposable "
                "permutation"),
    "swapstring": ((_pair,),
                   "the thin monotonic substring separating x from y, "
                   "if any"),
    "factorize": ((_pair,),
                  "reduced words ac of x and abc of y with b a shifted "
                  "reversal word"),
    "forces": ((_perm, _max_n, _jobs, _timing),
               "bounded factor-forcing verdict"),
}


def _fill(p: argparse.ArgumentParser | _Spec, name: str) -> None:
    """A subcommand's arguments, into its parser after its -h or into
    its :class:`_Spec`: the group-size cap, then its pieces; the parsed
    call runs :func:`_run` for the command."""
    _common_args(p)
    pieces = _COMMANDS[name][0]
    perm_names = ()
    for piece in pieces:
        perm_names += piece(p) or ()
    limits_from = _word_limits if _word_caps in pieces else _limits_from
    p.set_defaults(
        func=functools.partial(_run, name, perm_names, limits_from))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatkit",
        description="Bruhat order toolkit: reduced words, intervals, "
                    "poset isomorphism, factor-forcing searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


class _Spec:
    """A subcommand's arguments as :func:`_fill` declares them, recorded
    instead of built into a parser: the positionals in order as (dest,
    type), each flag's option string -> (dest, type), with type None for
    a ``store_true`` flag, the required flags' dests and every other
    default.  It takes only the keywords the pieces use, so that an
    argument :func:`_quick` could read differently from argparse raises
    here."""

    def __init__(self):
        self.positionals: list[tuple] = []
        self.flags: dict[str, tuple] = {}
        self.required: set[str] = set()
        self.defaults: dict = {}

    def add_argument(self, name, *, type=str, default=None, action=None,
                     required=False, metavar=None, help=None):
        if action not in (None, "store_true"):
            raise TypeError(f"unsupported action {action!r}")
        if not name.startswith("-"):
            self.positionals.append((name, type))
            return
        dest = name.lstrip("-").replace("-", "_")
        self.flags[name] = (dest, None if action else type)
        if required:
            self.required.add(dest)
        else:
            self.defaults[dest] = False if action else default

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)


def _quick(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the full tree gives for ``[name, *argv]``, read
    from the subcommand's :class:`_Spec`, or None unless every token is
    a positional, a declared flag spelled exactly or a value that does
    not start with '-' and that the flag's type takes, with every
    positional and required flag given."""
    spec = _Spec()
    _fill(spec, name)
    values = {"command": name, **spec.defaults}
    positionals = iter(spec.positionals)
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            if token not in spec.flags:
                return None
            dest, convert = spec.flags[token]
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
    if (next(positionals, None) is not None
            or not spec.required <= values.keys()):
        return None
    return argparse.Namespace(**values)


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
