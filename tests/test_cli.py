import argparse
import itertools
import json
import os
import subprocess
import sys
import types

import pytest

from bruhatkit import bruhat, cli, forcing, perms, posets, words
from bruhatkit.cli import main
from bruhatkit.limits import Limits

from oracles import (
    backtracking_isomorphic,
    bubble_sort_word,
    brute_force_reduced_words,
    deletion_oracle,
    is_reduced_word_of,
    reduced_subword_closure,
    subword_oracle_leq,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse9(text):
    return perms.parse_perm(text, Limits(max_n=9))


class TestWords:
    def test_sorted_output(self, capsys):
        code, out, _ = run(capsys, "words", "3241")
        assert code == 0
        assert out == "1213\n1231\n2123\n"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "words", "1234")
        assert code == 0
        assert out == "\n"

    @staticmethod
    def expected(w):
        return "".join(words.format_word(t) + "\n"
                       for t in sorted(brute_force_reduced_words(w)))

    def test_s4_equals_brute_force(self, capsys):
        for w in [*itertools.permutations((1, 2, 3, 4)), (1,)]:
            code, out, _ = run(capsys, "words", perms.format_perm(w))
            assert (code, out) == (0, self.expected(w)), w

    @pytest.mark.parametrize("text,lines", [
        ("1 2 3 4 5 6 7 8 11 10 9 12", ["9 10 9", "10 9 10"]),
        ("2 1 3 4 5 6 7 8 9 11 10 12", ["1 10", "10 1"]),
        ("2 3 1 4 5 6 7 8 9 10 11 12", ["12"]),
    ])
    def test_letters_past_nine(self, capsys, text, lines):
        # past S_10 a word prints run together only when every letter is
        # one digit
        code, out, _ = run(capsys, "words", text, "--max-group-size", "12")
        assert code == 0
        assert out == "".join(line + "\n" for line in lines)
        assert out == self.expected(perms.parse_perm(text, Limits(max_n=12)))


class TestEval:
    def test_with_n(self, capsys):
        code, out, _ = run(capsys, "eval", "1213", "--n", "4")
        assert (code, out) == (0, "3241\n")

    def test_inferred_n(self, capsys):
        code, out, _ = run(capsys, "eval", "123")
        assert (code, out) == (0, "2341\n")


class TestLeq:
    def test_true(self, capsys):
        assert run(capsys, "leq", "1324", "2341")[:2] == (0, "true\n")

    def test_false(self, capsys):
        assert run(capsys, "leq", "2341", "4123")[:2] == (0, "false\n")

    def test_mixed_sizes_embed(self, capsys):
        assert run(capsys, "leq", "21", "321")[:2] == (0, "true\n")


class TestInterval:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "interval", "2143", "4231")
        assert code == 0
        data = json.loads(out)
        assert len(data["elements"]) == 10
        assert data["low"] == "2143"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "interval", "2143", "4231", "--dot")
        assert code == 0
        assert out.startswith("digraph poset {")
        assert out.count("->") == 16

    def test_incomparable_is_usage_error(self, capsys):
        code, _, err = run(capsys, "interval", "2341", "4123")
        assert code == 2
        assert "error" in err


class TestIdeal:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "ideal", "2314")
        data = json.loads(out)
        assert (code, data["low"], len(data["elements"])) == (0, "1234", 4)


class TestIso:
    def test_ideal_vs_interval(self, capsys):
        assert run(capsys, "iso", "3412", "12543:52341")[:2] == (0, "true\n")

    def test_negative(self, capsys):
        assert run(capsys, "iso", "2143:4231", "4213")[:2] == (0, "false\n")

    @pytest.mark.parametrize("spec", ["12:21:21", "1:1:1", "12::21", "::"])
    def test_spec_with_more_than_one_colon_is_refused(self, capsys, spec):
        # one error line naming the spec's two forms, on either side
        for argv in (("iso", spec, "1"), ("iso", "1", spec)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: cannot parse poset {spec!r}: a spec is "
                           "'w' or 'x:y'\n")


class TestAtlas:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "atlas", "--n", "2", "--max-len", "1")
        data = json.loads(out)
        assert code == 0
        assert data["rows"] == [
            {"length": 0, "intervals": 1, "ideals": 1},
            {"length": 1, "intervals": 1, "ideals": 1},
        ]
        assert data["stats"]["seconds"] == 0.0

    def test_s8_runs(self, capsys):
        code, out, _ = run(capsys, "atlas", "--n", "8", "--max-len", "1")
        assert code == 0
        assert json.loads(out)["rows"][1] == {
            "length": 1, "intervals": 1, "ideals": 1,
        }


class TestAtlasJobs:
    def test_byte_stable_across_jobs(self, capsys):
        _, seq, _ = run(capsys, "atlas", "--n", "4", "--max-len", "4")
        _, par, _ = run(
            capsys, "atlas", "--n", "4", "--max-len", "4", "--jobs", "2"
        )
        assert seq == par


class TestJobsUnderSpawn:
    # spawn, the default start method on macOS and Windows, pickles all
    # that crosses to a worker; the CPU count is fixed at two so that two
    # workers start on any machine
    SCRIPT = (
        "import multiprocessing, os, sys\n"
        "from bruhatkit.cli import main\n"
        "multiprocessing.set_start_method('spawn')\n"
        "os.cpu_count = lambda: 2\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("argv", [
        ("forces", "2314", "--max-n", "4"),
        ("atlas", "--n", "4", "--max-len", "4"),
    ])
    def test_byte_stable_across_jobs(self, argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def stdout(*args):
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, *args],
                capture_output=True, env=env, check=True, timeout=120,
            )
            return done.stdout

        assert stdout(*argv, "--jobs", "2") == stdout(*argv)


class TestStructureCommands:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "2314")
        assert json.loads(out) == {
            "m": 1,
            "a1": "1",
            "a2": "2",
            "side": "left",
        }

    def test_decompose_absent(self, capsys):
        code, out, _ = run(capsys, "decompose", "3412")
        assert (code, json.loads(out)) == (0, None)

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "2314")
        data = json.loads(out)
        assert data == {
            "w": "2314",
            "w_minus": "1324",
            "w_plus": "2341",
            "word": "123",
            "k1": 1,
            "k2": 2,
        }

    def test_witness_indecomposable(self, capsys):
        code, out, _ = run(capsys, "witness", "3412")
        assert (code, json.loads(out)) == (0, None)

    def test_decompose_past_word_caps(self, capsys):
        # length 22 and |R(w)| far past both reduced-word caps: decompose
        # enumerates no reduced words, so only the group size is capped
        code, out, _ = run(capsys, "decompose", "76543281")
        data = json.loads(out)
        assert (code, data["m"], data["side"]) == (0, 6, "left")
        assert data["a1"] + data["a2"] == "1213214321543216543217"

    def test_decompose_w0_past_word_caps(self, capsys):
        code, out, _ = run(capsys, "decompose", "87654321")
        assert (code, out) == (0, "null\n")

    def test_witness_past_word_caps(self, capsys):
        code, out, _ = run(capsys, "witness", "6543271")
        assert code == 0
        data = json.loads(out)
        w = perms.parse_perm("6543271")
        w_minus = perms.parse_perm(data["w_minus"])
        w_plus = perms.parse_perm(data["w_plus"])
        assert is_reduced_word_of(words.parse_word(data["word"]), w_plus)
        assert posets.is_isomorphic(bruhat.interval(w_minus, w_plus),
                                    bruhat.ideal(w))
        assert forcing.factor_deletion(w_minus, w_plus) is None

    def test_witness_of_s8_input_hits_group_size_cap(self, capsys):
        # the witness of an S_8 element lives in S_9
        code, _, err = run(capsys, "witness", "76543281")
        assert code == 1
        assert "max_n=8" in err
        # a raised cap lets it through
        assert run(capsys, "witness", "21436587")[0] == 1
        code, out, _ = run(capsys, "witness", "21436587",
                           "--max-group-size", "9")
        data = json.loads(out)
        lo, hi = parse9(data["w_minus"]), parse9(data["w_plus"])
        assert (code, len(hi)) == (0, 9)
        assert is_reduced_word_of(words.parse_word(data["word"]), hi)
        assert backtracking_isomorphic(
            bruhat.interval(lo, hi),
            bruhat.ideal(perms.parse_perm("21436587")))

    def test_swapstring(self, capsys):
        code, out, _ = run(capsys, "swapstring", "1243", "4213")
        data = json.loads(out)
        assert data == {
            "positions": [1, 2, 3],
            "values": [1, 2, 4],
            "k": 3,
            "t": 0,
        }

    def test_swapstring_absent(self, capsys):
        code, out, _ = run(capsys, "swapstring", "12543", "52341")
        assert (code, json.loads(out)) == (0, None)

    def test_factorize(self, capsys):
        code, out, _ = run(capsys, "factorize", "1243", "4213")
        data = json.loads(out)
        assert code == 0
        assert data["b"] == "121"
        assert data["t"] == 0

    def test_factorize_without_swap_string(self, capsys):
        code, _, err = run(capsys, "factorize", "12543", "52341")
        assert code == 2


class TestRaisedGroupSize:
    """S_9 inputs: answered with --max-group-size 9 and checked against
    the oracles, refused at the default cap."""

    CALLS = [
        ["interval", "213456789", "231546789"],
        ["ideal", "213465789"],
        ["iso", "213465789", "2143"],
        ["iso", "213465789", "123456789:321456789"],
        ["witness", "213465789"],
        ["words", "123456789"],
        ["eval", "1", "--n", "9"],
        ["leq", "123456789", "21"],
        ["atlas", "--n", "9", "--max-len", "1"],
        ["decompose", "123456789"],
        ["swapstring", "213456789", "231546789"],
        ["factorize", "21", "123456789"],
        ["forces", "21", "--max-n", "9"],
    ]

    @pytest.mark.parametrize("argv", CALLS)
    def test_default_cap_refuses(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("error: group size n=9 exceeds the configured cap "
                       "max_n=8\n")

    def test_every_command_is_refused(self):
        # a new subcommand gets a call here, so that it cannot skip the
        # input step that holds its arguments to the cap
        assert {argv[0] for argv in self.CALLS} == set(cli._COMMANDS)

    def answer(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--max-group-size", "9")
        assert (code, err) == (0, "")
        return out

    def test_interval(self, capsys):
        x, y = parse9("213456789"), parse9("231546789")
        data = json.loads(self.answer(capsys, self.CALLS[0]))
        below_y = reduced_subword_closure(bubble_sort_word(y), 9)
        expected = {z for z in below_y if subword_oracle_leq(x, z)}
        assert {parse9(z) for z in data["elements"]} == expected
        assert {(parse9(a), parse9(b)) for a, b in data["covers"]} == {
            (a, b) for a in expected for b in expected
            if perms.length(b) == perms.length(a) + 1
            and subword_oracle_leq(a, b)
        }

    def test_ideal(self, capsys):
        w = parse9("213465789")
        data = json.loads(self.answer(capsys, self.CALLS[1]))
        assert {parse9(z) for z in data["elements"]} == (
            reduced_subword_closure(bubble_sort_word(w), 9))

    @pytest.mark.parametrize("argv", CALLS[2:4])
    def test_iso(self, capsys, argv):
        spec = argv[2].split(":")
        other = (bruhat.interval(parse9(spec[0]), parse9(spec[1]))
                 if len(spec) == 2 else bruhat.ideal(parse9(spec[0])))
        expected = backtracking_isomorphic(
            bruhat.ideal(parse9(argv[1])), other)
        out = self.answer(capsys, argv)
        assert out == ("true\n" if expected else "false\n")

    def test_witness(self, capsys):
        w = parse9("213465789")
        data = json.loads(self.answer(capsys, self.CALLS[4]))
        lo, hi = parse9(data["w_minus"]), parse9(data["w_plus"])
        assert is_reduced_word_of(words.parse_word(data["word"]), hi)
        assert backtracking_isomorphic(bruhat.interval(lo, hi),
                                       bruhat.ideal(w))
        # the word uses letters 1..6 only, so no deletion exists in S_9
        # exactly when none exists in S_7
        assert lo[7:] == hi[7:] == (8, 9)
        assert not deletion_oracle(lo[:7], hi[:7])


class TestForces:
    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "forces", "2314", "--max-n", "4")
        data = json.loads(out)
        assert code == 0
        assert data["outcome"] == "counterexample"
        assert data["counterexample"] == {"x": "1324", "y": "2341", "m": 4}

    def test_no_counterexample_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "forces", "21", "--max-n", "4")
        data = json.loads(out)
        assert code == 0
        assert data["outcome"] == "no-counterexample-up-to-bound"

    def test_byte_stable_across_jobs(self, capsys):
        _, seq, _ = run(capsys, "forces", "2314", "--max-n", "4")
        _, par, _ = run(
            capsys, "forces", "2314", "--max-n", "4", "--jobs", "2"
        )
        assert seq == par

    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, "forces", "321", "--max-n", "4")
        _, second, _ = run(capsys, "forces", "321", "--max-n", "4")
        assert first == second


class TestClosedStdout:
    # a reader that stops after one line, as ``| head -1`` does; stdout is
    # unbuffered, so the survey writes each line as it is decided and
    # meets the closed pipe on the next one
    @pytest.mark.parametrize("argv", [
        ("-m", "bruhatkit.cli", "words", "654321"),
        (os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "forcing_survey.py"),
         "--n", "4", "--max-m", "6"),
    ])
    def test_exits_1_with_nothing_on_stderr(self, argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONUNBUFFERED="1")
        with subprocess.Popen([sys.executable, *argv], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            assert child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=120) == 1
        assert err == b""


class TestExitCodes:
    def test_usage_error(self, capsys):
        for argv in (
            ["no-such-command"],
            ["forces", "2143", "--max-n", "4", "--jobs", "-2"],
            ["atlas", "--n", "3", "--max-len", "2", "--jobs", "-1"],
            ["forces", "2314", "--use-symmetry"],
            ["words", "21", "--max-group-size", "-1"],
            ["words", "21", "--max-word-length", "0"],
            ["words", "21", "--max-reduced-words", "0"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_bad_permutation(self, capsys):
        code, _, err = run(capsys, "words", "1224")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "words", "54321", "--max-reduced-words", "5"
        )
        assert code == 1
        assert "cap" in err or "exceeds" in err

    def test_group_size_cap(self, capsys):
        code, _, err = run(capsys, "words", "123456789")
        assert code == 1


# the arguments of one well-formed call of each command
QUERIES = {
    "words": ["3241"],
    "eval": ["1213", "--n", "4"],
    "leq": ["2143", "4321"],
    "interval": ["2143", "4231"],
    "ideal": ["2314", "--dot"],
    "iso": ["3412", "12543:52341"],
    "atlas": ["--n", "3", "--max-len", "2"],
    "decompose": ["2314"],
    "witness": ["2314"],
    "swapstring": ["1243", "4213"],
    "factorize": ["1243", "4213"],
    "forces": ["2314", "--max-n", "4"],
}


def outcome(capsys, call, argv):
    """stdout, stderr and how the call ended: returned or exited, and
    with which code."""
    try:
        end = ("returned", call(argv))
    except SystemExit as exc:
        end = ("exited", exc.code)
    out = capsys.readouterr()
    return end, out.out, out.err


def full_parser(argv):
    args = cli._build_parser().parse_args(argv)
    return cli.report_errors(args.func, args)


def declared_entries():
    """Every (option string, keywords) entry of ``_COMMON`` and of each
    piece of ``_COMMANDS``."""
    pieces = [cli._COMMON, *(piece for pieces, _ in cli._COMMANDS.values()
                             for piece in pieces)]
    return list(itertools.chain.from_iterable(pieces))


def check_table(entries):
    """Raise TypeError on an entry that ``_quick`` would read otherwise
    than argparse does: a second option string, nargs or an action other
    than store_true."""
    allowed = {"type", "default", "required", "metavar", "help", "action"}
    for entry in entries:
        if len(entry) != 2:
            raise TypeError(f"not one option string: {entry!r}")
        option, keywords = entry
        if not isinstance(option, str) or not isinstance(keywords, dict):
            raise TypeError(f"not (option, keywords): {entry!r}")
        if not keywords.keys() <= allowed:
            raise TypeError(f"keywords _quick does not read: {entry!r}")
        if keywords.get("action", "store_true") != "store_true":
            raise TypeError(f"action other than store_true: {entry!r}")


def spec_of(name):
    """The positionals of ``name``, each flag -> (dest, type or None for
    a store_true flag) and the required flags' dests, read from the
    table."""
    spec = types.SimpleNamespace(positionals=[], flags={}, required=set())
    pieces = (cli._COMMON, *cli._COMMANDS[name][0])
    for option, keywords in itertools.chain.from_iterable(pieces):
        if not option.startswith("-"):
            spec.positionals.append(option)
            continue
        dest = option.lstrip("-").replace("-", "_")
        spec.flags[option] = (dest, None if "action" in keywords
                              else keywords.get("type", str))
        if keywords.get("required"):
            spec.required.add(dest)
    return spec


def accepted_calls(name):
    """Well-formed calls of ``name`` after the name: each optional flag
    given or left out, a valued flag given twice, each store_true flag
    given twice, and each call's tokens in three orders."""
    spec = spec_of(name)
    # a value of its own for each flag, so that no two dests can swap
    units = {flag: [flag] if convert is None else [flag, str(value)]
             for value, (flag, (_, convert))
             in enumerate(spec.flags.items(), 3)}
    base = [[value] for value in ("2143", "4321")[:len(spec.positionals)]]
    optional = []
    for flag, (dest, _) in spec.flags.items():
        (base if dest in spec.required else optional).append(units[flag])
    calls = [base, base + optional]
    for unit in optional:
        twice = [unit[0], "2"] if len(unit) == 2 else unit
        calls += [base + [unit], base + [twice, unit]]
    for call in calls:
        for order in (call, call[::-1], call[1:] + call[:1]):
            yield list(itertools.chain.from_iterable(order))


def comparable(args):
    """``vars(args)`` with its ``func`` partial as its callee and
    arguments, since partials compare by identity."""
    values = dict(vars(args))
    func = values.pop("func")
    return values, func.func, func.args, func.keywords


class TestParsing:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_fast_path_equals_full_parser(self, capsys, name):
        query = [name, *QUERIES[name]]
        for argv in (
            [name, "--help"],
            [name],
            query,
            [*query, "extra", "more"],
            [*query, "--bogus"],
            [*query, "--max-group-size"],
            [*query, "--max-word-length", "x"],
        ):
            assert outcome(capsys, main, argv) == outcome(
                capsys, full_parser, argv
            ), argv

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["no-such-command"], ["--", "leq", "12", "21"],
    ])
    def test_top_level_equals_full_parser(self, capsys, argv):
        assert outcome(capsys, main, argv) == outcome(
            capsys, full_parser, argv
        )

    def test_one_parser_per_well_formed_call(self, capsys, monkeypatch):
        init = argparse.ArgumentParser.__init__
        made = []

        def counting(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "leq", "2143", "4321")[:2] == (0, "true\n")
        assert made == []
        # a refused call builds the full tree and nothing else
        assert run(capsys, "leq", "--max-g", "8", "2143", "4321")[:2] == (
            0, "true\n")
        assert made == ["bruhatkit", *(f"bruhatkit {name}"
                                       for name in cli._COMMANDS)]

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_quick_parse_equals_full_parser(self, name):
        full = cli._build_parser()
        for argv in accepted_calls(name):
            quick = cli._quick(name, argv)
            assert quick is not None, argv
            assert comparable(quick) == comparable(
                full.parse_args([name, *argv])), argv

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_refused_calls_equal_full_parser(self, capsys, name):
        query = QUERIES[name]
        spec = spec_of(name)
        refused = [[*query, "-h"], [*query, "--max-g", "9"], ["--", *query],
                   query[1:], [*query, "extra"]]
        for flag, (dest, convert) in spec.flags.items():
            if dest in spec.required:
                at = query.index(flag)
                refused.append(query[:at] + query[at + 2:])
            if convert is not None:
                refused += [[*query, f"{flag}=1"], [*query, flag, "-3"],
                            [*query, flag, "x"], [*query, flag]]
        for argv in refused:
            assert cli._quick(name, argv) is None, argv
            argv = [name, *argv]
            assert outcome(capsys, main, argv) == outcome(
                capsys, full_parser, argv
            ), argv

    def test_table_holds_only_what_the_quick_parse_reads(self):
        check_table(declared_entries())

    @pytest.mark.parametrize("declare", [
        lambda table: table.append(("--k", {"nargs": 2})),
        lambda table: table.append(("--k", {"action": "append"})),
        lambda table: table.append(("-k", "--k", {})),
    ])
    def test_spec_rejects_arguments_it_cannot_read(self, declare):
        table = declared_entries()
        declare(table)
        with pytest.raises(TypeError):
            check_table(table)

    @pytest.mark.parametrize("argv", [["leq", "12", "21"],
                                      ["leq", "2143", "4321"]])
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, argv):
        # the installed entry point calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["bruhatkit", *argv])
        assert (main(), capsys.readouterr().out) == (0, "true\n")

    def test_console_script_help(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bruhatkit", "--help"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bruhatkit ")


WORD_CAPS = ("--max-word-length", "--max-reduced-words")


class TestCapFlags:
    # the reduced-word caps belong to 'words', the one command that
    # enumerates R(w); every command takes the group-size cap
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_help_lists_the_caps_of_the_command(self, capsys, name):
        with pytest.raises(SystemExit) as info:
            main([name, "--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert "--max-group-size" in out
        for flag in WORD_CAPS:
            assert (flag in out) == (name == "words"), flag

    @pytest.mark.parametrize("flag", WORD_CAPS)
    @pytest.mark.parametrize(
        "name", [name for name in cli._COMMANDS if name != "words"])
    def test_word_caps_elsewhere_are_usage_errors(self, capsys, name, flag):
        with pytest.raises(SystemExit) as info:
            main([name, *QUERIES[name], flag, "3"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["forces", "atlas"])
    def test_default_word_caps_still_echoed(self, capsys, name):
        code, out, _ = run(capsys, name, *QUERIES[name])
        assert code == 0
        assert '"max_word_length": 15' in out
        assert '"max_reduced_words": 1000000' in out


def run_script(script, *argv):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "scripts", script)
    return subprocess.run(
        [sys.executable, path, *argv],
        capture_output=True, text=True, timeout=120,
    )


class TestScripts:
    @pytest.mark.parametrize("script", ["run_atlas.py", "forcing_survey.py"])
    def test_jobs_below_one_is_a_usage_error(self, script):
        done = run_script(script, "--jobs", "0")
        assert done.returncode == 2
        assert "argument --jobs: must be at least 1, got 0" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv,code,message", [
        (["run_atlas.py", "--min-n", "2", "--max-n", "2", "--max-len", "-1"],
         2, "max_len must be nonnegative"),
        (["run_atlas.py", "--min-n", "9", "--max-n", "9", "--max-len", "1"],
         1, "group size n=9 exceeds the configured cap max_n=8"),
        (["forcing_survey.py", "--n", "2", "--max-m", "1"],
         2, "m_max=1 is below the group size 2"),
    ])
    def test_errors_end_in_one_line(self, argv, code, message):
        # as bruhatkit does: exit 2 for a bad value, 1 for a cap exceeded
        done = run_script(*argv)
        assert done.returncode == code
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["run_atlas.py", "--min-n", "5", "--max-n", "5",
          "--max-group-size", "4"],
         "group size n=5 exceeds the configured cap max_n=4"),
        (["forcing_survey.py", "--n", "2", "--max-m", "3",
          "--max-group-size", "2"],
         "group size n=3 exceeds the configured cap max_n=2"),
    ])
    def test_group_size_cap_is_a_flag(self, argv, message):
        # the scripts take the cap as bruhatkit does and pass it on: the
        # survey's m_max is held to it, not only its n
        done = run_script(*argv)
        assert done.returncode == 1
        assert done.stderr == f"error: {message}\n"

    def test_raised_group_size_cap_reaches_s9(self):
        done = run_script("run_atlas.py", "--min-n", "9", "--max-n", "9",
                          "--max-len", "0", "--max-group-size", "9")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(
            "n=9: intervals [1]  ideals [1]  (0 intervals examined, ")
