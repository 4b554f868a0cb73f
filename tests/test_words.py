import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkit import perms, words
from bruhatkit.limits import CapExceeded, Limits

from oracles import _is_subsequence, brute_force_reduced_words, \
    coxeter_move_neighbors


def P(text):
    return perms.parse_perm(text)


def W(text):
    return words.parse_word(text)


s4_strategy = st.permutations((1, 2, 3, 4)).map(tuple)


@pytest.fixture(scope="module")
def s5_brute_force():
    """R(w) for every w in S_5, by the oracle's exhaustive search."""
    return {
        w: brute_force_reduced_words(w)
        for w in itertools.permutations((1, 2, 3, 4, 5))
    }


class TestEvaluate:
    def test_examples(self):
        assert words.evaluate(W("1213"), 4) == P("3241")
        assert words.evaluate((), 4) == P("1234")
        assert words.evaluate(W("123"), 4) == P("2341")

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            words.evaluate((4,), 4)
        with pytest.raises(ValueError):
            words.evaluate((0,), 4)

    def test_group_size_that_is_not_an_integer_rejected(self):
        with pytest.raises(ValueError, match="invalid group size n=2.0"):
            words.evaluate((1,), 2.0)

    def test_non_reduced_expression(self):
        # a length-6 expression for a length-4 permutation
        assert words.evaluate(W("133231"), 4) == P("3241")


class TestIsReduced:
    def test_examples(self):
        assert words.is_reduced(W("1213"), 4)
        assert not words.is_reduced(W("133231"), 4)
        assert words.is_reduced((), 4)


class TestReducedWords:
    def test_3241(self):
        rws = words.reduced_words(P("3241"))
        assert rws.to_json() == ["1213", "1231", "2123"]
        assert W("1231") in rws
        assert [2, 1, 2, 3] in rws
        assert W("2131") not in rws
        assert W("1232") not in rws
        assert W("123") not in rws
        assert () not in rws
        assert W("12310") not in rws

    def test_12543(self):
        assert words.reduced_words(P("12543")).to_json() == ["343", "434"]

    def test_21543(self):
        expected = sorted(
            ["1343", "3143", "3413", "3431", "1434", "4134", "4314", "4341"]
        )
        assert words.reduced_words(P("21543")).to_json() == expected

    def test_52341(self):
        expected = sorted(
            """1234321 1243421 1423421 4123421 1243241 1423241 4123241
               1243214 1423214 4123214 1432341 4132341 4312341 1432314
               4132314 4312314 1432134 4132134 4312134 4321234""".split()
        )
        got = words.reduced_words(P("52341"))
        assert len(got) == 20
        assert got.to_json() == expected

    def test_identity(self):
        assert words.reduced_words(P("1234")).to_json() == [""]

    @given(s4_strategy)
    @settings(max_examples=24, deadline=None)
    def test_members_evaluate_to_owner(self, w):
        rws = words.reduced_words(w)
        for word in rws:
            assert len(word) == perms.length(w)
            assert words.evaluate(word, len(w)) == w

    @given(s4_strategy)
    @settings(max_examples=24, deadline=None)
    def test_closed_under_coxeter_moves(self, w):
        rws = words.reduced_words(w)
        for word in rws:
            for moved in coxeter_move_neighbors(word):
                assert moved in rws

    def test_length_cap(self):
        with pytest.raises(CapExceeded):
            words.reduced_words(perms.longest(6), Limits(max_word_length=14))

    def test_count_cap(self):
        # |R(4321)| = 16: a cap of 16 holds it all, and 15 raises
        w0 = perms.longest(4)
        assert len(words.reduced_words(w0, Limits(max_reduced_words=16))) == 16
        with pytest.raises(CapExceeded,
                           match=r"^\|R\(w\)\| exceeds the cap "
                                 r"max_reduced_words=15$"):
            words.reduced_words(w0, Limits(max_reduced_words=15))

    def test_count_cap_builds_no_word(self):
        # |R(63281754)| = 3,711,370 is over the default cap of 10^6, while
        # its length 15 is within the length cap: the count raises before
        # a word is built, so the peak stays far below what 10^6 words take
        w = P("63281754")
        assert perms.length(w) == Limits().max_word_length
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded,
                               match=r"max_reduced_words=1000000$"):
                words.reduced_words(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert words.count_reduced_words(w) == 3_711_370

    def test_peak_near_what_the_result_keeps(self):
        # the words of an element are dropped once every element above it
        # has read them; a memo kept whole peaks at about 3.5 times R(w)
        w = P("654213")
        words.reduced_words(w)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rws = words.reduced_words(w)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rws) == 15015
        assert peak - base < 2 * (kept - base)


    def test_peak_of_the_longest_of_s6(self):
        # R(w0_6) is 292,864 words of 15 letters, a text of 4.7 MB, and
        # the fold reads each lower text once more as it appends its
        # copy; a tuple of one string per word peaked at 25.8 MB
        w = perms.longest(6)
        tracemalloc.start()
        try:
            rws = words.reduced_words(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rws) == 292_864
        assert peak < 12 * 2**20


def spell(word):
    return "".join(chr(ord("0") + a) for a in word)


class TestTextFold:
    """R(w) is folded as one text, its spelled words one per line."""

    def test_equals_brute_force_s1_to_s5(self, s5_brute_force):
        groups = [
            {w: brute_force_reduced_words(w)
             for w in itertools.permutations(range(1, n + 1))}
            for n in range(1, 5)
        ]
        for group in groups + [s5_brute_force]:
            for w, expected in group.items():
                got = words.reduced_words(w)
                assert got.text == "\n".join(sorted(map(spell, expected))), w
                assert got.to_text() == "\n".join(got.to_json()), w

    def test_identity_is_one_empty_line(self):
        for n in (1, 4):
            rws = words.reduced_words(perms.identity(n))
            assert rws.text == ""
            assert len(rws) == 1
            assert rws.spelled == ("",)

    def test_len_counts_lines_without_splitting(self):
        long6 = [w for w in perms.all_perms(6) if perms.length(w) == 13]
        assert len(long6) == 14
        for w in long6 + [perms.longest(6)]:
            rws = words.reduced_words(w)
            assert len(rws) == words.count_reduced_words(w), w
            assert "spelled" not in vars(rws), w

    @pytest.mark.parametrize("text,expected", [
        ("2 1 3 4 5 6 7 8 9 10 11", ["1"]),
        ("1 2 3 4 5 6 7 8 10 9 12 11", ["9 11", "11 9"]),
        ("1 2 3 4 5 6 7 8 9 12 11 10", ["10 11 10", "11 10 11"]),
        ("2 1 3 4 5 6 7 8 9 11 12 10", ["1 10 11", "10 1 11", "10 11 1"]),
    ])
    def test_past_s10_words_keep_their_text_form(self, text, expected):
        # letters 10 and up are no digits: each word takes format_word's
        # space-separated form, and the lines keep the order of tuples
        limits = Limits(max_n=12)
        rws = words.reduced_words(perms.parse_perm(text, limits), limits)
        assert rws.to_json() == expected
        assert rws.to_text() == "\n".join(expected)


class TestSpelled:
    def test_equals_brute_force_s5(self, s5_brute_force):
        for w, expected in s5_brute_force.items():
            got = words.reduced_words(w)
            assert got.words == tuple(sorted(expected)), w
            assert tuple(got) == got.words, w
            assert got.to_json() == [words.format_word(t) for t in got.words]

    def test_letters_outside_the_alphabet(self):
        rws = words.reduced_words(P("3241"))
        for word in [(0, 2, 1, 3), (-1, 2, 1, 3), (1, 2, 1, 4),
                     (1, 2, 1, 2**40), (2**40,)]:
            assert word not in rws

    def test_non_integer_letters_raise(self):
        with pytest.raises(TypeError):
            "1213" in words.reduced_words(P("3241"))


class TestCountReducedWords:
    def test_equals_brute_force_s5(self, s5_brute_force):
        for w, expected in s5_brute_force.items():
            assert words.count_reduced_words(w) == len(expected), w


class TestBruteForceCrossCheck:
    @pytest.mark.parametrize("n,count", [(3, 2), (4, 16)])
    def test_longest_counts_and_sets(self, n, count):
        expected = brute_force_reduced_words(perms.longest(n))
        got = words.reduced_words(perms.longest(n))
        assert got.words == tuple(sorted(expected))
        assert len(got) == count
        assert all(word in got for word in expected)
        first = got.words[0]
        assert first[:-1] not in got
        assert (1,) * len(first) not in got

    def test_longest_count_s5(self):
        assert len(brute_force_reduced_words(perms.longest(5))) == 768
        assert len(words.reduced_words(perms.longest(5))) == 768


class TestIterReducedWords:
    @given(s4_strategy)
    @settings(max_examples=24, deadline=None)
    def test_lazy_agrees_with_set_and_is_sorted(self, w):
        lazy = tuple(words.iter_reduced_words(w))
        assert lazy == tuple(sorted(lazy))
        assert lazy == words.reduced_words(w).words

    def test_agrees_with_reduced_words_on_s5(self):
        for w in itertools.permutations(range(1, 6)):
            assert tuple(words.iter_reduced_words(w)) == (
                words.reduced_words(w).words), w

    def test_first_word_is_reached_lazily(self):
        # R(w) of the reversal of S_6 holds 292,864 words; the walk to
        # the first holds the weak-order table of its 720 elements and
        # one path down it, not R(w)
        w = perms.longest(6)
        tracemalloc.start()
        try:
            first = next(words.iter_reduced_words(w))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == words.lex_least_reduced_word(w)
        assert peak < 2_000_000

    def test_dropped_walk_frees_its_table(self):
        # with the collector off, only reference counts free the walk: a
        # generator whose closure held itself kept the 720-entry table of
        # S_6, about 333 KB, until gc.collect()
        w = perms.longest(6)
        next(words.iter_reduced_words(w))
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            walk = words.iter_reduced_words(w)
            next(walk)
            del walk
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert kept < 10_000

    def test_lex_least(self, s5_brute_force):
        for w, expected in s5_brute_force.items():
            assert words.lex_least_reduced_word(w) == min(expected), w


class TestShift:
    def test_examples(self):
        assert words.shift((5, -1, 0), 4) == (9, 3, 4)
        assert words.shift((5, -1, 0), -4) == (1, -5, -4)
        assert words.shift(W("1213"), 0) == W("1213")

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), max_size=8),
        st.integers(min_value=-20, max_value=20),
    )
    def test_round_trip(self, letters, t):
        word = tuple(letters)
        assert words.shift(words.shift(word, t), -t) == word


class TestIsSubword:
    """The subsequence test behind ``oracles.subword_oracle_leq``."""

    def test_examples(self):
        assert _is_subsequence(W("2"), W("123"))
        assert _is_subsequence((), W("1213"))
        assert not _is_subsequence(W("21"), W("12"))

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=6))
    def test_reflexive_and_prefix(self, letters):
        word = tuple(letters)
        assert _is_subsequence(word, word)
        assert _is_subsequence(word[:3], word)


class TestText:
    def test_round_trip(self):
        for text in ("", "1213", "1 -5 -4", "9 3 4"):
            assert words.format_word(words.parse_word(text)) in (
                text,
                text.replace(" ", ""),
            )

    def test_single_digit_concatenation(self):
        assert words.format_word((9, 3, 4)) == "934"
        assert words.parse_word("934") == (9, 3, 4)
        assert words.format_word((11, 2)) == "11 2"
