import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkit import perms, words
from bruhatkit.limits import CapExceeded, Limits

from oracles import brute_force_reduced_words, coxeter_move_neighbors


def P(text):
    return perms.parse_perm(text)


def W(text):
    return words.parse_word(text)


s4_strategy = st.permutations((1, 2, 3, 4)).map(tuple)


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
        with pytest.raises(CapExceeded):
            words.reduced_words(perms.longest(4), Limits(max_reduced_words=15))


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

    def test_lex_least(self):
        for w in itertools.permutations((1, 2, 3, 4)):
            assert words.lex_least_reduced_word(w) == min(
                words.reduced_words(w).words
            )


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


class TestDeleteFactor:
    def test_examples(self):
        assert words.delete_factor(W("1213"), 1, 2) == W("13")
        assert words.delete_factor(W("1213"), 0, 4) == ()
        assert words.delete_factor(W("123"), 0, 1) == W("23")

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            words.delete_factor(W("123"), 2, 2)
        with pytest.raises(ValueError):
            words.delete_factor(W("123"), -1, 1)


class TestIsSubword:
    def test_examples(self):
        assert words.is_subword(W("2"), W("123"))
        assert words.is_subword((), W("1213"))
        assert not words.is_subword(W("21"), W("12"))

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=6))
    def test_reflexive_and_prefix(self, letters):
        word = tuple(letters)
        assert words.is_subword(word, word)
        assert words.is_subword(word[:3], word)


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
