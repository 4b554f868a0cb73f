import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruhatkit import perms, words
from bruhatkit.limits import CapExceeded, Limits
from oracles import (
    _value_inversions, position_inversions_oracle, symmetries_oracle)


def P(text):
    return perms.parse_perm(text)


def reflection(i, n):
    """The simple reflection s_i of S_n, the one-letter word evaluated."""
    return words.evaluate((i,), n)


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


class TestConstruction:
    def test_identity(self):
        assert perms.identity(4) == (1, 2, 3, 4)
        assert perms.identity(1) == (1,)
        assert perms.identity(5) == (1, 2, 3, 4, 5)
        assert perms.length(perms.identity(4)) == 0

    def test_identity_rejects_zero(self):
        with pytest.raises(ValueError):
            perms.identity(0)

    def test_longest(self):
        assert perms.longest(4) == (4, 3, 2, 1)
        assert perms.length(perms.longest(4)) == 6
        assert perms.longest(2) == (2, 1)
        assert perms.length(perms.longest(2)) == 1
        assert perms.longest(3) == (3, 2, 1)
        assert perms.length(perms.longest(3)) == 3

    def test_longest_rejects_zero(self):
        with pytest.raises(ValueError):
            perms.longest(0)

    @pytest.mark.parametrize("build,n", [
        (perms.all_perms, 3.0), (perms.identity, 2.0), (perms.identity, True),
    ])
    def test_group_size_that_is_not_an_integer_rejected(self, build, n):
        # refused by name, as jobs=2.0 is, instead of reaching range()
        with pytest.raises(ValueError,
                           match=f"^invalid group size n={n}; need n >= 1$"):
            build(n)

    def test_group_size_cap(self):
        # the cap is checked where input enters; the builders take none
        nine, raised = tuple(range(1, 10)), Limits(max_n=9)
        for enter, arg in ((perms.make_perm, nine),
                           (perms.parse_perm, "123456789")):
            with pytest.raises(CapExceeded, match="max_n=8"):
                enter(arg)
            assert enter(arg, raised) == nine
        with pytest.raises(CapExceeded, match="max_n=8"):
            perms.all_perms(9)
        assert next(perms.all_perms(9, raised)) == nine
        assert perms.identity(9) == nine
        assert perms.longest(9) == nine[::-1]
        assert perms.embed(nine, 10) == nine + (10,)

    @pytest.mark.parametrize(
        "field", ["max_n", "max_word_length", "max_reduced_words"])
    @pytest.mark.parametrize("value", [0, -1, 2.0, "8", True])
    def test_limits_reject_a_cap_that_is_not_a_count(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer "
                                             f"of at least 1, got "):
            Limits(**{field: value})
        assert getattr(Limits(**{field: 1}), field) == 1

    def test_make_perm_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            perms.make_perm((1, 1, 3))
        with pytest.raises(ValueError):
            perms.make_perm((0, 1, 2))

    @pytest.mark.parametrize("entries,bad", [
        ([2.0, 1.0], "2.0"), ([True, 2], "True"),
    ])
    def test_make_perm_rejects_entries_that_are_not_integers(
            self, entries, bad):
        # 2.0 and True pass the bijection check as 2 and 1 would, and
        # format_perm would print (2.0, 1.0) as 2.01.0
        with pytest.raises(ValueError, match=f"got {bad}$"):
            perms.make_perm(entries)


class TestApply:
    """The product convention of ``compose``: s_i w interchanges the
    positions of the values i and i+1, and w s_i the values in positions
    i and i+1."""

    def test_apply_left_examples(self):
        assert perms.compose(reflection(1, 4), P("3241")) == P("3142")
        assert perms.compose(reflection(1, 4), P("1234")) == P("2134")
        got = perms.compose(reflection(3, 4), P("4321"))
        assert got == P("3421")
        assert perms.length(got) == 5

    def test_apply_right_examples(self):
        assert perms.compose(P("3241"), reflection(1, 4)) == P("2341")
        assert perms.compose(P("1234"), reflection(2, 4)) == P("1324")
        assert perms.compose(P("4321"), reflection(1, 4)) == P("3421")

    def test_index_out_of_range(self):
        # no s_4 or s_0 in S_4
        with pytest.raises(ValueError):
            reflection(4, 4)
        with pytest.raises(ValueError):
            reflection(0, 4)

    @given(perm_strategy, st.integers(min_value=1, max_value=5))
    def test_involutive_and_length_step(self, w, i):
        if i >= len(w):
            return
        si = reflection(i, len(w))
        for moved in (perms.compose(si, w), perms.compose(w, si)):
            assert abs(perms.length(moved) - perms.length(w)) == 1
        assert perms.compose(si, perms.compose(si, w)) == w
        assert perms.compose(perms.compose(w, si), si) == w


class TestCompose:
    def test_pinned_convention(self):
        # the word 1 2 1 3 evaluates to 3241 as an iterated product
        prod = perms.identity(4)
        for i in (1, 2, 1, 3):
            prod = perms.compose(prod, reflection(i, 4))
        assert prod == P("3241")

    def test_identity_and_involution(self):
        w = P("2413")
        assert perms.compose(w, perms.identity(4)) == w
        assert perms.compose(perms.identity(4), w) == w
        assert perms.compose(P("4321"), P("4321")) == P("1234")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            perms.compose(P("21"), P("321"))

    @given(perm_strategy)
    def test_inverse(self, w):
        assert perms.compose(w, perms.inverse(w)) == perms.identity(len(w))


class TestInversions:
    def test_examples(self):
        assert perms.length(P("1234")) == 0
        assert perms.length(P("321")) == 3
        assert perms.length(P("3241")) == 4

    @given(perm_strategy)
    def test_length_counts_inversions(self, w):
        # the oracles count length as value inversions
        assert perms.length(w) == len(_value_inversions(w))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_length_counts_inverted_pairs(self, n):
        # the popcount sum against a comparison of every pair
        for w in perms.all_perms(n):
            assert perms.length(w) == len(position_inversions_oracle(w)), w


class TestCoxeterRelations:
    """The braid and commutation relations of the words that
    ``evaluate`` multiplies out, after a reduced word of w."""

    @given(perm_strategy)
    def test_braid(self, w):
        n = len(w)
        word = words.lex_least_reduced_word(w)
        for i in range(1, n - 1):
            assert words.evaluate(word + (i, i + 1, i), n) == \
                words.evaluate(word + (i + 1, i, i + 1), n)

    @given(perm_strategy)
    def test_commutation(self, w):
        n = len(w)
        word = words.lex_least_reduced_word(w)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert words.evaluate(word + (i, j), n) == \
                    words.evaluate(word + (j, i), n)


class TestEmbed:
    def test_examples(self):
        assert perms.embed(P("3412"), 5) == P("34125")
        assert perms.embed(P("21"), 4) == P("2134")
        assert perms.embed(P("3412"), 4) == P("3412")

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            perms.embed(P("3412"), 3)

    @given(perm_strategy, st.integers(min_value=0, max_value=2))
    def test_preserves_inversions(self, w, extra):
        bigger = perms.embed(w, len(w) + extra)
        assert perms.length(bigger) == perms.length(w)
        assert position_inversions_oracle(bigger) == \
            position_inversions_oracle(w)


class TestOrbitExtreme:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_four_image_filter(self, n):
        # the first-entry screen and the early exit keep the filters of
        # the forcing scan (least) and of the atlas (greatest)
        for w in perms.all_perms(n):
            images = (w, *symmetries_oracle(w))
            assert perms.is_orbit_extreme(w) == (w == min(images)), w
            assert perms.is_orbit_extreme(w, greatest=True) == (
                w == max(images)), w


class TestText:
    def test_format(self):
        assert perms.format_perm(P("3241")) == "3241"

    def test_parse_accepts_both_forms(self):
        assert perms.parse_perm("3 2 4 1") == P("3241")
        assert perms.parse_perm("3241") == (3, 2, 4, 1)

    def test_wide_groups_use_spaces(self):
        limits = Limits(max_n=12)
        w = perms.identity(10)
        text = perms.format_perm(w)
        assert text == "1 2 3 4 5 6 7 8 9 10"
        assert perms.parse_perm(text, limits) == w

    @given(perm_strategy)
    def test_round_trip(self, w):
        assert perms.parse_perm(perms.format_perm(w)) == w
