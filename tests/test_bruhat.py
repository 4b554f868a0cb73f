import itertools
import random

import pytest

from bruhatkit import bruhat, perms, posets, words

from oracles import (
    bubble_sort_word,
    cover_tops_oracle,
    interval_oracle,
    maximal_chain_sizes,
    reduced_subword_closure,
    subword_oracle_leq,
)


def P(text):
    return perms.parse_perm(text)


S4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]


def covers_below(x):
    """The z covered by x, sorted, from the interval walk's generator."""
    return tuple(sorted(z for _, _, z in bruhat._lower_covers(x)))


def coatoms(iv):
    """The elements of an interval covered by its top, from its covers."""
    return tuple(sorted(a for a, b in iv.covers if b == iv.high))


class TestLeq:
    def test_examples(self):
        assert bruhat.bruhat_leq(P("1324"), P("2341"))
        w = P("2413")
        assert bruhat.bruhat_leq(w, w)
        assert not bruhat.bruhat_leq(P("2341"), P("4123"))
        assert not bruhat.bruhat_leq(P("4123"), P("2341"))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat.bruhat_leq(P("21"), P("321"))

    def test_oracle_equivalence_s4_exhaustive(self):
        for x in S4:
            for y in S4:
                assert bruhat.bruhat_leq(x, y) == subword_oracle_leq(x, y)

    def test_oracle_equivalence_s5_exhaustive(self):
        s5 = list(itertools.permutations(range(1, 6)))
        for x in s5:
            for y in s5:
                assert bruhat.bruhat_leq(x, y) == subword_oracle_leq(x, y), (
                    x, y)

    def test_strong_subword_property_s4(self):
        # if x <= y then EVERY reduced word of y has a reduced subword for x
        for y in S4:
            closures = [
                reduced_subword_closure(j, 4)
                for j in words.reduced_words(y).words
            ]
            for x in S4:
                if bruhat.bruhat_leq(x, y):
                    assert all(x in c for c in closures)
                else:
                    assert all(x not in c for c in closures)

    def test_oracle_equivalence_s5_random(self):
        # The subword oracle computed per Defn-style reachability: x <= y
        # iff x has a reduced word sitting inside a reduced word of y.
        # One word of y suffices by the strong subword property, which the
        # S4 test above checks exhaustively.
        rng = random.Random(172)
        s5 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4, 5))]
        for _ in range(400):
            x, y = rng.choice(s5), rng.choice(s5)
            closure = reduced_subword_closure(
                words.lex_least_reduced_word(y), 5
            )
            assert bruhat.bruhat_leq(x, y) == (x in closure)


class TestCovers:
    def test_examples(self):
        assert covers_below(P("1234")) == ()
        assert covers_below(P("4321")) == (
            P("3421"),
            P("4231"),
            P("4312"),
        )
        # the oracle's covers of 2143 are the z whose lower covers hold it
        tops = (P("2341"), P("2413"), P("3142"), P("4123"))
        assert tuple(sorted(cover_tops_oracle(P("2143")))) == tops
        above = [z for z in S4 if P("2143") in covers_below(z)]
        assert above == list(tops)

    def test_covers_by_length_increment_scan(self):
        # every transposition neighbor at length +1 appears, nothing else
        for x in S4:
            expected = set()
            for i in range(4):
                for j in range(i + 1, 4):
                    lst = list(x)
                    lst[i], lst[j] = lst[j], lst[i]
                    z = tuple(lst)
                    if perms.length(z) == perms.length(x) + 1:
                        expected.add(z)
            assert set(cover_tops_oracle(x)) == expected
            above = {z for z in S4 if x in covers_below(z)}
            assert above == expected

    def test_covers_below_match_oracle_s5(self):
        s5 = list(itertools.permutations(range(1, 6)))
        below = {x: [] for x in s5}
        for z in s5:
            for top in cover_tops_oracle(z):
                below[top].append(z)
        for x in s5:
            assert covers_below(x) == tuple(sorted(below[x]))


FIGURE2_ELEMENTS = {
    "2143",
    "2341", "2413", "3142", "4123",
    "2431", "3241", "4213", "4132",
    "4231",
}


class TestInterval:
    def test_figure2(self):
        iv = bruhat.interval(P("2143"), P("4231"))
        assert {perms.format_perm(z) for z in iv.elements} == FIGURE2_ELEMENTS
        assert iv.rank_profile() == (1, 4, 4, 1)
        assert len(iv.covers) == 16

    def test_singleton(self):
        iv = bruhat.interval(P("2413"), P("2413"))
        assert iv.elements == (P("2413"),)
        assert iv.covers == ()

    def test_full_group(self):
        iv = bruhat.interval(P("1234"), P("4321"))
        assert len(iv.elements) == 24

    def test_rejects_incomparable(self):
        with pytest.raises(ValueError):
            bruhat.interval(P("2341"), P("4123"))

    def test_graded_covers_and_chains(self):
        rng = random.Random(9)
        pairs = [(x, y) for x in S4 for y in S4 if bruhat.bruhat_leq(x, y)]
        for x, y in rng.sample(pairs, 40):
            iv = bruhat.interval(x, y)
            for a, b in iv.covers:
                assert perms.length(b) == perms.length(a) + 1
            sizes = maximal_chain_sizes(iv.elements, iv.covers, x, y)
            assert sizes == {perms.length(y) - perms.length(x) + 1}

    def test_ranks_from_the_walk_equal_rank_of(self):
        # the walk's ranks, and the profile and shape read off them, are
        # the lengths above the bottom
        for x, y in itertools.product(S4, S4):
            if not bruhat.bruhat_leq(x, y):
                continue
            iv = bruhat.interval(x, y)
            ranks = tuple(perms.length(z) - perms.length(iv.low)
                          for z in iv.elements)
            assert iv.ranks == ranks
            assert iv.rank_profile() == tuple(
                ranks.count(r) for r in range(ranks[-1] + 1))
            assert posets.poset_from_interval(iv).ranks == ranks


class TestIntervalOracle:
    """``bruhat.interval`` equals :func:`oracles.interval_oracle`, built
    from the subword property and the transposition rule: the same
    elements in the same order, and the same covers in the same order."""

    @staticmethod
    def assert_oracle(x, y):
        iv = bruhat.interval(x, y)
        assert (iv.elements, iv.covers) == interval_oracle(x, y)

    def test_every_comparable_pair_of_s4(self):
        pairs = [(x, y) for x in S4 for y in S4 if subword_oracle_leq(x, y)]
        assert len(pairs) == 213
        for x, y in pairs:
            self.assert_oracle(x, y)

    def test_every_ideal_of_s5(self):
        for y in itertools.permutations(range(1, 6)):
            self.assert_oracle(perms.identity(5), y)

    def test_seeded_sample_of_s5(self):
        rng = random.Random(1905)
        s5 = list(itertools.permutations(range(1, 6)))
        checked = 0
        while checked < 40:
            x, y = rng.choice(s5), rng.choice(s5)
            if x != perms.identity(5) and subword_oracle_leq(x, y):
                self.assert_oracle(x, y)
                checked += 1

    def test_every_comparable_pair_of_s5(self):
        # bruhat_leq picks the pairs; it equals the subword oracle on all
        # of S_5 (TestLeq), and the count pins that no pair is missed
        s5 = list(itertools.permutations(range(1, 6)))
        pairs = [(x, y) for x in s5 for y in s5 if bruhat.bruhat_leq(x, y)]
        assert len(pairs) == 3781
        for x, y in pairs:
            self.assert_oracle(x, y)

    def test_seeded_non_principal_pairs_of_s6(self):
        rng = random.Random(1906)
        s6 = list(itertools.permutations(range(1, 7)))
        checked = 0
        while checked < 200:
            x, y = rng.choice(s6), rng.choice(s6)
            if x in (perms.identity(6), y):
                continue
            if x in reduced_subword_closure(bubble_sort_word(y), 6):
                self.assert_oracle(x, y)
                checked += 1


class TestIdeal:
    def test_diamond(self):
        iv = bruhat.ideal(P("2314"))
        assert [perms.format_perm(z) for z in iv.elements] == [
            "1234",
            "1324",
            "2134",
            "2314",
        ]
        assert iv.rank_profile() == (1, 2, 1)

    def test_identity_singleton(self):
        assert len(bruhat.ideal(P("1234")).elements) == 1

    def test_4213_has_12_elements(self):
        assert len(bruhat.ideal(P("4213")).elements) == 12


class TestCoatoms:
    def test_figure2_coatoms(self):
        iv = bruhat.interval(P("2143"), P("4231"))
        assert coatoms(iv) == (
            P("2431"),
            P("3241"),
            P("4132"),
            P("4213"),
        )

    def test_singleton(self):
        iv = bruhat.interval(P("2413"), P("2413"))
        assert coatoms(iv) == ()

    def test_full_group_coatoms(self):
        iv = bruhat.ideal(P("4321"))
        assert coatoms(iv) == (P("3421"), P("4231"), P("4312"))


class TestCoatomAvoidingPosition:
    """For x < y with x(i) != y(i), some coatom w of [x, y] has
    w(i) != y(i), read off the covers of ``bruhat.interval``."""

    @staticmethod
    def avoiding(x, y, i):
        iv = bruhat.interval(x, y)
        return {w for w in coatoms(iv) if w[i - 1] != y[i - 1]}

    def test_figure2_scan(self):
        assert self.avoiding(P("2143"), P("4231"), 1) == {
            P("2431"), P("3241")}

    def test_single_cover_returns_x(self):
        assert coatoms(bruhat.interval(P("1324"), P("3124"))) == (P("1324"),)

    def test_full_group(self):
        assert self.avoiding(P("1234"), P("4321"), 2) == {
            P("4231"), P("3421")}

    def test_exhaustive_s4(self):
        for x in S4:
            for y in S4:
                if x == y or not bruhat.bruhat_leq(x, y):
                    continue
                for i in range(1, 5):
                    if x[i - 1] != y[i - 1]:
                        assert self.avoiding(x, y, i), (x, y, i)


class TestJson:
    def test_schema(self):
        iv = bruhat.interval(P("2143"), P("4231"))
        data = bruhat.interval_to_json(iv)
        assert data["low"] == "2143"
        assert data["high"] == "4231"
        assert data["n"] == 4
        assert len(data["elements"]) == 10
        assert data["elements"][0] == "2143"
        assert len(data["covers"]) == 16
        assert all(len(pair) == 2 for pair in data["covers"])

    def test_covers_ordered_by_rank_then_pair(self):
        # the covers come sorted by the length of their bottom, then by
        # the pair in one-line order
        s_4 = list(itertools.permutations(range(1, 5)))
        ivs = [bruhat.interval(x, y) for x in s_4 for y in s_4
               if bruhat.bruhat_leq(x, y)]
        ivs += [bruhat.ideal(w) for w in perms.all_perms(5)]
        for iv in ivs:
            expected = sorted(
                iv.covers, key=lambda ab: (perms.length(ab[0]), ab))
            assert bruhat.interval_to_json(iv)["covers"] == [
                [perms.format_perm(a), perms.format_perm(b)]
                for a, b in expected
            ]
