import dataclasses
import itertools
import random

import pytest

from bruhatkit import bruhat, forcing, perms, posets, structure, words

from oracles import (
    ball_digraph,
    brute_force_reduced_words,
    decompose_oracle,
    deletion_oracle,
    direct_product,
    is_reduced_word_of,
    is_shifted_longest_word,
    move_closure_reduced_words,
    rank_match,
    up_ball_oracle,
)


def P(text):
    return perms.parse_perm(text)


def W(text):
    return words.parse_word(text)


S4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]


class TestIsThin:
    def test_worked_example(self):
        s = (9, 1, 4, 0, 2, 3, 6, 5)
        # the monotonic substring 0 2 3 5 is thin
        assert structure.is_thin(s, (4, 5, 6, 8))
        # 9 1 0 is not thin because of the 4 between 9 and 0
        assert not structure.is_thin(s, (1, 2, 4))

    def test_length_one(self):
        assert structure.is_thin((3, 1, 2), (2,))

    def test_non_monotonic_rejected(self):
        with pytest.raises(ValueError):
            structure.is_thin((1, 3, 2, 4), (1, 2, 3))

    def test_position_validation(self):
        with pytest.raises(ValueError):
            structure.is_thin((1, 2, 3), (2, 2))
        with pytest.raises(ValueError):
            structure.is_thin((1, 2, 3), (0, 1))


class TestDecompose:
    def test_2314(self):
        d = structure.decompose(P("2314"))
        assert d == structure.Decomposition(
            m=1, a1=(1,), a2=(2,), side="left"
        )

    def test_3412_indecomposable(self):
        assert structure.decompose(P("3412")) is None

    def test_trivial_cases(self):
        assert structure.decompose(P("1234")) is None
        assert structure.decompose(P("2134")) is None
        assert structure.decompose(P("12")) is None

    def test_small_letters_right(self):
        d = structure.decompose(P("312"))
        assert d is not None and d.side == "right"

    @staticmethod
    def _as_tuple(d):
        return None if d is None else dataclasses.astuple(d)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equals_oracle_exhaustive(self, n):
        for w in itertools.permutations(range(1, n + 1)):
            assert self._as_tuple(structure.decompose(w)) == \
                decompose_oracle(w), w

    def test_equals_oracle_s6_sample(self):
        rng = random.Random(610)
        short = [
            w for w in itertools.permutations(range(1, 7))
            if perms.length(w) <= 10
        ]
        for w in rng.sample(short, 150):
            assert self._as_tuple(structure.decompose(w)) == \
                decompose_oracle(w), w

    def test_oracle_words_are_all_of_r_w(self):
        for w in S4:
            assert move_closure_reduced_words(w) == \
                brute_force_reduced_words(w)

    def test_cross_validation_with_products_s4(self):
        # decomposable iff the ideal is a nontrivial direct product
        for w in S4:
            ideal_shape = posets.poset_from_interval(bruhat.ideal(w))
            product_exists = False
            for u in S4:
                if u == perms.identity(4):
                    continue
                for v in S4:
                    if v == perms.identity(4):
                        continue
                    product = posets.RankedPoset(*direct_product(
                        posets.poset_from_interval(bruhat.ideal(u)),
                        posets.poset_from_interval(bruhat.ideal(v)),
                    ))
                    if posets.is_isomorphic(product, ideal_shape):
                        product_exists = True
                        break
                if product_exists:
                    break
            assert (structure.decompose(w) is not None) == product_exists

    def test_cross_validation_with_products_s5_sample(self):
        rng = random.Random(77)
        s5 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4, 5))]
        ideals = {
            u: posets.poset_from_interval(bruhat.ideal(u))
            for u in s5
            if u != perms.identity(5)
        }
        for w in rng.sample(s5, 12):
            shape = posets.poset_from_interval(bruhat.ideal(w))
            product_exists = any(
                posets.is_isomorphic(
                    posets.RankedPoset(*direct_product(pu, pv)), shape
                )
                for u, pu in ideals.items()
                for v, pv in ideals.items()
                if pu.size * pv.size == shape.size
            )
            assert (structure.decompose(w) is not None) == product_exists


class TestNonForcingWitness:
    def test_2314(self):
        w = P("2314")
        witness = structure.nonforcing_witness(w, structure.decompose(w))
        assert witness.w_minus == P("1324")
        assert witness.w_plus == P("2341")
        assert witness.full_word == W("123")
        assert witness.k1 == 1 and witness.k2 == 2

    def test_2143_lands_in_s5(self):
        w = P("2143")
        witness = structure.nonforcing_witness(w, structure.decompose(w))
        assert witness.w_minus == words.evaluate(W("23"), 5)
        assert witness.w_plus == P("23451")
        assert witness.full_word == W("1234")

    def test_mirrored_orientation(self):
        # 312 only decomposes with the small letters on the right
        w = P("312")
        d = structure.decompose(w)
        assert d.side == "right"
        witness = structure.nonforcing_witness(w, d)
        assert witness.orientation == "right"
        iv = bruhat.interval(witness.w_minus, witness.w_plus)
        assert posets.is_isomorphic(
            posets.poset_from_interval(iv),
            posets.poset_from_interval(bruhat.ideal(w)),
        )

    def test_every_decomposable_s4(self):
        for w in S4:
            d = structure.decompose(w)
            if d is None:
                continue
            witness = structure.nonforcing_witness(w, d)
            iv = bruhat.interval(witness.w_minus, witness.w_plus)
            assert posets.is_isomorphic(
                posets.poset_from_interval(iv),
                posets.poset_from_interval(bruhat.ideal(w)),
            )
            assert (
                forcing.factor_deletion(witness.w_minus, witness.w_plus)
                is None
            )
            # the witness word really is a reduced word of the top
            n = len(witness.w_plus)
            assert words.evaluate(witness.full_word, n) == witness.w_plus
            assert words.is_reduced(witness.full_word, n)

    def test_invalid_decomposition_rejected(self):
        bad = structure.Decomposition(m=1, a1=(1,), a2=(3,), side="left")
        with pytest.raises(ValueError):
            structure.nonforcing_witness(P("2314"), bad)


class TestTheoremCrossChecks:
    """The paper's two theorems, checked over tests/oracles.py and
    networkx: a decomposable w never forces a factor, and every interval
    shaped like the ideal of w0_k has a swap string, hence a factor
    deletion."""

    @staticmethod
    def _witnesses(n):
        """(w, non-forcing witness) for each decomposable w of S_n, in
        one-line order."""
        return [
            (w, structure.nonforcing_witness(w, d))
            for w in itertools.permutations(range(1, n + 1))
            if (d := structure.decompose(w)) is not None
        ]

    @staticmethod
    def _check_counterexample(nx, w, witness):
        # deletion_oracle finds no deletion in the witness, networkx
        # matches it with the ideal of w, and the scan finds a
        # counterexample by the witness's ambient
        def inversions(w):
            return sum(a > b for a, b in itertools.combinations(w, 2))

        x, y = witness.w_minus, witness.w_plus
        assert not deletion_oracle(x, y), w
        found = ball_digraph(
            nx, up_ball_oracle(x, inversions(y) - inversions(x)), y)
        ideal = ball_digraph(
            nx, up_ball_oracle(tuple(sorted(w)), inversions(w)), w)
        assert nx.is_isomorphic(found, ideal, node_match=rank_match), w
        verdict = forcing.forces_factor(w, len(y))
        assert verdict.outcome == "counterexample", w

    def test_every_decomposable_s5_has_a_counterexample(self):
        # 73 decomposable w of S_5: the witness of 13 lies in S_5 and that
        # of 60 in S_6
        nx = pytest.importorskip("networkx")
        ambients = {}
        for w, witness in self._witnesses(5):
            ambients[len(witness.w_plus)] = (
                ambients.get(len(witness.w_plus), 0) + 1)
            self._check_counterexample(nx, w, witness)
        assert ambients == {5: 13, 6: 60}

    def test_decomposable_s6_sample_has_counterexamples(self):
        # 432 decomposable w of S_6: the witness of 73 lies in S_6 and that
        # of 359 in S_7; a seeded 12 of them are checked in full
        nx = pytest.importorskip("networkx")
        witnesses = self._witnesses(6)
        ambients = {}
        for _, witness in witnesses:
            ambients[len(witness.w_plus)] = (
                ambients.get(len(witness.w_plus), 0) + 1)
        assert ambients == {6: 73, 7: 359}
        sample = random.Random(2901).sample(witnesses, 12)
        assert sorted(len(witness.w_plus) for _, witness in sample) == (
            [6] * 2 + [7] * 10)
        for w, witness in sample:
            self._check_counterexample(nx, w, witness)

    def test_every_w0_k_interval_has_a_swap_string(self):
        # every interval of S_k..S_6 shaped like the ideal of w0_k, k = 2,
        # 3, 4, 5,717 in all; an interval shaped like w0_1 is a point
        counts = {}
        for k in range(2, 5):
            for m in range(k, 7):
                count = 0
                for x, y in forcing.intervals_isomorphic_to(
                        perms.longest(k), m):
                    ss = structure.detect_swap_string(x, y)
                    assert ss is not None and ss.k == k, (x, y)
                    a, b, c, _ = structure.swap_string_factorization(x, y, ss)
                    assert is_reduced_word_of(a + c, x), (x, y)
                    assert is_reduced_word_of(a + b + c, y), (x, y)
                    assert deletion_oracle(x, y), (x, y)
                    count += 1
                counts[k, m] = count
        assert counts == {
            (2, 2): 1, (2, 3): 8, (2, 4): 58, (2, 5): 444, (2, 6): 3708,
            (3, 3): 1, (3, 4): 12, (3, 5): 118, (3, 6): 1152,
            (4, 4): 1, (4, 5): 16, (4, 6): 198,
        }


class TestDetectSwapString:
    def test_k3_example(self):
        ss = structure.detect_swap_string(P("1243"), P("4213"))
        assert ss == structure.SwapString(
            positions=(1, 2, 3), values=(1, 2, 4), k=3
        )

    def test_non_monotone_differences(self):
        assert structure.detect_swap_string(P("12543"), P("52341")) is None

    def test_equal_permutations(self):
        assert structure.detect_swap_string(P("2143"), P("2143")) is None

    def test_k2(self):
        ss = structure.detect_swap_string(P("1324"), P("3124"))
        assert ss is not None and ss.k == 2
        assert ss.positions == (1, 2)

    def test_incomparable_shapes(self):
        # differ on two positions but values swap non-monotonically
        assert structure.detect_swap_string(P("2143"), P("4231")) is None


class TestSwapStringFactorization:
    def _roundtrip(self, x, y):
        ss = structure.detect_swap_string(x, y)
        assert ss is not None
        if ss.k % 2 == 1:
            center = ss.positions[ss.k // 2]
            assert x[center - 1] == y[center - 1]
        a, b, c, t = structure.swap_string_factorization(x, y, ss)
        n = len(x)
        assert words.evaluate(a + c, n) == x
        assert words.is_reduced(a + c, n)
        assert words.evaluate(a + b + c, n) == y
        assert words.is_reduced(a + b + c, n)
        assert len(b) == ss.k * (ss.k - 1) // 2
        shifted = words.shift(b, t)
        assert words.evaluate(shifted, ss.k) == perms.longest(ss.k)
        return a, b, c, t

    def test_k3_example(self):
        _, b, _, t = self._roundtrip(P("1243"), P("4213"))
        assert words.format_word(words.shift(b, t)) in {"121", "212"}

    def test_single_letter_factor(self):
        _, b, _, _ = self._roundtrip(P("1324"), P("3124"))
        assert len(b) == 1

    def test_randomized_prefixed_pairs(self):
        # grow valid (x, y) pairs by sticking a shifted reversal word
        # between a random prefix and a random suffix
        rng = random.Random(2024)
        built = 0
        while built < 25:
            n = rng.choice((4, 5, 6))
            k = rng.choice((2, 3))
            t = rng.randrange(0, n - k + 1)
            core = words.shift(
                words.lex_least_reduced_word(perms.longest(k)), t
            )
            prefix = tuple(
                rng.randrange(1, n) for _ in range(rng.randrange(0, 4))
            )
            suffix = tuple(
                rng.randrange(1, n) for _ in range(rng.randrange(0, 4))
            )
            if not words.is_reduced(prefix + core + suffix, n):
                continue
            if not words.is_reduced(prefix + suffix, n):
                continue
            x = words.evaluate(prefix + suffix, n)
            y = words.evaluate(prefix + core + suffix, n)
            # words ac / abc with b a shifted reversal word force the
            # swap-string shape, so detection must succeed
            self._roundtrip(x, y)
            built += 1

    def test_mismatched_swap_string_rejected(self):
        ss = structure.detect_swap_string(P("1243"), P("4213"))
        with pytest.raises(ValueError):
            structure.swap_string_factorization(P("1324"), P("3124"), ss)


class TestShiftedLongestChecks:
    def test_examples(self):
        # the hexagon is shaped like S_3: its span 3 is 3 * 2 / 2
        hexagon = bruhat.interval(P("1243"), P("4213"))
        assert hexagon.ranks[-1] == 3
        assert is_shifted_longest_word(W("121"), 3)
        assert is_shifted_longest_word(W("343"), 3)
        assert not is_shifted_longest_word(W("13"), 3)

    def test_non_triangular_span_rejected(self):
        # span 2 is no k(k-1)/2, so no factor of that size is a shifted
        # reduced word of any reversal
        diamond = bruhat.ideal(P("2314"))
        assert diamond.ranks[-1] == 2
        assert not any(
            is_shifted_longest_word(W("12"), k) for k in range(1, 6)
        )

    def test_is_shifted_longest_word(self):
        assert is_shifted_longest_word(W("212"), 3)
        assert is_shifted_longest_word((5,), 2)
        assert not is_shifted_longest_word(W("123"), 3)
        assert not is_shifted_longest_word(W("11"), 2)
