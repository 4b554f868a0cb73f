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
    swap_string_oracle,
    swap_sweep_oracle,
    thin_oracle,
    up_ball_oracle,
)


def P(text):
    return perms.parse_perm(text)


def W(text):
    return words.parse_word(text)


S4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]


def swap_string_pairs(n):
    """(x, y, positions) for every pair of S_n with a swap-string, built
    from x.  An increasing thin substring of x is fixed by its ends lo <
    hi with x(lo) < x(hi): it holds every position between them whose
    value lies between theirs.  y reads x's values there backwards."""
    for x in itertools.permutations(range(1, n + 1)):
        for lo, hi in itertools.combinations(range(1, n + 1), 2):
            pos = tuple(p for p in range(lo, hi + 1)
                        if x[lo - 1] <= x[p - 1] <= x[hi - 1])
            vals = [x[p - 1] for p in pos]
            if len(pos) < 2 or vals != sorted(vals):
                continue
            y = list(x)
            for p, v in zip(pos, reversed(vals)):
                y[p - 1] = v
            yield x, tuple(y), pos


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
            ideal_shape = bruhat.ideal(w)
            product_exists = False
            for u in S4:
                if u == perms.identity(4):
                    continue
                for v in S4:
                    if v == perms.identity(4):
                        continue
                    product = posets.RankedPoset(*direct_product(
                        bruhat.ideal(u), bruhat.ideal(v)))
                    if posets.is_isomorphic(product, ideal_shape):
                        product_exists = True
                        break
                if product_exists:
                    break
            assert (structure.decompose(w) is not None) == product_exists

    def test_cross_validation_with_products_s5_sample(self):
        rng = random.Random(77)
        s5 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4, 5))]
        ideals = {u: bruhat.ideal(u) for u in s5 if u != perms.identity(5)}
        for w in rng.sample(s5, 12):
            shape = bruhat.ideal(w)
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
        witness = structure.nonforcing_witness(P("2314"))
        assert witness.w_minus == P("1324")
        assert witness.w_plus == P("2341")
        assert witness.full_word == W("123")
        assert witness.k1 == 1 and witness.k2 == 2

    def test_2143_lands_in_s5(self):
        witness = structure.nonforcing_witness(P("2143"))
        assert witness.w_minus == words.evaluate(W("23"), 5)
        assert witness.w_plus == P("23451")
        assert witness.full_word == W("1234")

    def test_mirrored_orientation(self):
        # 312 only decomposes with the small letters on the right
        w = P("312")
        assert structure.decompose(w).side == "right"
        witness = structure.nonforcing_witness(w)
        assert witness.orientation == "right"
        iv = bruhat.interval(witness.w_minus, witness.w_plus)
        assert posets.is_isomorphic(iv, bruhat.ideal(w))

    def test_every_decomposable_s4(self):
        for w in S4:
            witness = structure.nonforcing_witness(w)
            assert (witness is None) == (structure.decompose(w) is None), w
            if witness is None:
                continue
            iv = bruhat.interval(witness.w_minus, witness.w_plus)
            assert posets.is_isomorphic(iv, bruhat.ideal(w))
            assert (
                forcing.factor_deletion(witness.w_minus, witness.w_plus)
                is None
            )
            # the witness word really is a reduced word of the top
            n = len(witness.w_plus)
            assert words.evaluate(witness.full_word, n) == witness.w_plus
            assert words.is_reduced(witness.full_word, n)

    def test_indecomposable_has_none(self):
        assert structure.nonforcing_witness(P("3412")) is None
        assert structure.nonforcing_witness(P("1234")) is None

    def test_decomposition_argument_refused(self):
        # the witness splits w itself; limits is keyword-only, so a
        # decomposition passed in its old place is a TypeError
        w = P("2314")
        with pytest.raises(TypeError):
            structure.nonforcing_witness(w, structure.decompose(w))


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
            (w, witness)
            for w in itertools.permutations(range(1, n + 1))
            if (witness := structure.nonforcing_witness(w)) is not None
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
                    a, b, c, _ = structure.swap_string_factorization(x, y)
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

    def test_thinness_worked_example(self):
        s = (9, 1, 4, 0, 2, 3, 6, 5)
        # the monotonic substring 0 2 3 5 is thin
        assert thin_oracle(s, (4, 5, 6, 8))
        # 9 1 0 is not thin because of the 4 between 9 and 0
        assert not thin_oracle(s, (1, 2, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_oracle_on_every_pair(self, n):
        # the positions read off x and y are the one swap-string the scan
        # over every set of positions finds, or there is none
        group = list(itertools.permutations(range(1, n + 1)))
        for x in group:
            for y in group:
                ss = structure.detect_swap_string(x, y)
                found = swap_string_oracle(x, y)
                assert len(found) <= 1, (x, y)
                assert (None if ss is None else
                        (ss.positions, ss.values, ss.k)) == (
                    found[0] if found else None), (x, y)


class TestSwapStringFactorization:
    def _roundtrip(self, x, y):
        ss = structure.detect_swap_string(x, y)
        assert ss is not None
        if ss.k % 2 == 1:
            center = ss.positions[ss.k // 2]
            assert x[center - 1] == y[center - 1]
        a, b, c, t = structure.swap_string_factorization(x, y)
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

    def test_equals_the_sweep_on_every_pair(self):
        # the closed form is the adjacent-swap sweep on all 5,739
        # swap-string pairs of S_2..S_6
        count = 0
        for n in range(2, 7):
            for x, y, pos in swap_string_pairs(n):
                assert structure.detect_swap_string(x, y).positions == pos
                assert structure.swap_string_factorization(x, y) == \
                    swap_sweep_oracle(x, y), (x, y)
                count += 1
        assert count == 5739

    def test_no_swap_string_has_none(self):
        assert structure.swap_string_factorization(P("2143"),
                                                   P("4231")) is None

    @pytest.mark.parametrize("k", range(2, 10))
    def test_b_is_the_least_reversal_word_read_backwards(self, k):
        # b spells the least reduced word of w0_k backwards, shifted to
        # the block's 0-based start lo; reversing positions lo+1 .. lo+k
        # of the identity leaves nothing to sweep
        least = words.lex_least_reduced_word(perms.longest(k))
        for lo in range(4):
            n = lo + k + 1
            x = perms.identity(n)
            y = x[:lo] + x[lo:lo + k][::-1] + x[lo + k:]
            a, b, c, t = structure.swap_string_factorization(x, y)
            assert (a, c, t) == ((), (), -lo)
            assert b == words.shift(tuple(reversed(least)), lo)


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
