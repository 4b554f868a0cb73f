import itertools
import random

import pytest

from bruhatkit import bruhat, perms, posets
from bruhatkit.limits import CapExceeded
from bruhatkit.tables import group_table, iter_bits, up_ball

from oracles import backtracking_isomorphic
from whole_group import above


def P(text):
    return perms.parse_perm(text)


def shape_of_ideal(text):
    return posets.poset_from_interval(bruhat.ideal(P(text)))


def shape_of_interval(lo, hi):
    return posets.poset_from_interval(bruhat.interval(P(lo), P(hi)))


S4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]


class TestCanonicalForm:
    def test_diamond_two_ways(self):
        assert posets.canonical_form(
            shape_of_ideal("2314")
        ) == posets.canonical_form(shape_of_interval("1324", "2341"))

    def test_chain_differs_from_singleton_and_diamond(self):
        chain_cert = posets.canonical_form(posets.chain(1))
        assert chain_cert != posets.canonical_form(posets.singleton())
        assert chain_cert != posets.canonical_form(shape_of_ideal("2314"))

    def test_hexagon_two_ways(self):
        assert posets.canonical_form(
            shape_of_ideal("321")
        ) == posets.canonical_form(shape_of_interval("1243", "4213"))

    def test_malformed_poset_rejected(self):
        two_maxima = posets.RankedPoset(
            ranks=(0, 1, 1), covers=((0, 1), (0, 2))
        )
        with pytest.raises(ValueError):
            posets.canonical_form(two_maxima)

    def test_invalid_covers_rejected(self):
        with pytest.raises(ValueError):
            posets.RankedPoset(ranks=(0, 2), covers=((0, 1),))


class TestIsIsomorphic:
    def test_reflexive(self):
        p = shape_of_interval("2143", "4231")
        assert posets.is_isomorphic(p, p)

    def test_figure2_not_any_s4_ideal(self):
        p = shape_of_interval("2143", "4231")
        for w in S4:
            assert not posets.is_isomorphic(
                p, posets.poset_from_interval(bruhat.ideal(w))
            )

    def test_indecomposable_ideal_as_interval(self):
        assert posets.is_isomorphic(
            shape_of_ideal("3412"), shape_of_interval("12543", "52341")
        )

    def test_equivalence_relation_on_corpus(self):
        rng = random.Random(5)
        corpus = []
        for _ in range(12):
            x, y = rng.choice(S4), rng.choice(S4)
            if bruhat.bruhat_leq(x, y):
                corpus.append(
                    posets.poset_from_interval(bruhat.interval(x, y))
                )
        for p in corpus:
            assert posets.is_isomorphic(p, p)
        for p in corpus:
            for q in corpus:
                assert posets.is_isomorphic(p, q) == posets.is_isomorphic(
                    q, p
                )
        for p in corpus:
            for q in corpus:
                for r in corpus:
                    if posets.is_isomorphic(p, q) and posets.is_isomorphic(
                        q, r
                    ):
                        assert posets.is_isomorphic(p, r)


class TestCertificateSoundness:
    """Certificate equality must coincide with the backtracking matcher."""

    def _intervals_up_to_length(self, n, max_len):
        group = [tuple(w) for w in itertools.permutations(range(1, n + 1))]
        for y in group:
            for x in group:
                gap = perms.length(y) - perms.length(x)
                if 0 <= gap <= max_len and bruhat.bruhat_leq(x, y):
                    yield posets.poset_from_interval(bruhat.interval(x, y))

    def test_s4_exhaustive(self):
        by_cert = {}
        for p in self._intervals_up_to_length(4, 4):
            by_cert.setdefault(posets.canonical_form(p), []).append(p)
        reps = {cert: ps[0] for cert, ps in by_cert.items()}
        # equal certificate -> isomorphic (every member vs its representative)
        for cert, ps in by_cert.items():
            for p in ps[:20]:
                assert backtracking_isomorphic(reps[cert], p)
        # distinct certificates -> not isomorphic (pairwise over representatives)
        certs = sorted(reps)
        for i, c1 in enumerate(certs):
            for c2 in certs[i + 1:]:
                assert not backtracking_isomorphic(reps[c1], reps[c2])

    def test_s5_exhaustive(self):
        by_cert = {}
        for p in self._intervals_up_to_length(5, 4):
            by_cert.setdefault(posets.canonical_form(p), []).append(p)
        reps = {cert: ps[0] for cert, ps in by_cert.items()}
        for cert, ps in by_cert.items():
            for p in ps:
                assert backtracking_isomorphic(reps[cert], p)
        certs = sorted(reps)
        for i, c1 in enumerate(certs):
            for c2 in certs[i + 1:]:
                assert not backtracking_isomorphic(reps[c1], reps[c2])


class TestDirectProduct:
    def test_diamond(self):
        product = posets.direct_product(posets.chain(1), posets.chain(1))
        assert posets.is_isomorphic(product, shape_of_ideal("2314"))

    def test_singleton_unit(self):
        p = shape_of_interval("2143", "4231")
        assert posets.is_isomorphic(
            posets.direct_product(p, posets.singleton()), p
        )

    def test_cube_matches_ideal_in_s6(self):
        cube = posets.direct_product(
            posets.direct_product(posets.chain(1), posets.chain(1)),
            posets.chain(1),
        )
        s1s3s5 = P("214365")
        assert posets.is_isomorphic(
            cube, posets.poset_from_interval(bruhat.ideal(s1s3s5))
        )


class TestIntervalStructure:
    @pytest.mark.parametrize("n", [4, 5])
    def test_table_relabel_matches_interval(self, n):
        # ball ids are rank-major, so the relabel needs no sort to number
        # each interval in its (rank, one-line) order; checked for the
        # whole-group table and for the x-local balls that the scans read
        gt = group_table(n)
        up = above(n)
        pairs = 0
        for xid, x in enumerate(gt.elements):
            for yid in iter_bits(up[xid]):
                struct = gt.structure(up[xid] & gt.below[yid])
                shape = posets.poset_from_interval(
                    bruhat.interval(x, gt.elements[yid])
                )
                assert struct == (shape.ranks, shape.covers)
                pairs += 1
        assert pairs == {4: 213, 5: 3781}[n]
        tops = 0
        for x in gt.elements:
            ball = up_ball(x, 3)
            for yid in iter_bits(ball.rank_masks[3]):
                shape = posets.poset_from_interval(
                    bruhat.interval(x, ball.elements[yid])
                )
                assert ball.structure(ball.below[yid]) == (
                    shape.ranks, shape.covers
                )
                tops += 1
        assert tops == sum(
            1 for x in gt.elements for y in gt.elements
            if perms.length(y) - perms.length(x) == 3
            and bruhat.bruhat_leq(x, y)
        )


class TestToDot:
    def test_diamond_counts(self):
        text = posets.to_dot(shape_of_ideal("2314"))
        assert text.count("->") == 4
        assert text.startswith("digraph poset {")
        assert "rank=same" in text

    def test_figure2_counts(self):
        iv = bruhat.interval(P("2143"), P("4231"))
        labels = [perms.format_perm(z) for z in iv.elements]
        text = posets.to_dot(posets.poset_from_interval(iv), labels)
        assert text.count("->") == 16
        assert '"2143" -> "2341";' in text

    def test_singleton(self):
        assert posets.to_dot(posets.singleton()).count("->") == 0

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            posets.to_dot(posets.chain(1), ["only-one"])


class TestAtlas:
    def test_single_edge_group(self):
        result = posets.atlas(2, 1)
        assert result.counts("intervals") == (1, 1)
        assert result.counts("ideals") == (1, 1)

    def test_monotone_in_n(self):
        small = posets.atlas(3, 3)
        big = posets.atlas(4, 3)
        for which in ("intervals", "ideals"):
            for a, b in zip(small.counts(which), big.counts(which)):
                assert a <= b

    def test_s4_known_row(self):
        result = posets.atlas(4, 3)
        assert result.counts("intervals") == (1, 1, 1, 3)
        assert result.counts("ideals") == (1, 1, 1, 2)

    def test_atlas_cap(self):
        # the group-size cap max_n is the atlas's only cap
        with pytest.raises(CapExceeded, match="max_n=8"):
            posets.atlas(9, 2)

    def test_s8_rows_to_length_2(self):
        result = posets.atlas(8, 2)
        assert result.counts("intervals") == (1, 1, 1)
        assert result.counts("ideals") == (1, 1, 1)
        assert result.intervals_examined == 459926

    @pytest.mark.parametrize("n,max_len,examined,intervals,ideals", [
        (5, 5, 1275, (1, 1, 1, 3, 7, 16), (1, 1, 1, 2, 3, 4)),
        (6, 4, 14847, (1, 1, 1, 3, 7), (1, 1, 1, 2, 3)),
    ])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_stats_pinned(self, n, max_len, examined, intervals, ideals,
                          jobs):
        # intervals_examined is part of the CLI's byte-stable output
        result = posets.atlas(n, max_len, jobs=jobs)
        assert result.counts("intervals") == intervals
        assert result.counts("ideals") == ideals
        assert result.intervals_examined == examined

    @pytest.mark.parametrize("n,expected", [
        (4, (1, 1, 1, 2, 2, 2, 1)),
        (5, (1, 1, 1, 2, 3, 4, 6, 5, 4, 2, 1)),
    ])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_ideal_rows_equal_direct_count(self, n, expected, jobs):
        # ideal classes come from the [e, y] intervals of the orbit
        # representatives; count them over all of S_n instead
        classes = [set() for _ in expected]
        for w in itertools.permutations(range(1, n + 1)):
            ideal = posets.poset_from_interval(bruhat.ideal(w))
            classes[perms.length(w)].add(posets.canonical_form(ideal))
        assert tuple(map(len, classes)) == expected
        top = n * (n - 1) // 2
        assert posets.atlas(n, top, jobs=jobs).counts("ideals") == expected

    def test_jobs_agree_with_sequential(self):
        seq = posets.atlas(4, 4)
        par = posets.atlas(4, 4, jobs=2)
        assert seq.rows == par.rows
        assert seq.intervals_examined == par.intervals_examined

    def test_json_schema(self):
        data = posets.atlas(3, 2).to_json()
        assert data["n"] == 3
        assert data["rows"][0] == {"length": 0, "intervals": 1, "ideals": 1}
        assert data["stats"]["seconds"] == 0.0
        assert data["stats"]["max_n"] == 8
