import itertools
import random

import pytest

from bruhatkit import bruhat, forcing, perms, posets, structure, words
from bruhatkit.limits import CapExceeded, Limits
from bruhatkit.tables import group_table, iter_bits


def P(text):
    return perms.parse_perm(text)


def exhaustive_factor_scan(x, y):
    """Independent re-verification: materialize R(y) and try every
    consecutive deletion."""
    rx = set(words.reduced_words(x).words)
    gap = perms.length(y) - perms.length(x)
    hits = []
    for j in words.reduced_words(y).sorted_words():
        for start in range(len(j) - gap + 1):
            if words.delete_factor(j, start, gap) in rx:
                hits.append((j, start))
    return hits


class TestFactorDeletion:
    def test_diamond_counterexample_pair(self):
        assert forcing.factor_deletion(P("1324"), P("2341")) is None

    def test_hexagon_interval_has_certificate(self):
        cert = forcing.factor_deletion(P("1243"), P("4213"))
        assert cert is not None
        assert words.delete_factor(cert.j, cert.start, cert.length) == cert.i
        assert words.evaluate(cert.i, 4) == P("1243")
        assert words.evaluate(cert.j, 4) == P("4213")

    def test_equal_endpoints_empty_factor(self):
        w = P("3241")
        cert = forcing.factor_deletion(w, w)
        assert cert is not None
        assert cert.length == 0
        assert cert.i == cert.j

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            forcing.factor_deletion(P("2341"), P("4123"))

    def test_first_hit_is_lexicographic(self):
        cert = forcing.factor_deletion(P("1243"), P("4213"))
        # scan order: words of R(4213) lexicographically, starts ascending
        expected_j = next(
            j
            for j in words.reduced_words(P("4213")).sorted_words()
            if exhaustive_factor_scan_word(j, P("1243"))
        )
        assert cert.j == expected_j

    def test_presence_implies_order_and_gap(self):
        rng = random.Random(3)
        s4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]
        for _ in range(60):
            x, y = rng.choice(s4), rng.choice(s4)
            if not bruhat.bruhat_leq(x, y):
                continue
            cert = forcing.factor_deletion(x, y)
            scan = exhaustive_factor_scan(x, y)
            assert (cert is None) == (not scan)
            if cert is not None:
                assert cert.length == perms.length(y) - perms.length(x)

    def test_example_3_4_pair_admits_deletion(self):
        # The displayed reduced-word sets themselves admit a factor
        # deletion: 4132134 minus its middle block 1321 is 434, a reduced
        # word of 12543; so this pair is *not* a counterexample.
        cert = forcing.factor_deletion(P("12543"), P("52341"))
        assert cert is not None
        assert exhaustive_factor_scan(P("12543"), P("52341"))
        assert words.evaluate(cert.i, 5) == P("12543")


def exhaustive_factor_scan_word(j, x):
    rx = set(words.reduced_words(x).words)
    gap = len(j) - perms.length(x)
    return any(
        words.delete_factor(j, s, gap) in rx
        for s in range(len(j) - gap + 1)
    )


def table_scan(w, m):
    """Every [x, y] in S_m isomorphic to the ideal of w, in (x, y) order,
    from the interval masks above[x] & below[y] of the whole-group
    table (whose ids are rank-major, hence the final sort)."""
    target = posets.poset_from_interval(bruhat.ideal(w))
    cert = posets._certificate(target.ranks, target.covers)
    d = perms.length(w)
    gt = group_table(m)
    found = []
    for xid, x in enumerate(gt.elements):
        rx = gt.ranks[xid]
        if rx + d > gt.max_rank:
            continue
        for yid in iter_bits(gt.above[xid] & gt.rank_masks[rx + d]):
            mask = gt.above[xid] & gt.below[yid]
            if mask.bit_count() != target.size:
                continue
            struct = posets._interval_structure(
                gt.ranks, gt.down_adj, mask, rx
            )
            if posets._certificate(*struct) == cert:
                found.append((x, gt.elements[yid]))
    return sorted(found)


class TestIntervalsIsomorphicTo:
    def test_diamonds_in_s4(self):
        pairs = list(forcing.intervals_isomorphic_to(P("2314"), 4))
        assert (P("1324"), P("2341")) in pairs
        assert (P("1234"), P("2314")) in pairs
        assert pairs == sorted(pairs)

    def test_edges_in_s3_are_the_covers(self):
        pairs = list(forcing.intervals_isomorphic_to(P("21"), 3))
        covers = [
            (x, y)
            for x in itertools.permutations((1, 2, 3))
            for y in bruhat.covers_above(tuple(x))
        ]
        assert len(pairs) == len(covers) == 8
        assert set(pairs) == {(tuple(x), y) for x, y in covers}

    def test_indecomposable_shape_in_s5(self):
        pairs = forcing.intervals_isomorphic_to(P("3412"), 5)
        assert (P("12543"), P("52341")) in set(pairs)

    def test_matches_whole_group_table_scan(self):
        # the up-ball scan against the whole-group bitmask tables
        cases = (("2314", 4), ("321", 4), ("21", 3),
                 ("321", 6), ("3412", 6), ("321", 7))
        for text, m in cases:
            w = P(text)
            balls = list(forcing.intervals_isomorphic_to(w, m))
            assert balls == table_scan(w, m)

    def test_each_exactly_once_and_isomorphic(self):
        pairs = list(forcing.intervals_isomorphic_to(P("321"), 4))
        assert len(pairs) == len(set(pairs))
        target = posets.poset_from_interval(bruhat.ideal(P("321")))
        for x, y in pairs:
            shape = posets.poset_from_interval(bruhat.interval(x, y))
            assert posets.is_isomorphic(shape, target)


class TestForcesFactor:
    def test_2314_counterexample(self):
        verdict = forcing.forces_factor(P("2314"), 4)
        assert verdict.outcome == "counterexample"
        assert verdict.counterexample.x == P("1324")
        assert verdict.counterexample.y == P("2341")
        assert verdict.counterexample.m == 4
        assert not exhaustive_factor_scan(P("1324"), P("2341"))

    def test_3412_counterexample(self):
        verdict = forcing.forces_factor(P("3412"), 5)
        assert verdict.outcome == "counterexample"
        x, y = verdict.counterexample.x, verdict.counterexample.y
        assert not exhaustive_factor_scan(x, y)
        shape = posets.poset_from_interval(bruhat.interval(x, y))
        assert posets.is_isomorphic(
            shape, posets.poset_from_interval(bruhat.ideal(P("3412")))
        )

    def test_single_letter_always_forced(self):
        verdict = forcing.forces_factor(P("21"), 4)
        assert verdict.outcome == "no-counterexample-up-to-bound"
        assert verdict.sample_certificate is not None

    def test_default_bound(self):
        verdict = forcing.forces_factor(P("21"), None, limits=Limits(max_n=4))
        assert verdict.m_max == 4

    def test_identity_never_counterexampled(self):
        verdict = forcing.forces_factor(P("12"), 3)
        assert verdict.outcome == "no-counterexample-up-to-bound"

    def test_decomposable_implies_counterexample_s4(self):
        s4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]
        for w in s4:
            d = structure.decompose(w)
            if d is None:
                continue
            witness = structure.nonforcing_witness(w, d)
            bound = len(w) + (witness.k2 - witness.k1)
            verdict = forcing.forces_factor(w, bound)
            assert verdict.outcome == "counterexample"
            # the constructed witness interval is itself a counterexample
            assert forcing.factor_deletion(
                witness.w_minus, witness.w_plus
            ) is None

    def test_use_symmetry_same_outcome(self):
        for text, bound in (("2314", 4), ("321", 4)):
            a = forcing.forces_factor(P(text), bound)
            b = forcing.forces_factor(P(text), bound, use_symmetry=True)
            assert a.outcome == b.outcome

    def test_jobs_verdict_equals_sequential(self):
        seq = forcing.forces_factor(P("2314"), 4)
        par = forcing.forces_factor(P("2314"), 4, jobs=2)
        assert par.outcome == seq.outcome
        assert par.counterexample == seq.counterexample
        assert par.intervals_examined == seq.intervals_examined
        assert par.to_json() == seq.to_json()
        # no counterexample: the sample certificate must agree too
        seq = forcing.forces_factor(P("321"), 5)
        par = forcing.forces_factor(P("321"), 5, jobs=2)
        assert seq.outcome == "no-counterexample-up-to-bound"
        assert par.sample_certificate == seq.sample_certificate
        assert par.to_json() == seq.to_json()
        seq = forcing.forces_factor(P("3412"), 5, use_symmetry=True)
        par = forcing.forces_factor(P("3412"), 5, use_symmetry=True, jobs=2)
        assert par.to_json() == seq.to_json()

    def test_cap_reports_partial_stats(self):
        for jobs in (None, 2):
            with pytest.raises(CapExceeded) as info:
                forcing.forces_factor(
                    P("21"), 5, jobs=jobs, limits=Limits(max_word_length=3)
                )
            assert info.value.stats["intervals_examined"] == 26

    def test_bound_below_group_size_rejected(self):
        with pytest.raises(ValueError):
            forcing.forces_factor(P("2314"), 3)

    def test_verdict_json_schema(self):
        data = forcing.forces_factor(P("2314"), 4).to_json()
        assert data["outcome"] == "counterexample"
        assert data["counterexample"] == {"x": "1324", "y": "2341", "m": 4}
        assert data["no_factor_proof"]["words_scanned"] == 1
        assert data["stats"]["seconds"] == 0.0
        assert data["stats"]["intervals_examined"] > 0


class TestCertificateShiftedLongest:
    def test_hexagon_certificates(self):
        # every interval in S4 shaped like the full S3 yields a factor
        # whose shift is a reduced word of 321
        for x, y in forcing.intervals_isomorphic_to(P("321"), 4):
            cert = forcing.factor_deletion(x, y)
            assert cert is not None
            assert forcing.certificate_is_shifted_longest(x, y, cert, 3)

    def test_single_letter_k2(self):
        x = P("1324")
        y = P("3124")
        cert = forcing.factor_deletion(x, y)
        assert forcing.certificate_is_shifted_longest(x, y, cert, 2)
        assert structure.is_shifted_longest_word(cert.factor(), 2)

    def test_corrupted_certificate(self):
        x, y = P("1243"), P("4213")
        bad = forcing.FactorCertificate(
            j=(1, 3), start=0, length=2, i=()
        )
        assert not forcing.certificate_is_shifted_longest(x, y, bad, 3)
