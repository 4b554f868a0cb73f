import itertools
import json
import math
import random
import re
import tracemalloc

import pytest

from bruhatkit import bruhat, forcing, perms, posets, structure, tables, words
from bruhatkit.limits import CapExceeded, Limits
from bruhatkit.tables import iter_bits, rank_table
from oracles import (
    backtracking_isomorphic,
    cover_tops_oracle,
    deletion_oracle,
    exhaustive_factor_scan,
    factorizations_oracle,
    is_reduced_word_of,
    is_shifted_longest_word,
    position_inversions_oracle,
    symmetries_oracle,
)
from whole_group import above, elements, ranks, table


def P(text):
    return perms.parse_perm(text)


def factor(cert):
    """The block of j that the certificate deletes."""
    return cert.j[cert.start:cert.start + cert.length]


def comparable_pairs(n):
    """Every pair x <= y in S_n."""
    s_n = list(itertools.permutations(range(1, n + 1)))
    return [(x, y) for x in s_n for y in s_n if bruhat.bruhat_leq(x, y)]


def sampled_pairs(n, count, seed):
    """``count`` seeded random pairs x <= y in S_n."""
    rng = random.Random(seed)
    s_n = list(itertools.permutations(range(1, n + 1)))
    pairs = []
    while len(pairs) < count:
        x, y = rng.choice(s_n), rng.choice(s_n)
        if bruhat.bruhat_leq(x, y):
            pairs.append((x, y))
    return pairs


def long_top_pairs(per_length, seed):
    """``per_length`` seeded random pairs x <= y in S_7 for each length of
    y from 16 to 21, all above the default ``max_word_length`` of 15."""
    rng = random.Random(seed)
    s_7 = list(perms.all_perms(7))
    pairs = []
    for length in range(16, 22):
        tops = [y for y in s_7 if perms.length(y) == length]
        found = 0
        while found < per_length:
            x, y = rng.choice(s_7), rng.choice(tops)
            if bruhat.bruhat_leq(x, y):
                pairs.append((x, y))
                found += 1
    return pairs


def assert_certificate_oracle(x, y, cert):
    """The certificate's i is its j minus one block of the length gap,
    and i and j are reduced words of x and y, by `tests/oracles.py`."""
    assert cert.length == len(cert.j) - len(cert.i)
    assert cert.i == cert.j[:cert.start] + cert.j[cert.start + cert.length:]
    assert is_reduced_word_of(cert.j, y)
    assert is_reduced_word_of(cert.i, x)


class TestFactorDeletion:
    def test_diamond_counterexample_pair(self):
        assert forcing.factor_deletion(P("1324"), P("2341")) is None

    def test_hexagon_interval_has_certificate(self):
        cert = forcing.factor_deletion(P("1243"), P("4213"))
        assert cert is not None
        assert cert.j[:cert.start] + cert.j[cert.start + cert.length:] == \
            cert.i
        assert words.evaluate(cert.i, 4) == P("1243")
        assert words.evaluate(cert.j, 4) == P("4213")

    def test_equal_endpoints_empty_factor(self):
        w = P("3241")
        cert = forcing.factor_deletion(w, w)
        assert cert is not None
        assert cert.length == 0
        assert cert.i == cert.j

    def test_walk_stops_at_least_possible_pair(self, monkeypatch):
        # no pair is below (lexleast(y), 0): for x == y the first triple,
        # u = e, gives it, and the other 719 prefixes of w0 in S_6 are
        # never built
        walk, seen = forcing._factorizations, []

        def counting(x, y):
            for triple in walk(x, y):
                seen.append(triple)
                yield triple

        monkeypatch.setattr(forcing, "_factorizations", counting)
        w0, e = perms.longest(6), perms.identity(6)
        cert = forcing.factor_deletion(w0, w0)
        assert (cert.j, cert.start, cert.length) == (
            words.lex_least_reduced_word(w0), 0, 0)
        assert seen == [(e, e, w0)]

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            forcing.factor_deletion(P("2341"), P("4123"))

    def test_first_hit_is_lexicographic(self):
        # the certificate is the first hit of the oracle's scan over R(y)
        # in lex order with starts ascending, and None exactly when it has
        # none: the word and the start rule against oracles alone
        for n in (4, 5):
            for x, y in comparable_pairs(n):
                cert = forcing.factor_deletion(x, y)
                hits = exhaustive_factor_scan(x, y)
                if not hits:
                    assert cert is None
                else:
                    assert (cert.j, cert.start) == hits[0]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_decision_matches_deletion_oracle(self, n):
        # the deletion decision and every factorization behind it
        pairs = comparable_pairs(n) if n < 6 else sampled_pairs(6, 1500, 6)
        for x, y in pairs:
            found = list(forcing._factorizations(x, y))
            expected = factorizations_oracle(x, y)
            assert len(found) == len(set(found)), (x, y)
            assert set(found) == expected, (x, y)
            assert (forcing.factor_deletion(x, y) is None) == (
                not expected
            ), (x, y)

    def test_tops_past_old_word_length_cap_match_oracle(self):
        # factor_deletion enumerates no reduced words, so it decides tops
        # longer than max_word_length; check them against the oracle
        pairs = long_top_pairs(40, 7)
        decided = set()
        for x, y in pairs:
            cert = forcing.factor_deletion(x, y)
            assert (cert is not None) == deletion_oracle(x, y), (x, y)
            if cert is not None:
                assert_certificate_oracle(x, y, cert)
            decided.add(cert is None)
        assert decided == {True, False}

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


class TestRaisedGroupSize:
    @pytest.mark.parametrize("x,y", [("1324", "2341"), ("1243", "4213")])
    def test_factor_deletion_in_s9(self, x, y):
        x, y = P(x), P(y)
        x9, y9 = perms.embed(x, 9), perms.embed(y, 9)
        with pytest.raises(CapExceeded, match="max_n=8"):
            forcing.factor_deletion(x9, y9)
        cert = forcing.factor_deletion(x9, y9, Limits(max_n=9))
        # every reduced word of y9 uses letters of S_4 alone
        assert cert == forcing.factor_deletion(x, y)
        assert (cert is not None) == deletion_oracle(x, y)
        # and so does every factorization
        assert set(forcing._factorizations(x9, y9)) == {
            tuple(perms.embed(p, 9) for p in triple)
            for triple in factorizations_oracle(x, y)
        }
        hit = next(forcing._deletion_hits(x9, y9), None)
        assert (hit is not None) == deletion_oracle(x, y)

    def test_intervals_of_an_s9_ideal_over_the_cap(self, monkeypatch):
        # w is held to the cap at the call, before its ideal is built,
        # even where m is within it; with the cap raised, the covers of
        # S_3 are the intervals shaped like the ideal of s_1
        built = []
        ideal = bruhat.ideal

        def record(w):
            built.append(w)
            return ideal(w)

        monkeypatch.setattr(bruhat, "ideal", record)
        w = perms.embed(P("21"), 9)
        with pytest.raises(CapExceeded, match="max_n=8"):
            forcing.intervals_isomorphic_to(w, 3)
        assert built == []
        got = list(forcing.intervals_isomorphic_to(w, 3, Limits(max_n=9)))
        assert built == [w]
        assert got == [(x, y) for x in perms.all_perms(3)
                       for y in sorted(cover_tops_oracle(x))]

    def test_forces_worker_in_s9(self):
        # the cap is checked where input enters, in forces_factor; the
        # worker takes the group size it is given
        with pytest.raises(CapExceeded, match="max_n=8"):
            forcing.forces_factor(P("21"), 9)
        shape = forcing._ideal_fingerprint((2, 1))
        # the bottoms least in their symmetry orbit among the first 30 of
        # S_9; the intervals shaped like the ideal of 21 are the covers,
        # and each admits the deletion of one letter
        bottoms = itertools.islice(itertools.permutations(range(1, 10)), 30)
        least = [x for x in bottoms if x <= min(symmetries_oracle(x))]
        assert len(least) < 30
        got = forcing._forces_range(shape, least)
        assert got == ({x: len(cover_tops_oracle(x)) for x in least}, None)
        # the S_9 rank table holds the rows of those bottoms and nothing
        # else: no permutation, and no kept ball, each bottom being asked
        # for once
        table = rank_table(9)
        assert set(table) == {tables.rank(x) for x in least}
        assert all(sorted(table[tables.rank(x)])
                   == sorted(map(tables.rank, cover_tops_oracle(x)))
                   for x in least)
        assert (table.kept, table.kept_bytes) == ({}, 0)
        assert set(vars(table)) == {
            "m", "weights", "asked", "kept", "kept_bytes"}


def table_scan(w, m):
    """Every [x, y] in S_m isomorphic to the ideal of w, in (x, y) order,
    from the interval masks above[x] & below[y] of the whole-group
    table (whose ids are rank-major, hence the final sort)."""
    target = posets.poset_from_interval(bruhat.ideal(w))
    cert = posets._certificate(target.ranks, target.covers)
    d = perms.length(w)
    gt = table(m)
    up = above(m)
    group = elements(gt, m)
    found = []
    for xid, (x, rx) in enumerate(zip(group, ranks(gt))):
        if rx + d >= len(gt.rank_masks):
            continue
        for yid in iter_bits(up[xid] & gt.rank_masks[rx + d]):
            mask = up[xid] & gt.below[yid]
            if mask.bit_count() != target.size:
                continue
            if posets._certificate(*gt.structure(mask)) == cert:
                found.append((x, group[yid]))
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
            for y in cover_tops_oracle(x)
        ]
        assert len(pairs) == len(covers) == 8
        assert set(pairs) == set(covers)

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

    def test_m_not_an_integer_rejected(self):
        with pytest.raises(ValueError, match="invalid group size n=3.0"):
            forcing.intervals_isomorphic_to(P("21"), 3.0)


class TestForcesFactor:
    @pytest.mark.parametrize("jobs", [-1, 0, 2.0, True])
    def test_jobs_not_a_count_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be None or an "
                                             "integer of at least 1"):
            forcing.forces_factor(P("21"), 3, jobs=jobs)

    def test_m_max_not_an_integer_rejected(self):
        # refused before the scan, instead of reaching range() inside it,
        # and before it is compared with the group size
        for m_max in (3.0, "3", [3]):
            with pytest.raises(ValueError, match=re.escape(
                    f"invalid group size n={m_max!r}")):
                forcing.forces_factor(P("21"), m_max)

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
            witness = structure.nonforcing_witness(w)
            if witness is None:
                continue
            bound = len(w) + (witness.k2 - witness.k1)
            verdict = forcing.forces_factor(w, bound)
            assert verdict.outcome == "counterexample"
            # the constructed witness interval is itself a counterexample
            assert forcing.factor_deletion(
                witness.w_minus, witness.w_plus
            ) is None

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

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_sample_certificate_is_last_interval(self, jobs):
        # the scan builds one certificate, for the last interval it decides
        cases = [*itertools.permutations((1, 2, 3)), P("4231")]
        for w in cases:
            verdict = forcing.forces_factor(w, 5, jobs=jobs)
            if verdict.counterexample is not None:
                assert verdict.sample_certificate is None
                continue
            *_, (x, y) = forcing.intervals_isomorphic_to(w, 5)
            assert verdict.sample_certificate == forcing.factor_deletion(x, y)
            assert verdict.sample_certificate is not None

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_one_certificate_per_verdict(self, jobs, monkeypatch,
                                         inline_pool):
        # the sample certificate is built once, not once per m and range
        calls = []
        factor_deletion = forcing.factor_deletion

        def counting(*args):
            calls.append(args)
            return factor_deletion(*args)

        monkeypatch.setattr(forcing, "factor_deletion", counting)
        verdict = forcing.forces_factor(P("321"), 5, jobs=jobs)
        assert verdict.sample_certificate is not None
        assert len(calls) == 1
        assert len(inline_pool) == (0 if jobs is None else 3)

    def test_word_length_cap_is_only_echoed(self):
        # the scan enumerates no reduced words: tops longer than
        # max_word_length are decided, and the cap shows only in the stats
        expected = forcing.forces_factor(P("21"), 5).to_json()
        expected["stats"]["max_word_length"] = 3
        for jobs in (None, 2):
            verdict = forcing.forces_factor(
                P("21"), 5, jobs=jobs, limits=Limits(max_word_length=3)
            )
            assert verdict.outcome == "no-counterexample-up-to-bound"
            assert verdict.to_json() == expected

    def test_4231_first_s7_verdict(self):
        # the open case of S_4, in S_7, whose tops reach length 21
        w = P("4231")
        verdict = forcing.forces_factor(w, 7)
        assert verdict.outcome == "no-counterexample-up-to-bound"
        assert verdict.intervals_examined == 2555
        assert forcing.forces_factor(w, 7, jobs=2).to_json() == (
            verdict.to_json()
        )
        # the sample certificate is that of the last interval scanned
        x, y = P("7651234"), P("7654231")
        assert verdict.sample_certificate == forcing.factor_deletion(x, y)
        assert_certificate_oracle(x, y, verdict.sample_certificate)
        assert deletion_oracle(x, y)
        assert backtracking_isomorphic(
            posets.poset_from_interval(bruhat.interval(x, y)),
            posets.poset_from_interval(bruhat.ideal(w)),
        )

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

    def test_proof_counts_reduced_words(self):
        # the proof counts R(y) without building it; check it against
        # enumeration, and each word against every deletion start
        for y in perms.all_perms(5):
            proof = forcing._no_factor_proof(y, 1)
            total = len(words.reduced_words(y))
            assert proof == {
                "words_scanned": total,
                "deletions_tried": total * perms.length(y),
            }


def oracle_comparable_pairs(bottoms):
    """Every pair x <= y with x in ``bottoms``: y runs over the closure of
    x under :func:`oracles.cover_tops_oracle`."""
    pairs = []
    for x in bottoms:
        above_x, frontier = {x}, [x]
        while frontier:
            for y in cover_tops_oracle(frontier.pop()):
                if y not in above_x:
                    above_x.add(y)
                    frontier.append(y)
        pairs += [(x, y) for y in sorted(above_x)]
    return pairs


def full_scan_verdict(w, m_max):
    """(outcome, counterexample, intervals examined, certificate of the
    last interval) of the scan of every bottom of S_n..S_m_max, each
    interval of :func:`forcing.intervals_isomorphic_to` decided by
    :func:`oracles.deletion_oracle`."""
    examined, last = 0, None
    for m in range(len(w), m_max + 1):
        for x, y in forcing.intervals_isomorphic_to(w, m):
            examined += 1
            last = x, y
            if not deletion_oracle(x, y):
                return ("counterexample", forcing.Counterexample(x, y, m),
                        examined, None)
    sample = None if last is None else forcing.factor_deletion(*last)
    return "no-counterexample-up-to-bound", None, examined, sample


class TestMaskAndPositions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_inverted_pairs(self, n):
        # the shifted blocks against a comparison of every pair, with
        # the pairs' bits in the order of itertools.combinations
        bit = {pair: 1 << k for k, pair in
               enumerate(itertools.combinations(range(n), 2))}
        for w in itertools.permutations(range(1, n + 1)):
            mask, pos = forcing._mask_and_positions(w)
            assert mask == sum(
                bit[pair] for pair in position_inversions_oracle(w)), w
            assert [w[p] for p in pos] == list(range(1, n + 1)), w


class TestOrbitScan:
    """The scan builds balls only for the least bottom of each orbit of
    inversion and conjugation by w0; ``notes/decisions.md`` has the
    proof that the verdict is the full scan's."""

    def test_each_range_is_filtered_once(self, monkeypatch):
        # a second shape over the same S_m replays the first's flags,
        # and a cleared memo filters all of S_m again
        calls = []
        screen = perms.is_orbit_extreme

        def counted(w, greatest=False):
            calls.append(w)
            return screen(w, greatest)

        monkeypatch.setattr(perms, "is_orbit_extreme", counted)
        forcing.forces_factor(P("32145"), 5)
        assert len(calls) == 120
        forcing.forces_factor(P("21435"), 5)
        assert len(calls) == 120
        posets._extremes.cache_clear()
        forcing.forces_factor(P("12354"), 5)
        assert len(calls) == 240
        assert forcing._level.cache_info().misses == 3

    @pytest.mark.parametrize("n,sample", [(4, None), (5, None), (6, 150)])
    def test_deletion_kept_by_symmetries(self, n, sample):
        # over tests/oracles.py alone: each non-trivial symmetry maps an
        # interval with a deletion to one with a deletion, and one with
        # none to one with none
        s_n = list(itertools.permutations(range(1, n + 1)))
        if sample is None:
            pairs = oracle_comparable_pairs(s_n)
        else:
            rng = random.Random(2020)
            pairs = rng.sample(oracle_comparable_pairs(rng.sample(s_n, 12)),
                               sample)
        outcomes = set()
        for x, y in pairs:
            found = deletion_oracle(x, y)
            outcomes.add(found)
            for gx, gy in zip(symmetries_oracle(x), symmetries_oracle(y)):
                assert deletion_oracle(gx, gy) == found, (x, y, gx, gy)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n,m_max", [(4, 6), (5, 5)])
    def test_verdicts_equal_full_scan(self, n, m_max):
        references = {}
        for w in perms.all_perms(n):
            key = forcing._ideal_fingerprint(w)
            if key not in references:
                references[key] = full_scan_verdict(w, m_max)
            verdict = forcing.forces_factor(w, m_max)
            assert (
                verdict.outcome, verdict.counterexample,
                verdict.intervals_examined, verdict.sample_certificate,
            ) == references[key], w

    @pytest.mark.parametrize("text,m_max", [
        ("21", 5), ("321", 6), ("2314", 5), ("3412", 5), ("4231", 6),
        ("1243", 5),
    ])
    def test_ranges_equal_full_scan(self, text, m_max, inline_pool):
        # with jobs=2 each S_m from S_4 on is cut into eight ranges, so
        # the members of an orbit fall in different ranges
        w = P(text)
        seq = forcing.forces_factor(w, m_max)
        forcing._level.cache_clear()
        par = forcing.forces_factor(w, m_max, jobs=2)
        assert par.to_json() == seq.to_json()
        assert (
            par.outcome, par.counterexample,
            par.intervals_examined, par.sample_certificate,
        ) == full_scan_verdict(w, m_max)
        assert {pool.max_workers for pool in inline_pool} == {2}

    def test_fold_keeps_no_images(self):
        # the fold makes each bottom's images as it reaches the bottom:
        # S_8 has 10,558 orbit-minimum bottoms, each its own top, and a
        # set of images held for each of them traced 7.8 MB
        forcing.forces_factor((1,), 7)
        tracemalloc.start()
        try:
            verdict = forcing.forces_factor((1,), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.intervals_examined == sum(
            math.factorial(m) for m in range(1, 9))
        assert peak < 4 * 2**20


def levels_scanned():
    return forcing._level.cache_info().misses


class TestShapeVerdictCache:
    @pytest.mark.parametrize("n,m_max,classes,levels", [
        pytest.param(4, 6, 10, 23, id="4-6-10"),
        pytest.param(5, 5, 30, 30, id="5-5-30"),
    ])
    def test_cached_verdicts_equal_cold_ones(self, n, m_max, classes,
                                             levels):
        # one scan per (ideal shape, S_m): the misses are the levels each
        # shape reaches before its first counterexample, and every
        # verdict served from the cache equals a cold call's
        s_n = list(perms.all_perms(n))
        warm = [forcing.forces_factor(w, m_max).to_json() for w in s_n]
        reached = {}
        for w, got in zip(s_n, warm):
            last = got.get("counterexample", {}).get("m", m_max)
            reached[forcing._ideal_fingerprint(w)[3]] = last - n + 1
        assert len(reached) == classes
        assert levels_scanned() == sum(reached.values()) == levels
        for w, got in zip(s_n, warm):
            forcing._level.cache_clear()
            assert got == forcing.forces_factor(w, m_max).to_json()

    def test_surveys_share_levels(self):
        # a survey scans only the (shape, S_m) levels that no earlier
        # survey in the process scanned, whatever its group size or bound;
        # the w with no counterexample are exactly the family F_n of the
        # conjectured classification, by its own predicate
        def in_family(w):
            moved = [i for i, v in enumerate(w, 1) if v != i]
            return not moved or (w[moved[0] - 1] == moved[-1]
                                 and w[moved[-1] - 1] == moved[0])

        scanned, unrefuted = [], []
        for n, m_max in [(4, 6), (5, 7), (4, 5)]:
            before = levels_scanned()
            survey = {w: forcing.forces_factor(w, m_max).outcome
                      for w in perms.all_perms(n)}
            scanned.append(levels_scanned() - before)
            unrefuted.append(sorted(
                w for w, outcome in survey.items()
                if outcome == "no-counterexample-up-to-bound"))
            family = sorted(filter(in_family, survey))
            assert unrefuted[-1] == family, (n, m_max)
        assert scanned == [23, 44, 0]
        assert [len(ws) for ws in unrefuted] == [8, 18, 8]

    def test_lower_bound_is_served_from_levels(self):
        # m_max 5 after m_max 6 scans nothing, and equals a cold call
        forcing.forces_factor(P("321"), 6)
        before = levels_scanned()
        warm = forcing.forces_factor(P("321"), 5).to_json()
        assert levels_scanned() == before
        forcing._level.cache_clear()
        assert warm == forcing.forces_factor(P("321"), 5).to_json()

    def test_same_shape_other_size_shares_levels(self):
        # 21 and 2134 share the 2-chain ideal: 21 scans S_2, S_3, S_4,
        # and 2134 reuses the S_4 level and examines what 21 did there
        short, long = P("21"), P("2134")
        assert (forcing._ideal_fingerprint(short)
                == forcing._ideal_fingerprint(long))
        a = forcing.forces_factor(short, 4)
        b = forcing.forces_factor(long, 4)
        info = forcing._level.cache_info()
        assert (info.misses, info.hits) == (3, 1)
        below = forcing.forces_factor(short, 3)
        assert b.intervals_examined == (
            a.intervals_examined - below.intervals_examined)
        assert b.intervals_examined < a.intervals_examined

    @pytest.mark.parametrize("good,bad", [(2, 2.0), (None, 0)])
    def test_bad_jobs_refused_when_cached(self, good, bad, inline_pool):
        # jobs is checked at the call, not by the scan a cache hit skips
        forcing.forces_factor(P("21"), 3, jobs=good)
        with pytest.raises(ValueError, match="jobs must be None or an "
                                             "integer of at least 1"):
            forcing.forces_factor(P("21"), 3, jobs=bad)
        assert levels_scanned() == 2

    def test_hit_echoes_the_callers_w(self):
        first = forcing.forces_factor(P("2134"), 4)
        hit = forcing.forces_factor(P("1324"), 4)
        assert forcing._level.cache_info().hits == 1
        assert (first.w, hit.w) == (P("2134"), P("1324"))
        expected = first.to_json()
        expected["w"] = "1324"
        assert hit.to_json() == expected


def cold_caches():
    """Clear what the ``cold_scan_caches`` fixture clears, mid-test."""
    forcing._level.cache_clear()
    tables.rank_table.cache_clear()
    posets._extremes.cache_clear()


def fresh_balls(table, x, depth):
    """``RankTable.ball`` as a table that keeps no ball: a fresh one."""
    return tables.up_ball(x, depth)


class TestKeptBalls:
    """Scans that read kept and grown balls give what scans over fresh
    balls give, whatever the order and the budget."""

    def test_survey_json_in_any_order(self, monkeypatch):
        s_4 = list(perms.all_perms(4))

        def verdict(w):
            return json.dumps(forcing.forces_factor(w, 6).to_json())

        with monkeypatch.context() as patch:
            patch.setattr(tables.RankTable, "ball", fresh_balls)
            expected = [verdict(w) for w in s_4]
        cold_caches()
        assert [verdict(w) for w in s_4] == expected
        assert rank_table(6).kept
        cold_caches()
        assert [verdict(w) for w in reversed(s_4)] == expected[::-1]
        # the benchmark's order at seed 1 meets the deepest shape first
        shuffled = list(zip(s_4, expected))
        random.Random(1).shuffle(shuffled)
        cold_caches()
        assert [verdict(w) for w, _ in shuffled] == [
            want for _, want in shuffled]
        for w, want in zip(s_4, expected):
            cold_caches()
            assert verdict(w) == want

    def test_shallower_shapes_read_kept_deep_balls(self, monkeypatch):
        texts = ("321", "4231")
        with monkeypatch.context() as patch:
            patch.setattr(tables.RankTable, "ball", fresh_balls)
            expected = [list(forcing.intervals_isomorphic_to(P(text), 6))
                        for text in texts]
        cold_caches()
        # the second scan of the shape of 4321 keeps its depth-6 balls
        for _ in range(2):
            forcing._level.cache_clear()
            forcing.forces_factor(P("4321"), 6)
        kept = rank_table(6).kept
        assert kept and all(len(ball.rank_masks) == 7
                            for ball in kept.values())
        assert [list(forcing.intervals_isomorphic_to(P(text), 6))
                for text in texts] == expected

    def test_small_budget_keeps_the_survey(self, monkeypatch):
        s_4 = list(perms.all_perms(4))
        with monkeypatch.context() as patch:
            patch.setattr(tables.RankTable, "ball", fresh_balls)
            expected = [forcing.forces_factor(w, 6).to_json() for w in s_4]
        cold_caches()
        monkeypatch.setattr(tables, "KEPT_BYTES", 4096)
        assert [forcing.forces_factor(w, 6).to_json() for w in s_4] == expected
        kept = 0
        for m in (4, 5, 6):
            table = rank_table(m)
            assert table.kept_bytes == sum(
                map(tables._estimate, table.kept.values())) <= 4096
            kept += len(table.kept)
        assert kept

    def test_single_shape_scan_keeps_no_ball(self):
        assert list(forcing.intervals_isomorphic_to(P("4231"), 6))
        table = rank_table(6)
        assert (table.kept, table.kept_bytes) == ({}, 0)

    def test_warm_verdict_builds_at_most_one_ball(self, monkeypatch):
        # every level is cached, so a warm call reads only the ball of
        # the sample's bottom, which its second request keeps
        w = (4, 2, 3, 1)
        first = forcing.forces_factor(w, 7).to_json()
        grown = []
        grow = tables.Ball.grow

        def counted(ball, table, depth):
            grown.append(depth)
            grow(ball, table, depth)

        monkeypatch.setattr(tables.Ball, "grow", counted)
        for _ in range(4):
            assert forcing.forces_factor(w, 7).to_json() == first
        assert len(grown) <= 1


class TestCertificateShiftedLongest:
    def test_hexagon_certificates(self):
        # every interval in S4 shaped like the full S3 yields a factor
        # whose shift is a reduced word of 321
        for x, y in forcing.intervals_isomorphic_to(P("321"), 4):
            cert = forcing.factor_deletion(x, y)
            assert cert is not None
            assert cert.length == perms.length(y) - perms.length(x) == 3
            assert is_shifted_longest_word(factor(cert), 3)

    def test_single_letter_k2(self):
        x = P("1324")
        y = P("3124")
        cert = forcing.factor_deletion(x, y)
        assert cert.length == perms.length(y) - perms.length(x) == 1
        assert is_shifted_longest_word(factor(cert), 2)

    def test_corrupted_certificate(self):
        # a factor of the wrong size is no reduced word of the reversal
        bad = forcing.FactorCertificate(
            j=(1, 3), start=0, length=2, i=()
        )
        assert not is_shifted_longest_word(factor(bad), 3)
