"""Acceptance suite: every criterion is exact (combinatorial), and each
test prints one PASS/FAIL line (run with -s to see them live).

Criterion 6's second half pins the least counterexample interval for 3412
(smallest m, then least (x, y) in one-line order) by a scan built only from
the independent oracles in tests/oracles.py, and asserts that the bounded
forcing search reports exactly that interval, [13425, 45123].  The interval
[12543, 52341], once stated as the expected answer, is isomorphic to the
ideal of 3412 but admits a factor deletion (delete the consecutive block
1321 from 4132134 to get 434), so it is no counterexample; the test checks
both facts.  The analysis is in notes/decisions.md.
"""

import functools
import itertools
import random

from bruhatkit import bruhat, forcing, perms, posets, structure, words
from bruhatkit.tables import iter_bits

from oracles import backtracking_isomorphic, brute_force_reduced_words, \
    exhaustive_factor_scan, is_shifted_longest_word, subword_oracle_leq, \
    reduced_subword_closure
from whole_group import elements, ranks, table


def P(text):
    return perms.parse_perm(text)


def _criterion(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


# --- criterion 1 -----------------------------------------------------------


def test_criterion_1():
    def check():
        assert words.reduced_words(P("3241")).to_json() == [
            "1213", "1231", "2123",
        ]
        assert perms.length(P("3241")) == 4

    _criterion(1, "R(3241) and its length", check)


# --- criterion 2 -----------------------------------------------------------

LISTED_52341 = sorted(
    """1234321 1243421 1423421 4123421 1243241 1423241 4123241
       1243214 1423214 4123214 1432341 4132341 4312341 1432314
       4132314 4312314 1432134 4132134 4312134 4321234""".split()
)

LISTED_21543 = sorted(
    "1343 3143 3413 3431 1434 4134 4314 4341".split()
)


def test_criterion_2():
    def check():
        assert words.reduced_words(P("12543")).to_json() == ["343", "434"]
        assert words.reduced_words(P("21543")).to_json() == LISTED_21543
        r = words.reduced_words(P("52341"))
        assert len(r) == 20
        assert r.to_json() == LISTED_52341

    _criterion(2, "reduced-word fixtures in S5", check)


# --- criterion 3 -----------------------------------------------------------


def test_criterion_3():
    def check():
        iv = bruhat.interval(P("2143"), P("4231"))
        assert {perms.format_perm(z) for z in iv.elements} == {
            "2143",
            "2341", "2413", "3142", "4123",
            "2431", "3241", "4213", "4132",
            "4231",
        }
        assert iv.rank_profile() == (1, 4, 4, 1)
        for n in (4, 5, 6):
            for w in itertools.permutations(range(1, n + 1)):
                assert not posets.is_isomorphic(iv, bruhat.ideal(w))

    _criterion(3, "[2143,4231] is no ideal in S4/S5/S6", check)


# --- criterion 4 -----------------------------------------------------------

_atlas_cache = {}


def _atlas(n):
    if n not in _atlas_cache:
        _atlas_cache[n] = posets.atlas(n, 5)
    return _atlas_cache[n]


def _stabilized(lengths):
    """Counts at the first n whose atlas agrees with n+1 on the given
    lengths (both series).  The scan starts at the smallest n where the
    longest requested length is realizable at all (C(n,2) >= length), so
    vacuous 0 == 0 agreements in tiny groups do not count."""
    first_n = next(
        n for n in range(2, 8) if n * (n - 1) // 2 >= max(lengths)
    )
    for n in range(first_n, 7):
        a, b = _atlas(n), _atlas(n + 1)
        slots = lambda r, which: [r.counts(which)[i] for i in lengths]
        if slots(a, "intervals") == slots(b, "intervals") and slots(
            a, "ideals"
        ) == slots(b, "ideals"):
            return slots(a, "intervals"), slots(a, "ideals")
    raise AssertionError(f"no stabilization for lengths {lengths} by n=7")


def test_criterion_4():
    def check():
        intervals, ideals = _stabilized(range(5))
        assert intervals == [1, 1, 1, 3, 7]
        assert ideals == [1, 1, 1, 2, 3]
        intervals5, ideals5 = _stabilized([5])
        assert intervals5 == [25]
        assert ideals5 == [5]

    _criterion(4, "atlas rows stabilize to the published counts", check)


# --- criterion 5 -----------------------------------------------------------


def test_criterion_5():
    def check():
        d = structure.decompose(P("2314"))
        assert d == structure.Decomposition(
            m=1, a1=(1,), a2=(2,), side="left"
        )
        witness = structure.nonforcing_witness(P("2314"))
        assert witness.w_minus == P("1324")
        assert witness.w_plus == P("2341")
        assert witness.full_word == (1, 2, 3)
        assert structure.decompose(P("3412")) is None

    _criterion(5, "decomposition and witness fixtures", check)


# --- criterion 6 -----------------------------------------------------------

_oracle_leq = functools.cache(subword_oracle_leq)
_oracle_words = functools.cache(brute_force_reduced_words)


def oracle_interval_poset(x, y):
    """[x, y] as a ranked poset, with <= taken from the subword oracle."""
    lo, hi = perms.length(x), perms.length(y)
    elements = [
        z for z in itertools.permutations(range(1, len(x) + 1))
        if lo <= perms.length(z) <= hi and _oracle_leq(x, z)
        and _oracle_leq(z, y)
    ]
    index = {z: i for i, z in enumerate(elements)}
    return posets.RankedPoset(
        ranks=tuple(perms.length(z) for z in elements),
        covers=tuple(
            (index[a], index[b])
            for a in elements for b in elements
            if perms.length(b) == perms.length(a) + 1 and _oracle_leq(a, b)
        ),
    )


def oracle_admits_deletion(x, y):
    """Some brute-force reduced word of y loses a consecutive block and
    leaves a brute-force reduced word of x."""
    gap = perms.length(y) - perms.length(x)
    rx = _oracle_words(x)
    return any(
        j[:s] + j[s + gap:] in rx
        for j in _oracle_words(y)
        for s in range(len(j) - gap + 1)
    )


def oracle_least_counterexample(w, m_max):
    """The least (x, y), by smallest m and then one-line order, with x <= y
    in S_m for len(w) <= m <= m_max, [x, y] isomorphic to the ideal of w
    and no factor deletion from y to x; None if there is none.  Uses only
    tests/oracles.py, never bruhatkit.forcing."""
    ideal = oracle_interval_poset(perms.identity(len(w)), w)
    gap = perms.length(w)
    for m in range(len(w), m_max + 1):
        group = list(itertools.permutations(range(1, m + 1)))
        for x in group:
            for y in group:
                if (
                    perms.length(y) - perms.length(x) == gap
                    and _oracle_leq(x, y)
                    and backtracking_isomorphic(
                        oracle_interval_poset(x, y), ideal
                    )
                    and not oracle_admits_deletion(x, y)
                ):
                    return x, y
    return None


def _show(pair):
    if pair is None:
        return "none"
    return "[" + ", ".join(perms.format_perm(z) for z in pair) + "]"


def test_criterion_6():
    def check():
        v1 = forcing.forces_factor(P("2314"), 4)
        assert v1.outcome == "counterexample"
        assert (v1.counterexample.x, v1.counterexample.y) == (
            P("1324"), P("2341"),
        )
        assert not exhaustive_factor_scan(P("1324"), P("2341"))

        v2 = forcing.forces_factor(P("3412"), 5)
        assert v2.outcome == "counterexample"
        reported = (v2.counterexample.x, v2.counterexample.y)
        assert not exhaustive_factor_scan(*reported)
        least = oracle_least_counterexample(P("3412"), 5)
        assert reported == least, (
            f"forcing search on 3412 reported {_show(reported)}, but the "
            f"oracle scan's least counterexample is {_show(least)}; "
            "see notes/decisions.md"
        )
        assert least == (P("13425"), P("45123"))

        # [12543, 52341] has the shape of the ideal of 3412 but is no
        # counterexample: 4132134 minus its block 1321 is 434.
        assert backtracking_isomorphic(
            oracle_interval_poset(P("12543"), P("52341")),
            oracle_interval_poset(P("1234"), P("3412")),
        )
        word_y, word_x = words.parse_word("4132134"), words.parse_word("434")
        assert word_y in _oracle_words(P("52341"))
        assert word_x in _oracle_words(P("12543"))
        assert word_y[:1] + word_y[5:] == word_x
        assert word_y[1:5] == words.parse_word("1321")

    _criterion(6, "counterexample intervals for 2314 and 3412", check)


# --- criterion 7 -----------------------------------------------------------


def test_criterion_7():
    def check():
        for k, m_max in ((2, 6), (3, 5), (4, 5)):
            w0k = perms.longest(k)
            verdict = forcing.forces_factor(w0k, m_max)
            assert verdict.outcome == "no-counterexample-up-to-bound", (
                f"reversal of size {k} was counterexampled: "
                f"{verdict.counterexample}"
            )
            assert verdict.sample_certificate is not None
            for m in range(k, m_max + 1):
                for x, y in forcing.intervals_isomorphic_to(w0k, m):
                    cert = forcing.factor_deletion(x, y)
                    assert cert is not None
                    assert cert.length == perms.length(y) - perms.length(x)
                    factor = cert.j[cert.start:cert.start + cert.length]
                    assert is_shifted_longest_word(factor, k)

    _criterion(7, "reversals force factors at desk scale, with "
                  "shift-checked certificates", check)


# --- criterion 8 -----------------------------------------------------------


def _check_subword_oracle():
    s4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]
    for x in s4:
        for y in s4:
            assert bruhat.bruhat_leq(x, y) == subword_oracle_leq(x, y)
    rng = random.Random(8128)
    s5 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4, 5))]
    closures = {}
    for _ in range(10_000):
        x, y = rng.choice(s5), rng.choice(s5)
        if y not in closures:
            closures[y] = reduced_subword_closure(
                words.lex_least_reduced_word(y), 5
            )
        assert bruhat.bruhat_leq(x, y) == (x in closures[y])


def _check_coatom_positions_exhaustive_s5():
    # for x < y with x(i) != y(i), some coatom w of [x, y] has
    # w(i) != y(i); the coatoms are the w with x <= w one rank below y,
    # read off the masks of the whole-group table
    gt = table(5)
    gaps = ranks(gt)
    group = elements(gt, 5)
    for yid, y in enumerate(group[1:], 1):
        below_y = gt.below[yid] & gt.rank_masks[gaps[yid] - 1]
        for xid in iter_bits(gt.below[yid] ^ 1 << yid):
            x = group[xid]
            tops = [group[w] for w in iter_bits(below_y)
                    if gt.below[w] >> xid & 1]
            assert tops
            for i in range(5):
                if x[i] != y[i]:
                    assert any(w[i] != y[i] for w in tops), (x, y, i + 1)


def _check_swap_string_roundtrips_s5():
    for k in (2, 3, 4):
        w0k = perms.longest(k)
        count = 0
        for x, y in forcing.intervals_isomorphic_to(w0k, 5):
            ss = structure.detect_swap_string(x, y)
            assert ss is not None and ss.k == k
            if k % 2 == 1:
                center = ss.positions[k // 2]
                assert x[center - 1] == y[center - 1]
            a, b, c, t = structure.swap_string_factorization(x, y)
            assert words.evaluate(a + c, 5) == x
            assert words.evaluate(a + b + c, 5) == y
            assert words.is_reduced(a + b + c, 5)
            assert len(b) == k * (k - 1) // 2
            assert words.evaluate(words.shift(b, t), k) == w0k
            count += 1
        assert count > 0


def _check_brute_force_counts():
    for n, expected in ((3, 2), (4, 16), (5, 768)):
        assert len(brute_force_reduced_words(perms.longest(n))) == expected
        assert len(words.reduced_words(perms.longest(n))) == expected


def test_criterion_8():
    def check():
        _check_subword_oracle()
        _check_coatom_positions_exhaustive_s5()
        _check_swap_string_roundtrips_s5()
        _check_brute_force_counts()

    _criterion(8, "property suites (oracle equivalence, coatom positions, "
                  "swap-string round-trips, reversal word counts)", check)
