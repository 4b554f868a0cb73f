import itertools
import math
import random
import sys
import tracemalloc

import pytest

from bruhatkit import bruhat, forcing, tables
from bruhatkit.bruhat import bruhat_leq
from bruhatkit.limits import Limits
from bruhatkit.tables import (
    count_above, rank, rank_table, read_shape, shape_key, up_ball)
from oracles import cover_tops_oracle, up_ball_oracle
from whole_group import elements, ranks


def seeded_perms(n, count, seed):
    """``count`` seeded random permutations of S_n."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_is_the_lexicographic_index(n):
    # one-line order is rank order, and the ranks are 0..n!-1
    ranks = [rank(w) for w in itertools.permutations(range(1, n + 1))]
    assert ranks == list(range(math.factorial(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_decodes_every_rank(n):
    # the decoder inverts rank on all of S_n: rank r is the r-th
    # permutation in one-line order
    table = rank_table(n)
    group = list(itertools.permutations(range(1, n + 1)))
    assert [table.perm(r) for r in range(len(group))] == group


@pytest.mark.parametrize("n", range(8, 13))
def test_perm_inverts_rank_on_seeded_ranks(n):
    table = rank_table(n)
    rng = random.Random(800 + n)
    for r in [0, math.factorial(n) - 1,
              *(rng.randrange(math.factorial(n)) for _ in range(200))]:
        assert rank(table.perm(r)) == r
    for w in seeded_perms(n, 200, 900 + n):
        assert table.perm(rank(w)) == w


@pytest.mark.parametrize("n,bottoms", [
    *((n, None) for n in range(1, 7)),
    (7, seeded_perms(7, 200, 71)),
    (9, seeded_perms(9, 60, 91)),
    (8, seeded_perms(8, 200, 81)),
])
def test_rows_match_cover_oracle(n, bottoms):
    # a depth-1 ball fills exactly its bottom's row; each row holds the
    # ranks of the transposition-rule covers, each decoded to its cover.
    # Rows are read with get, since table[r] would fill a missing row
    if bottoms is None:
        bottoms = list(itertools.permutations(range(1, n + 1)))
    for x in bottoms:
        up_ball(x, 1)
    table = rank_table(n)
    assert len(table) == len(set(bottoms))
    for x in bottoms:
        row = table.get(rank(x))
        tops = cover_tops_oracle(x)
        assert sorted(row) == sorted(rank(y) for y in tops)
        assert sorted(map(table.perm, row)) == sorted(tops)


@pytest.mark.parametrize("n,ranks", [
    *((n, None) for n in range(1, 8)),
    (8, [0, 40319, *random.Random(82).sample(range(40320), 300)]),
    (9, [0, 362879, *random.Random(92).sample(range(362880), 100)]),
])
def test_rows_equal_the_oracle_cold_and_warm(n, ranks):
    # each row is the oracle's tops in its order, position pairs (i, j)
    # in lexicographic order: filled once with every smaller table cold,
    # when the fill reads one row of each, that of the suffix of its
    # length, and again in a fresh table with the table one size down
    # warm, when it reads that table's rows and fills none
    if ranks is None:
        ranks = range(math.factorial(n))
    perm = rank_table(n).perm
    expected = {r: tuple(map(rank, cover_tops_oracle(perm(r))))
                for r in ranks}
    smaller = range(1, n)
    for r in ranks:
        rank_table.cache_clear()
        assert rank_table(n)[r] == expected[r]
        assert [list(rank_table(k)) for k in smaller] == [
            [r % math.factorial(k)] for k in smaller]
    rank_table.cache_clear()
    if n > 1:
        down = rank_table(n - 1)
        for r in ranks:
            down[r % math.factorial(n - 1)]
    warm = tables.RankTable(n)
    sizes = [len(rank_table(k)) for k in smaller]
    assert all(warm[r] == expected[r] for r in ranks)
    assert [len(rank_table(k)) for k in smaller] == sizes


@pytest.mark.parametrize("n,bottoms", [
    (5, None),
    (6, seeded_perms(6, 120, 61)),
])
def test_up_ball_matches_oracle(n, bottoms):
    if bottoms is None:
        bottoms = list(itertools.permutations(range(1, n + 1)))
    for x in bottoms:
        for depth in range(7):
            # not the oracle's down_adj: covers follow from below and ranks
            ball = up_ball(x, depth)
            oracle_elements, id_ranks, rank_masks, _, below = (
                up_ball_oracle(x, depth))
            assert tuple(map(tuple, (
                elements(ball, n), ranks(ball), ball.rank_masks, ball.below,
            ))) == (oracle_elements, id_ranks, rank_masks, below)


@pytest.mark.parametrize("n", [4, 5])
def test_count_above_matches_oracle(n):
    # every bottom of S_n and every depth up to the top of the group: the
    # level-size count is the number of elements above the bottom in the
    # oracle's up-ball and in the library's
    top = n * (n - 1) // 2
    for x in itertools.permutations(range(1, n + 1)):
        length = sum(a > b for a, b in itertools.combinations(x, 2))
        for depth in range(top - length + 1):
            count = count_above(x, depth)
            assert count == len(up_ball_oracle(x, depth)[0]) - 1, (x, depth)
            assert count == len(up_ball(x, depth).lex_ranks) - 1, (x, depth)


def test_count_above_matches_oracle_on_s6():
    # every bottom of S_6 at depths 0..3: level 2 is counted from row
    # lengths, level 3 as a set; one oracle ball of depth 3 per bottom
    # holds the balls of depths 0..3 as its first levels
    for x in itertools.permutations(range(1, 7)):
        oracle_ranks = up_ball_oracle(x, 3)[1]
        for depth in range(4):
            expected = sum(1 <= r <= depth for r in oracle_ranks)
            assert count_above(x, depth) == expected, (x, depth)


def test_tables_are_one_bounded_cache_per_size():
    # every cache reset clears the tables, and one table serves each m;
    # the cache holds twelve, so a fill of S_12 keeps its whole chain of
    # smaller tables, and it holds no more than twelve
    assert rank_table(5) is rank_table(5)
    assert rank_table.cache_info().maxsize == 12
    x = (2, 1, 3, 4, 5)
    up_ball(x, 2)
    assert len(rank_table(5)) == 1 + len(cover_tops_oracle(x))
    rank_table.cache_clear()
    assert rank_table(5) == {}
    top = rank_table(12)
    top[math.factorial(12) - 1]
    assert rank_table.cache_info().currsize == 12
    assert rank_table(12) is top
    for m in range(13, 16):
        rank_table(m)
    assert rank_table.cache_info().currsize == 12


@pytest.mark.parametrize("x", seeded_perms(6, 12, 62))
def test_grown_ball_is_the_deeper_ball(x):
    # growing appends levels: each depth equals a fresh ball, and the
    # objects of the levels already there stay where they were
    table = rank_table(6)
    ball = up_ball(x, 0)
    for depth in range(1, 8):
        before = [list(field) for field in (
            ball.lex_ranks, ball.rank_masks, ball.below)]
        ball.grow(table, depth)
        assert ball == up_ball(x, depth)
        after = (ball.lex_ranks, ball.rank_masks, ball.below)
        for old, new in zip(before, after):
            assert all(a is b for a, b in zip(old, new))
    ball.grow(table, 3)
    assert ball == up_ball(x, 7)


def test_balls_are_kept_from_the_second_request(monkeypatch):
    table = rank_table(5)
    x, other = (2, 1, 3, 4, 5), (1, 3, 2, 4, 5)
    first = table.ball(x, 2)
    assert first == up_ball(x, 2)
    assert (table.kept, table.kept_bytes) == ({}, 0)
    second = table.ball(x, 2)
    assert second is not first and second == first
    assert table.kept == {rank(x): second}
    # a deeper request grows the kept ball, a shallower one reads it
    assert table.ball(x, 4) is second and second == up_ball(x, 4)
    assert table.ball(x, 1) is second and len(second.rank_masks) == 5
    assert table.kept_bytes == tables._estimate(second)
    # a ball that does not fit is handed out and dropped, and a kept
    # ball grown past the budget too
    monkeypatch.setattr(tables, "KEPT_BYTES", table.kept_bytes)
    table.ball(other, 3)
    assert table.ball(other, 3) == up_ball(other, 3)
    assert table.kept == {rank(x): second}
    assert table.ball(x, 6) is second and second == up_ball(x, 6)
    assert (table.kept, table.kept_bytes) == ({}, 0)


def test_asked_flags_reach_the_largest_rank_asked():
    # the first interval of S_11 has a bottom of rank 0: its one flag,
    # not one per rank of S_11 (39.9 MB), is all the table asks for
    tracemalloc.start()
    try:
        first = next(forcing.intervals_isomorphic_to(
            (2, 1), 11, Limits(max_n=11)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (tuple(range(1, 12)), (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10))
    assert len(rank_table(11).asked) == 1
    assert peak < 2**20


def test_rows_share_one_int_per_rank():
    # every row of S_6 filled: each rank the rows name is one int object,
    # which keys its own row too and names it in balls and level sets
    table = rank_table(6)
    for r in range(720):
        table[r]
    named = [c for row in table.values() for c in row]
    assert len({id(c) for c in named}) == len(set(named)) == 719
    assert all(table.ints[r] is r for r in table)
    ball = up_ball((2, 1, 3, 4, 5, 6), 4)
    assert all(table.ints[r] is r for r in ball.lex_ranks[1:])


def test_intern_map_holds_the_rows_read():
    # the first interval of S_11 reads the row of its bottom, rank 0: the
    # intern map names that row and its rank, nothing sized 11!
    first = next(forcing.intervals_isomorphic_to(
        (2, 1), 11, Limits(max_n=11)))
    assert first[0] == tuple(range(1, 12))
    table = rank_table(11)
    assert list(table) == [0]
    assert set(table.ints) == {0, *table[0]}


def s6_sample(count, seed):
    """``count`` seeded intervals [x, y] of S_6."""
    rng = random.Random(seed)
    group = list(itertools.permutations(range(1, 7)))
    sample = []
    while len(sample) < count:
        x, y = rng.choice(group), rng.choice(group)
        if bruhat_leq(x, y):
            sample.append((x, y))
    return sample


def interval_keys(pairs):
    """(interval, key of its ball's relabel) for each [x, y] of ``pairs``."""
    for x, y in pairs:
        iv = bruhat.interval(x, y)
        ball = up_ball(x, max(iv.ranks))
        yid = ball.lex_ranks.index(rank(y))
        yield iv, ball.structure(ball.below[yid])


S4_PAIRS = [(x, y) for x in itertools.permutations(range(1, 5))
            for y in itertools.permutations(range(1, 5)) if bruhat_leq(x, y)]


def test_structure_decodes_to_the_interval():
    # every interval of S_4 and 200 seeded ones of S_6: the key of the
    # relabel holds the interval's ranks and covers, and is the key that
    # shape_key gives the interval itself
    assert len(S4_PAIRS) == 213
    for iv, key in interval_keys(S4_PAIRS + s6_sample(200, 4801)):
        ranks, covers = read_shape(key)
        assert ranks == iv.ranks
        assert tuple(sorted(covers)) == iv.covers
        assert key == shape_key(iv.ranks, iv.covers)


def deep_size(value):
    """The bytes of ``value`` and, for a tuple, of all it holds."""
    if type(value) is tuple:
        return sys.getsizeof(value) + sum(map(deep_size, value))
    return sys.getsizeof(value)


def test_shape_key_bytes_per_element_and_cover():
    # a key costs a fixed overhead, at most 2 bytes per element and 4 per
    # cover up to 65,536 elements, and 1 and 2 up to 256; all of S_6,
    # 720 elements, is the widest
    pairs = S4_PAIRS + s6_sample(200, 4802)
    pairs.append(((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)))
    widths = set()
    for iv, key in interval_keys(pairs):
        size, covers = iv.size, len(iv.covers)
        assert deep_size(key) <= 40 + 2 * size + 4 * covers
        if size <= 256:
            assert deep_size(key) <= 40 + size + 2 * covers
        widths.add(key[0])
    assert widths == {1, 2}


def own_bytes(ball):
    """The bytes of a ball beside the rank ints its table holds: the
    object, its three lists and the ints of its masks."""
    lists = (ball.lex_ranks, ball.below, ball.rank_masks)
    return (sys.getsizeof(ball) + sum(map(sys.getsizeof, lists))
            + sum(map(sys.getsizeof, ball.below))
            + sum(map(sys.getsizeof, ball.rank_masks)))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_estimate_bounds_a_balls_own_bytes(n):
    # fresh and grown balls of seeded bottoms at depths 0-4: the estimate
    # that KEPT_BYTES bounds is at least a ball's own bytes, and at most
    # twice them
    table = rank_table(n)
    for x in seeded_perms(n, 20, 480 + n):
        grown = up_ball(x, 0)
        for depth in range(5):
            grown.grow(table, depth)
            for ball in (up_ball(x, depth), grown):
                assert not hasattr(ball, "__dict__")
                own = own_bytes(ball)
                assert own <= tables._estimate(ball) <= 2 * own, (x, depth)
