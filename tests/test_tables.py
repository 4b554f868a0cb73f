import itertools
import math
import random
import tracemalloc

import pytest

from bruhatkit import forcing, tables
from bruhatkit.limits import Limits
from bruhatkit.tables import count_above, rank, rank_table, up_ball
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


def test_tables_are_one_bounded_cache_per_size():
    # every cache reset clears the tables, and one table serves each m
    assert rank_table(5) is rank_table(5)
    assert rank_table.cache_info().maxsize == 8
    x = (2, 1, 3, 4, 5)
    up_ball(x, 2)
    assert len(rank_table(5)) == 1 + len(cover_tops_oracle(x))
    rank_table.cache_clear()
    assert rank_table(5) == {}


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
