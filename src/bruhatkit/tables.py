"""Up-balls: bitmask order tables over the elements above a permutation.

The up-ball of x with depth d holds every z >= x with length(z) -
length(x) <= d, i.e. everything reached from x by at most d upward
covers.  Its elements get ids level by level, each level in one-line
order, and ``below[u]`` is the bitmask of ids z <= u, built by dynamic
programming over the cover relation in id order.  Each level is
recorded once, as ``rank_masks[r]``, the mask of its ids, which run
together, so :meth:`Ball.level` reads them off as a range; and
``lex_ranks[u]``, the S_m rank of id u, is the only name a ball gives
an element.  Every element of an interval [x, y] lies on a saturated
chain from x, so for y in the ball the interval is exactly
``below[y]``; and since ids are rank-major, the set bits of any
interval mask already run in the interval's (rank, one-line) order,
with its minimum first.  The covers inside a mask are read off the
masks too: z is covered by u exactly when z <= u and z lies one rank
below u, so :meth:`Ball.structure` walks a mask one level at a time.  A
ball grows by one level loop, :meth:`Ball.grow`, which appends the
levels above its top one from the S_m ranks of that top level, the last
run of ``lex_ranks``; since a mask holds only ids at or below its own,
a ball of depth d is, id for id and mask for mask, the first d + 1
levels of any deeper ball of x.

A ball is built over the lexicographic ranks of S_m, 0..m!-1, whose
order is one-line order, so sorting a level of ranks sorts it in
one-line order.  The covers come from a per-m :class:`RankTable`, a
dict from rank to row read one way, ``table[r]``: the row of rank r
holds the ranks of the elements covering r, computed by the
transposition rule on ranks (see :meth:`RankTable.__missing__`) the
first time it is read.  A rank is its permutation's Lehmer code read in
factorial base, so the table keeps no permutations: a row decodes its
own rank (:meth:`RankTable.perm`), and so does a reader that needs the
permutation of a top it has picked.  The tables sit in a bounded
module-level cache, one per m, which every cache reset clears; the
queries' intervals come from :mod:`bruhatkit.bruhat`, on tuples and
with no state between calls.

Two scans build up-balls, each looping over its own bottoms:
``forcing._shaped_intervals`` for ``forces`` and
``posets._scan_intervals`` for the atlas.  Each reads the tops of a
ball level by level from the least rank it wants, through
:meth:`Ball.level`.  The atlas asks for each bottom once per call and
builds each ball afresh with :func:`up_ball`.  A forcing scan runs once
per ideal shape, so several shapes ask for the balls of the same
bottoms: it takes them from :meth:`RankTable.ball` and reads only the
tops of level d, its span.  The table keeps a bottom's ball from the
bottom's second request on, the deepest asked for, and grows it when a
deeper one is asked for, so a scan that asks for each bottom once keeps
nothing; its flags of the bottoms asked for reach only to the largest
rank asked for.  The kept balls of a table are bounded by an estimate of
their bytes, 64 per element and the bits of their masks, at most
:data:`KEPT_BYTES`; a ball that does not fit is handed out and dropped.
They live and die with their table, so every cache reset clears them.

Where the atlas needs only how many elements a ball would hold, to
count the intervals of a bottom that cannot reach its least irreducible
gap, :func:`count_above` reads the same rows and keeps each level as a
set of ranks, with no masks and no ball.  Every element of S_n lies
above the identity, so the whole group is the identity's up-ball of
depth n(n-1)/2, cached below as the group table for n <= 7.  Only the
benchmark still calls :func:`group_table`; the tests build that up-ball
themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .perms import Perm

MAX_TABLE_N = 7
KEPT_BYTES = 4 << 20        # bound on the estimate of one table's kept balls


def iter_bits(mask: int) -> Iterator[int]:
    """Set-bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rank(w: Perm) -> int:
    """The lexicographic rank of w in S_n, from 0 for the identity to
    n! - 1 for the reversal: its Lehmer code read in factorial base.

    Lehmer digit i counts the entries after position i below a = w(i):
    the a - 1 values below a less those met before i, which are the set
    bits under a of ``seen``, the mask of the values w(1..i-1).
    """
    n = len(w)
    r = seen = 0
    for i, a in enumerate(w):
        r = r * (n - i) + a - 1 - (seen & ((1 << a) - 1)).bit_count()
        seen |= 1 << a
    return r


def _estimate(ball: Ball) -> int:
    """The bytes a kept ball is taken to hold: 64 per element, and its
    below-masks, whose mask of id u has u + 1 bits."""
    size = len(ball.lex_ranks)
    return size * 64 + size * (size + 1) // 16


class RankTable(dict):
    """The covers of S_m by lexicographic rank: ``table[r]`` is the row
    of rank r, filled the first time it is read, and :meth:`perm`
    decodes a rank to its permutation.  ``kept`` holds the balls that
    :meth:`ball` keeps, by the rank of their bottom, and ``kept_bytes``
    the sum of their estimates."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m
        # weights[i] = (m - 1 - i)!, the place value of Lehmer digit i
        self.weights = tuple(math.factorial(m - 1 - i) for i in range(m))
        self.asked = bytearray()        # a flag per rank, to the largest asked
        self.kept: dict[int, Ball] = {}
        self.kept_bytes = 0

    def ball(self, x: Perm, depth: int) -> Ball:
        """An up-ball of x with depth ``depth`` or more, whose first
        depth + 1 levels are ``up_ball(x, depth)``.

        The first request for x builds a ball and drops it.  From the
        second on, the deepest ball asked for is kept, grown by
        :meth:`Ball.grow` when a deeper one is asked for, while the
        estimates of the kept balls add up to at most KEPT_BYTES; a ball
        that does not fit is handed out and dropped.
        """
        bottom = rank(x)
        # a kept ball leaves ``kept`` while it may grow, and is weighed again
        ball = self.kept.pop(bottom, None)
        if ball is None:
            asked = self.asked
            if bottom >= len(asked):
                asked += bytes(bottom + 1 - len(asked))
            again = asked[bottom]
            asked[bottom] = 1
            ball = _build(self, bottom, depth)
            if not again:
                return ball
        else:
            self.kept_bytes -= _estimate(ball)
            if len(ball.rank_masks) <= depth:
                ball.grow(self, depth)
        size = _estimate(ball)
        if self.kept_bytes + size <= KEPT_BYTES:
            self.kept[bottom] = ball
            self.kept_bytes += size
        return ball

    def perm(self, r: int) -> Perm:
        """The permutation of rank r, the inverse of :func:`rank`: the
        Lehmer digit of position i is the quotient of r by (m-1-i)!, the
        rest going on to the next position, and it picks the entry of
        position i among the values not yet placed, counted from the
        least."""
        left = list(range(1, self.m + 1))
        out = []
        for weight in self.weights:
            digit, r = divmod(r, weight)
            out.append(left.pop(digit))
        return tuple(out)

    def __missing__(self, r: int) -> tuple[int, ...]:
        """Fill and return the row of rank r, from its permutation.

        Swapping the entries a = w(i) < b = w(j) at positions i < j is a
        cover iff no position between holds a value between them
        (Bjorner and Brenti, GTM 231, 2.1.4).  It raises Lehmer digit i
        by 1 + c and lowers digit j by c, with c = #{l > j : a < w(l) <
        b}, and leaves the other digits alone, so it adds
        (1 + c)(m-1-i)! - c(m-1-j)! to the rank.  With ``after[j]`` the
        mask of the values at the positions past j, c is the popcount of
        its bits a + 1 .. b - 1.
        """
        w = self.perm(r)
        m, weights = self.m, self.weights
        after = [0] * m
        for j in range(m - 1, 0, -1):
            after[j - 1] = after[j] | 1 << w[j]
        out = []
        for i in range(m - 1):
            a = w[i]
            hi = m + 1              # least value above a met so far
            for j in range(i + 1, m):
                b = w[j]
                if a < b < hi:
                    hi = b
                    c = (after[j] & ((1 << b) - (2 << a))).bit_count()
                    out.append(r + (1 + c) * weights[i] - c * weights[j])
        row = self[r] = tuple(out)
        return row


@functools.lru_cache(maxsize=8)
def rank_table(m: int) -> RankTable:
    """The rank table of S_m.  The cache holds eight, so a scan that
    cycles through S_1..S_8, the default cap, never evicts a table it
    comes back to."""
    return RankTable(m)


@dataclass
class Ball:
    """An up-ball.  :meth:`grow` only appends levels, so the levels that a
    reader of depth d reads never change once handed out."""

    lex_ranks: list[int]                # S_m rank of each id, level by level
    below: list[int]                    # bitmask of {z in the ball : z <= u}
    rank_masks: list[int]               # mask of ids at each rank

    def level(self, r: int) -> range:
        """The ids of rank r, the run of set bits of ``rank_masks[r]``."""
        mask = self.rank_masks[r]
        end = mask.bit_length()
        return range(end - mask.bit_count(), end)

    def grow(self, table: RankTable, depth: int) -> None:
        """Append the levels above the top one up to ``depth``, each from
        the rows of the level before: an element of the next level gets
        the union of the below-masks of the elements it covers, and its
        own bit."""
        lex_ranks, below, rank_masks = (
            self.lex_ranks, self.below, self.rank_masks)
        # the first id of the top level, whose ids are the last; a level
        # past the top of S_m is empty
        start = len(below) - rank_masks[-1].bit_count()
        for _ in range(len(rank_masks), depth + 1):
            # the rank of each element of the next level, with the union
            # of the below-masks of the elements of this level it covers
            covering: dict[int, int] = {}
            get = covering.get
            rows = map(table.__getitem__, lex_ranks[start:])
            for zid, row in enumerate(rows, start):
                mask = below[zid]
                for c in row:
                    covering[c] = get(c, 0) | mask
            start = len(below)
            level = sorted(covering)
            bit = 1 << start
            for c in level:
                below.append(covering[c] | bit)
                bit <<= 1
            lex_ranks += level
            rank_masks.append((1 << len(below)) - (1 << start))

    def structure(self, mask: int):
        """Relabel the elements of an interval mask to 0..m-1 in id order
        and return (ranks relative to the interval's minimum, cover id
        pairs, unsorted); the minimum is the lowest id, because ids are
        rank-major.  The mask is read one level at a time: u covers the
        z <= u of the mask's part one level down.  Certificates do not
        depend on the order of covers."""
        below, index = self.below, {}
        rel_ranks, covers = [], []
        rest, down = mask, 0
        for r, level in enumerate(self.rank_masks):
            if not rest:
                break
            part = rest & level
            rest ^= part
            if part and not index:
                low = r
            for u in iter_bits(part):
                i = index[u] = len(index)
                rel_ranks.append(r - low)
                downs = below[u] & down
                while downs:
                    bit = downs & -downs
                    covers.append((index[bit.bit_length() - 1], i))
                    downs ^= bit
            down = part
        return tuple(rel_ranks), tuple(covers)


def _build(table: RankTable, bottom: int, depth: int) -> Ball:
    """The up-ball of the permutation of rank ``bottom`` with the given
    depth: the level loop started at it."""
    ball = Ball(lex_ranks=[bottom], below=[1], rank_masks=[1])
    ball.grow(table, depth)
    return ball


def up_ball(x: Perm, depth: int) -> Ball:
    """The up-ball of x with the given depth (see the module docstring),
    built afresh."""
    return _build(rank_table(len(x)), rank(x), depth)


def count_above(x: Perm, depth: int) -> int:
    """How many elements ``up_ball(x, depth)`` holds above x, with no
    ball: its levels as sets of ranks, each the union of the rows of the
    level before, with no masks.  The first level is the bottom's row."""
    if depth <= 0:
        return 0
    table = rank_table(len(x))
    level = set(table[rank(x)])
    count = len(level)
    for _ in range(depth - 1):
        level = set().union(*map(table.__getitem__, level))
        count += len(level)
    return count


@functools.lru_cache(maxsize=MAX_TABLE_N)
def group_table(n: int) -> Ball:
    """The identity's up-ball of depth n(n-1)/2: all of S_n."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"group tables are built only for n <= {MAX_TABLE_N}")
    return up_ball(perms.identity(n), n * (n - 1) // 2)
