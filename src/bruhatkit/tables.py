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
below u, so :meth:`Ball.structure` walks a mask one level at a time,
and writes the raw shape as flat bytes, the certificate cache's key
(:func:`shape_key`).  A ball grows by one level loop, :meth:`Ball.grow`,
which appends the levels above its top one from the S_m ranks of that
top level, the last run of ``lex_ranks``; since a mask holds only ids at
or below its own, a ball of depth d is, id for id and mask for mask, the
first d + 1 levels of any deeper ball of x.

A ball is built over the lexicographic ranks of S_m, 0..m!-1, whose
order is one-line order, so sorting a level of ranks sorts it in
one-line order.  The covers come from a per-m :class:`RankTable`, a
dict from rank to row read one way, ``table[r]``: the row of rank r
holds the ranks of the elements covering r, filled the first time it
is read, as the one int object the table holds for each rank
(``RankTable.ints``), which rows, balls and :func:`count_above` share.
A rank is its permutation's Lehmer code read in factorial base, so the
table keeps no permutations: a row decodes its own rank
(:meth:`RankTable.perm`), and so does a reader that needs the
permutation of a top it has picked.  Only the covers that move the
first entry come from the transposition rule on ranks; the others are
the covers of the suffix w(2..m), read from the row of rank r mod
(m-1)! in the table of S_(m-1) (see :meth:`RankTable.__missing__`), so
a fill walks the chain of tables down from S_m.  The tables sit in a
bounded module-level cache, one per m, which holds the whole chain up
to S_12 and which every cache reset clears; the queries' intervals come
from :mod:`bruhatkit.bruhat`, on tuples and with no state between
calls.

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
their own bytes, those of the object, its lists and its masks' ints
(:func:`_estimate`), at most :data:`KEPT_BYTES`; a ball that does not
fit is handed out and dropped.  They live and die with their table, so
every cache reset clears them.

Where the atlas needs only how many elements a ball would hold, to
count the intervals of a bottom that cannot reach its least irreducible
gap, :func:`count_above` reads the same rows: it counts level 1 and
level 2 from row lengths alone, and keeps each deeper level as a set of
ranks, with no masks and no ball.  Every element of S_n lies
above the identity, so the whole group is the identity's up-ball of
depth n(n-1)/2, cached below as the group table for n <= 7.  Only the
benchmark still calls :func:`group_table`; the tests build that up-ball
themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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


def shape_key(ranks, covers) -> bytes:
    """The key of the raw shape of elements 0..k-1 with ranks ``ranks``
    and cover pairs ``covers``: the ranks less the least, and the covers
    stably sorted by top.  Covers sorted by bottom, as a
    :class:`posets.RankedPoset` holds them, then run by top, then bottom,
    as :meth:`Ball.structure` writes them, so an interval from
    :func:`bruhat.interval` keys as it does from its ball."""
    base = min(ranks)
    ends = list(itertools.chain.from_iterable(
        sorted(covers, key=operator.itemgetter(1))))
    return _pack([r - base for r in ranks], ends)


def _pack(ranks: list[int], ends: list[int]) -> bytes:
    """A raw shape as bytes: its width w, then k - 1 for its k elements,
    their ranks, and the bottom and top id of each cover, each value
    big-endian in w bytes, w the fewest that hold them all: exact at any
    size, and one byte while every value is below 256, the case that
    ``bytes`` takes whole.  Wider, byte j of every value is written at
    once, as a slice of the key."""
    try:
        return bytes((1, len(ranks) - 1)) + bytes(ranks) + bytes(ends)
    except ValueError:              # a value past 255
        pass
    values = [len(ranks) - 1, *ranks, *ends]
    width = (max(values).bit_length() + 7) // 8
    key = bytearray(1 + width * len(values))
    key[0] = width
    for j in range(width):
        shift = 8 * (width - 1 - j)
        key[1 + j::width] = bytes([value >> shift & 255 for value in values])
    return bytes(key)


def read_shape(key: bytes) -> tuple[tuple[int, ...], tuple]:
    """The ranks and the cover pairs of a raw shape from its key
    (:func:`_pack`), each value read a byte slice at a time."""
    width = key[0]
    values = list(key[1::width])
    for j in range(2, width + 1):
        values = [value << 8 | byte
                  for value, byte in zip(values, key[j::width])]
    size = values[0] + 1
    ends = values[size + 1:]
    return tuple(values[1:size + 1]), tuple(zip(ends[::2], ends[1::2]))


def _estimate(ball: Ball) -> int:
    """The bytes a kept ball holds beside the rank ints it shares with
    its table: the object and its three lists (:data:`BALL_BYTES`); per
    element, its slots in two lists, over-allocated by up to an eighth,
    and its below-mask's int; per level, its slot and its mask's int; and
    the digits of the masks, 4 bytes per 30 bits, where the below-mask of
    id u has u + 1 bits and a level mask at most one per element."""
    size, levels = len(ball.lex_ranks), len(ball.rank_masks)
    bits = size * (size + 1) // 2 + levels * size
    return BALL_BYTES + 48 * size + 40 * levels + bits * 2 // 15


class RankTable(dict):
    """The covers of S_m by lexicographic rank: ``table[r]`` is the row
    of rank r, filled the first time it is read from the covers that
    move the first entry and the row of the suffix in the table of
    S_(m-1), and :meth:`perm` decodes a rank to its permutation.
    ``ints`` maps each rank that a row or a row's key names to the one
    int object the table stores for it.  ``kept`` holds the balls that
    :meth:`ball` keeps, by the rank of their bottom, and ``kept_bytes``
    the sum of their estimates."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m
        # weights[i] = (m - 1 - i)!, the place value of Lehmer digit i
        self.weights = tuple(math.factorial(m - 1 - i) for i in range(m))
        self.ints: dict[int, int] = {}  # each rank named so far, to itself
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
        """Fill and return the row of rank r, from its permutation w and
        the row of its suffix one size down.

        Swapping the entries a = w(i) < b = w(j) at positions i < j is a
        cover iff no position between holds a value between them
        (Bjorner and Brenti, GTM 231, 2.1.4).  It raises Lehmer digit i
        by 1 + c and lowers digit j by c, with c = #{l > j : a < w(l) <
        b}, and leaves the other digits alone, so it adds
        (1 + c)(m-1-i)! - c(m-1-j)! to the rank.  Lehmer digits 2..m of
        w are the code of its suffix w(2..m) in S_(m-1), whose rank is
        r mod (m-1)!, and a swap past position 1 keeps digit 1, so the
        covers that move neither entry of position 1 are the suffix's
        tops, each plus r less that remainder (``notes/decisions.md``):
        the row reads them from ``rank_table(m - 1)``, in the order of
        the suffix's row, after the covers that move position 1.  For
        i = 1 no value between a and b lies before j, so c = b - a - 1.
        Each rank goes through ``ints``.
        """
        m, weights = self.m, self.weights
        intern = self.ints.setdefault
        out = []
        if m > 1:
            w = self.perm(r)
            a, step = w[0], weights[0]
            hi = m + 1              # least value above a met so far
            for j in range(1, m):
                b = w[j]
                if a < b < hi:
                    hi = b
                    top = r + (b - a) * step - (b - a - 1) * weights[j]
                    out.append(intern(top, top))
            base = r - r % step
            for top in rank_table(m - 1)[r % step]:
                top += base
                out.append(intern(top, top))
        row = self[intern(r, r)] = tuple(out)
        return row


@functools.lru_cache(maxsize=12)
def rank_table(m: int) -> RankTable:
    """The rank table of S_m.  The cache holds twelve: a row fill of S_m
    reads the tables of S_(m-1) down to S_1, so for m up to 12 the
    table being filled and every table of its chain stay cached, and a
    scan that cycles through S_1..S_m never evicts a table it comes
    back to."""
    return RankTable(m)


@dataclass(slots=True)
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

    def structure(self, mask: int) -> bytes:
        """The raw shape of an interval mask as its key
        (:func:`shape_key`): the elements relabelled 0..k-1 in id order,
        their ranks relative to the interval's minimum, which is the
        lowest id because ids are rank-major, and the covers by top, then
        bottom.  The mask is read one level at a time: u covers the z <= u
        of the mask's part one level down."""
        below, index = self.below, {}
        rel_ranks, ends = [], []
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
                    ends += index[bit.bit_length() - 1], i
                    downs ^= bit
            down = part
        return _pack(rel_ranks, ends)


# the fixed bytes of a ball: the object, its three lists empty, and the
# nine slots that a list over-allocates at most beyond an eighth
BALL_BYTES = sys.getsizeof(Ball([], [], [])) + 3 * (sys.getsizeof([]) + 72)


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
    ball.  Level 1 is the bottom's row.  Every interval of length 2 has
    four elements (Bjorner and Brenti, GTM 231, Lemma 2.7.3), so each
    element of level 2 covers exactly two of level 1, and level 2 counts
    half the row lengths of level 1.  Deeper levels are sets of ranks,
    each the union of the rows of the level before, with no masks."""
    if depth <= 0:
        return 0
    table = rank_table(len(x))
    row = table[rank(x)]
    if depth == 1:
        return len(row)
    rows = list(map(table.__getitem__, row))
    count = len(row) + sum(map(len, rows)) // 2
    if depth > 2:
        level = set().union(*rows)
        for _ in range(depth - 2):
            level = set().union(*map(table.__getitem__, level))
            count += len(level)
    return count


@functools.lru_cache(maxsize=MAX_TABLE_N)
def group_table(n: int) -> Ball:
    """The identity's up-ball of depth n(n-1)/2: all of S_n."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"group tables are built only for n <= {MAX_TABLE_N}")
    return up_ball(perms.identity(n), n * (n - 1) // 2)
