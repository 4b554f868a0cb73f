"""Up-balls: bitmask order tables over the elements above a permutation.

The up-ball of x with depth d holds every z >= x with length(z) -
length(x) <= d, i.e. everything reached from x by at most d upward
covers.  Its elements get ids level by level, each level in one-line
order, and ``below[u]`` is the bitmask of ids z <= u, built by dynamic
programming over the cover relation in id order.  Every element of an
interval [x, y] lies on a saturated chain from x, so for y in the ball
the interval is exactly ``below[y]``; and since ids are rank-major, the
set bits of any interval mask already run in the interval's (rank,
one-line) order, with its minimum first.

The one interval walk that builds up-balls is ``posets._scan``, shared
by ``forces`` and the atlas.  Every element of S_n lies above the
identity, so the whole group is the identity's up-ball of depth
n(n-1)/2, cached below as the group table for n <= 7; only the tests and
the benchmark still call :func:`group_table`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .bruhat import covers_above
from .perms import Perm

MAX_TABLE_N = 7


def iter_bits(mask: int) -> Iterator[int]:
    """Set-bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Ball:
    elements: tuple[Perm, ...]          # level by level, one-line order
    ranks: tuple[int, ...]              # length(u) - length(x)
    rank_masks: tuple[int, ...]         # mask of ids at each rank
    down_adj: tuple[tuple[int, ...], ...]   # ids covered by u
    below: tuple[int, ...]              # bitmask of {z in the ball : z <= u}

    def structure(self, mask: int):
        """Relabel the elements of an interval mask to 0..m-1 in id order
        and return (ranks relative to the interval's minimum, cover id
        pairs); the minimum is the lowest id, because ids are rank-major."""
        elems = list(iter_bits(mask))
        index = {e: i for i, e in enumerate(elems)}
        low_rank = self.ranks[elems[0]]
        rel_ranks = tuple(self.ranks[e] - low_rank for e in elems)
        covers = tuple(
            sorted(
                (index[v], index[u])
                for u in elems
                for v in self.down_adj[u]
                if mask >> v & 1
            )
        )
        return rel_ranks, covers


def up_ball(x: Perm, depth: int) -> Ball:
    """The up-ball of x with the given depth (see the module docstring)."""
    elements = [x]
    ranks = [0]
    rank_masks = [1]
    down_adj: list[tuple[int, ...]] = [()]
    below = [1]
    level = [x]
    for r in range(1, depth + 1):
        start = len(elements)
        below_of: dict[Perm, list[int]] = {}
        for zid, z in enumerate(level, start - len(level)):
            for c in covers_above(z):
                zids = below_of.get(c)
                if zids is None:
                    below_of[c] = [zid]
                else:
                    zids.append(zid)
        level = sorted(below_of)
        for c in level:
            downs = tuple(below_of[c])
            mask = 1 << len(below)
            for v in downs:
                mask |= below[v]
            below.append(mask)
            down_adj.append(downs)
        elements += level
        ranks += [r] * len(level)
        rank_masks.append((1 << len(elements)) - (1 << start))
    return Ball(
        elements=tuple(elements),
        ranks=tuple(ranks),
        rank_masks=tuple(rank_masks),
        down_adj=tuple(down_adj),
        below=tuple(below),
    )


@functools.lru_cache(maxsize=MAX_TABLE_N)
def group_table(n: int) -> Ball:
    """The identity's up-ball of depth n(n-1)/2: all of S_n."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"group tables are built only for n <= {MAX_TABLE_N}")
    return up_ball(perms.identity(n), n * (n - 1) // 2)
