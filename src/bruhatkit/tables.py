"""Whole-group order tables backing the interval atlas.

For n <= 7 it is cheap to materialize S_n once: every element gets an id
in (length, one-line) order, and the full order relation is stored as
two arrays of bitmasks (``below[u]`` = ids of all z <= u, ``above[u]`` =
ids of all z >= u), built by dynamic programming over the cover relation
in id order.  An interval [x, y] is then just ``above[x] & below[y]``,
which turns the atlas into bit arithmetic, and since ids are rank-major
its set bits already run in the interval's (rank, one-line) order.

S_8 would need ~400 MB of masks, so tables stop at n = 7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .bruhat import covers_below
from .perms import Perm

MAX_TABLE_N = 7


@dataclass(frozen=True)
class GroupTable:
    elements: tuple[Perm, ...]          # (length, one-line) order
    ranks: tuple[int, ...]
    max_rank: int
    rank_masks: tuple[int, ...]         # mask of ids at each rank
    down_adj: tuple[tuple[int, ...], ...]   # ids covered by u
    below: tuple[int, ...]              # bitmask of {z : z <= u}
    above: tuple[int, ...]              # bitmask of {z : z >= u}


def iter_bits(mask: int) -> Iterator[int]:
    """Set-bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(maxsize=MAX_TABLE_N)
def group_table(n: int) -> GroupTable:
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"group tables are built only for n <= {MAX_TABLE_N}")
    ranks, elements = zip(
        *sorted((perms.length(w), w) for w in perms.all_perms(n))
    )
    index = {w: i for i, w in enumerate(elements)}
    max_rank = n * (n - 1) // 2

    rank_masks = [0] * (max_rank + 1)
    for i, r in enumerate(ranks):
        rank_masks[r] |= 1 << i

    down_adj = tuple(
        tuple(index[c] for c in covers_below(w)) for w in elements
    )
    below: list[int] = []
    for u, downs in enumerate(down_adj):
        mask = 1 << u
        for v in downs:
            mask |= below[v]
        below.append(mask)
    # Every element covering u has a larger id, so above[u] is complete
    # before u passes it down to the elements it covers.
    above = [1 << u for u in range(len(elements))]
    for u in reversed(range(len(elements))):
        for v in down_adj[u]:
            above[v] |= above[u]

    return GroupTable(
        elements=elements,
        ranks=ranks,
        max_rank=max_rank,
        rank_masks=tuple(rank_masks),
        down_adj=down_adj,
        below=tuple(below),
        above=tuple(above),
    )
