"""Whole-group order tables backing the interval atlas.

For n <= 7 it is cheap to materialize S_n once: every element gets an id
in lexicographic one-line order, and the full order relation is stored as
two arrays of bitmasks (``below[u]`` = ids of all z <= u, ``above[u]`` =
ids of all z >= u), built by dynamic programming over the cover relation.
An interval [x, y] is then just ``above[x] & below[y]``, which turns the
atlas into bit arithmetic.

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
    n: int
    elements: tuple[Perm, ...]          # lexicographic one-line order
    ranks: tuple[int, ...]
    max_rank: int
    rank_masks: tuple[int, ...]         # mask of ids at each rank
    down_adj: tuple[tuple[int, ...], ...]   # ids covered by u
    up_adj: tuple[tuple[int, ...], ...]     # ids covering u
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
    elements = tuple(perms.all_perms(n))
    index = {w: i for i, w in enumerate(elements)}
    ranks = tuple(perms.length(w) for w in elements)
    max_rank = n * (n - 1) // 2

    rank_masks = [0] * (max_rank + 1)
    for i, r in enumerate(ranks):
        rank_masks[r] |= 1 << i

    down_adj = tuple(
        tuple(index[c] for c in covers_below(w)) for w in elements
    )
    up_list: list[list[int]] = [[] for _ in elements]
    for u, downs in enumerate(down_adj):
        for v in downs:
            up_list[v].append(u)
    up_adj = tuple(tuple(sorted(ups)) for ups in up_list)

    order = sorted(range(len(elements)), key=lambda i: ranks[i])
    below = [0] * len(elements)
    for u in order:
        mask = 1 << u
        for v in down_adj[u]:
            mask |= below[v]
        below[u] = mask
    above = [0] * len(elements)
    for u in reversed(order):
        mask = 1 << u
        for v in up_adj[u]:
            mask |= above[v]
        above[u] = mask

    return GroupTable(
        n=n,
        elements=elements,
        ranks=ranks,
        max_rank=max_rank,
        rank_masks=tuple(rank_masks),
        down_adj=down_adj,
        up_adj=up_adj,
        below=tuple(below),
        above=tuple(above),
    )

