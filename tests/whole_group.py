"""Whole-group up-sets, a reference for the x-local up-ball scans.

The library reads every interval [x, y] off the up-ball of x.  Tests
check it against the whole group instead: ``table(n)`` numbers all of
S_n, and ``above(n)[u]`` is the bitmask of ids z >= u, so the interval
is ``above(n)[x] & table(n).below[y]``.  ``ranks(ball)`` lists the rank
of each id of a ball, and ``elements(ball, m)`` the permutation of each
id of a ball of S_m, decoded through the rank table.
"""

from __future__ import annotations

import functools

from bruhatkit.perms import Perm, identity
from bruhatkit.tables import Ball, rank_table, read_shape, up_ball


@functools.cache
def table(n: int) -> Ball:
    """The identity's up-ball of depth n(n-1)/2: all of S_n, every
    element above the identity."""
    return up_ball(identity(n), n * (n - 1) // 2)


def ranks(ball: Ball) -> list[int]:
    """The rank of each id of ``ball``, length(u) - length(x), read off
    its level masks."""
    return [r for r, mask in enumerate(ball.rank_masks)
            for _ in range(mask.bit_count())]


def elements(ball: Ball, m: int) -> list[Perm]:
    """The permutation of each id of ``ball``, a ball of S_m, decoded
    from its S_m rank."""
    return list(map(rank_table(m).perm, ball.lex_ranks))


@functools.cache
def above(n: int) -> tuple[int, ...]:
    """Up-set masks of the whole-group table of S_n, by one reverse pass
    over its covers: every element covering u has a larger id, so
    ``above[u]`` is complete before u passes it down to the elements it
    covers.  The covers are those of the relabel of the full mask, whose
    ids are the table's own."""
    gt = table(n)
    masks = [1 << u for u in range(len(gt.lex_ranks))]
    _, covers = read_shape(gt.structure((1 << len(gt.lex_ranks)) - 1))
    for v, u in sorted(covers, key=lambda cover: cover[1], reverse=True):
        masks[v] |= masks[u]
    return tuple(masks)
