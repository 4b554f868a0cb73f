"""Bruhat order: comparisons, covers, intervals, principal order ideals.

Comparison uses the classical rank-matrix (dominance) criterion:
x <= y iff for every position i and value j,

    #{k <= i : x(k) >= j}  <=  #{k <= i : y(k) >= j}.

That is O(n^2) per comparison.  The equivalent subword formulation
(x <= y iff some reduced word of x is a subsequence of one of y) lives
in the test suite as an oracle.

Interval values are immutable once constructed; all functions are pure
and keep no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .perms import Perm


def _dominance_table(w: Perm) -> tuple[int, ...]:
    """Flattened table D[i][j] = #{k <= i : w(k) >= j} for i, j in 1..n."""
    n = len(w)
    flat = []
    counts = [0] * (n + 1)
    for i in range(n):
        for j in range(1, w[i] + 1):
            counts[j] += 1
        flat.extend(counts[1:])
    return tuple(flat)


def bruhat_leq(x: Perm, y: Perm) -> bool:
    """Whether x <= y in the Bruhat order (same group size required)."""
    if len(x) != len(y):
        raise ValueError(
            f"size mismatch: S_{len(x)} vs S_{len(y)}; embed first"
        )
    return _dominated(_dominance_table(x), y)


def _dominated(tx: tuple[int, ...], z: Perm) -> bool:
    """Whether the permutation whose dominance table is tx lies below z."""
    return all(a <= b for a, b in zip(tx, _dominance_table(z)))


def covers_below(x: Perm) -> tuple[Perm, ...]:
    """All z covered by x: z < x with length(z) = length(x) - 1, sorted.

    Transposing positions i < j with x(i) > x(j) goes down by exactly
    one iff no position between holds a value between x(j) and x(i);
    every cover arises this way.
    """
    n = len(x)
    out = []
    for i in range(n - 1):
        a = x[i]
        lo = 0                  # greatest value below a met so far
        for j in range(i + 1, n):
            b = x[j]
            if lo < b < a:
                lo = b
                out.append(x[:i] + (b,) + x[i + 1:j] + (a,) + x[j + 1:])
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Interval:
    """The interval [low, high] = {z : low <= z <= high} with its covers.

    ``elements`` is sorted by (rank, one-line order), and ``ranks`` holds
    the rank of each, length(z) - length(low), as the walk that built the
    interval met it; ``covers`` holds the pairs (a, b) with a covered by
    b, both inside the interval, sorted by (a, b) in one-line order.  When
    ``low`` is the identity this is the principal order ideal of ``high``.
    """

    low: Perm
    high: Perm
    elements: tuple[Perm, ...]
    covers: tuple[tuple[Perm, Perm], ...]
    ranks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.low)

    @property
    def span(self) -> int:
        """length(high) - length(low), the rank of high."""
        return self.ranks[-1]

    def rank_of(self, z: Perm) -> int:
        return perms.length(z) - perms.length(self.low)

    def rank_profile(self) -> tuple[int, ...]:
        counts = [0] * (self.ranks[-1] + 1)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)


def interval(x: Perm, y: Perm) -> Interval:
    """Construct [x, y]; raises ValueError unless x <= y.

    The interval is graded and each of its elements lies on a saturated
    chain below y, so a walk down from y, one rank per step for
    length(y) - length(x) steps, meets each element once and at its own
    rank.  A step reads the lower covers of each element of its level
    once, keeps those above x and records the cover pairs; a candidate
    is compared with x's dominance table once, and the verdict is kept
    for the other elements that cover it.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    tx = _dominance_table(x)
    if not _dominated(tx, y):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)} "
            "in the Bruhat order"
        )
    principal = x == perms.identity(len(x))
    above_x: dict[Perm, bool] = {}
    levels = [[y]]
    covers = []
    for _ in range(perms.length(y) - perms.length(x)):
        level = []
        for z in levels[-1]:
            for c in covers_below(z):
                keep = above_x.get(c)
                if keep is None:
                    keep = above_x[c] = principal or _dominated(tx, c)
                    if keep:
                        level.append(c)
                if keep:
                    covers.append((c, z))
        level.sort()
        levels.append(level)
    covers.sort()
    levels.reverse()
    return Interval(
        low=x,
        high=y,
        elements=tuple(z for level in levels for z in level),
        covers=tuple(covers),
        ranks=tuple(r for r, level in enumerate(levels) for _ in level),
    )


def ideal(w: Perm) -> Interval:
    """The principal order ideal of w: all z <= w, as the interval
    [identity, w]."""
    return interval(perms.identity(len(w)), w)


def coatoms(iv: Interval) -> tuple[Perm, ...]:
    """The elements of the interval covered by its maximum."""
    return tuple(sorted(a for a, b in iv.covers if b == iv.high))


def coatom_avoiding_position(x: Perm, y: Perm, i: int) -> Perm:
    """Some w with x <= w, w covered by y, and w(i) != y(i).

    Such a coatom always exists when x < y and x(i) != y(i); when the
    interval is a single cover the answer is x itself.  Found by a direct
    scan of the coatoms in one-line order, so the result is deterministic.
    """
    n = len(x)
    if len(y) != n:
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range for S_{n}")
    if x == y or not bruhat_leq(x, y):
        raise ValueError("need x < y in the Bruhat order")
    if x[i - 1] == y[i - 1]:
        raise ValueError(f"x and y agree at position {i}")
    if perms.length(y) - perms.length(x) == 1:
        return x
    for w in covers_below(y):
        if w[i - 1] != y[i - 1] and bruhat_leq(x, w):
            return w
    raise RuntimeError(
        "no coatom avoids the position; this should be impossible"
    )


def interval_to_json(iv: Interval) -> dict:
    """JSON form: {low, high, n, elements, covers} with permutations in
    text form, elements sorted by (rank, one-line order) and covers by
    (rank, one-line order) of their bottom, then by their top."""
    index = {z: i for i, z in enumerate(iv.elements)}
    text = [perms.format_perm(z) for z in iv.elements]
    return {
        "low": perms.format_perm(iv.low),
        "high": perms.format_perm(iv.high),
        "n": iv.n,
        "elements": text,
        "covers": [
            [text[index[a]], text[index[b]]]
            for a, b in sorted(iv.covers, key=lambda ab: index[ab[0]])
        ],
    }
