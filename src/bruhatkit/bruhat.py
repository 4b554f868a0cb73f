"""Bruhat order: comparisons, covers, intervals, principal order ideals.

Comparison uses the classical rank-matrix (dominance) criterion:
x <= y iff for every position i and value j,

    #{k <= i : x(k) >= j}  <=  #{k <= i : y(k) >= j}.

That is O(n^2) per comparison with cached count tables, which matters
because interval enumeration performs millions of comparisons.  The
equivalent subword formulation (x <= y iff some reduced word of x is a
subsequence of one of y) lives in the test suite as an oracle.

Interval values are immutable once constructed; all functions are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import perms
from .perms import Perm


@functools.lru_cache(maxsize=None)
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
    if x == y:
        return True
    if perms.length(x) >= perms.length(y):
        return False
    tx = _dominance_table(x)
    ty = _dominance_table(y)
    return all(a <= b for a, b in zip(tx, ty))


def _covers(x: Perm, up: bool) -> tuple[Perm, ...]:
    """The elements covering x (``up``) or covered by it, sorted.

    Transposing positions i < j changes the length by exactly one iff no
    intermediate position holds a value between x(i) and x(j); it goes
    up when x(i) < x(j).  Every cover arises this way.
    """
    n = len(x)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = x[i], x[j]
            lo, hi = (a, b) if up else (b, a)
            if lo < hi and not any(lo < x[k] < hi for k in range(i + 1, j)):
                lst = list(x)
                lst[i], lst[j] = b, a
                out.append(tuple(lst))
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def covers_above(x: Perm) -> tuple[Perm, ...]:
    """All z covering x: z > x with length(z) = length(x) + 1."""
    return _covers(x, up=True)


@functools.lru_cache(maxsize=None)
def covers_below(x: Perm) -> tuple[Perm, ...]:
    """All z covered by x: z < x with length(z) = length(x) - 1."""
    return _covers(x, up=False)


@dataclass(frozen=True)
class Interval:
    """The interval [low, high] = {z : low <= z <= high} with its covers.

    ``elements`` is sorted by (rank, one-line order); ``covers`` holds the
    pairs (a, b) with a covered by b, both inside the interval.  When
    ``low`` is the identity this is the principal order ideal of ``high``.
    """

    low: Perm
    high: Perm
    elements: tuple[Perm, ...]
    covers: tuple[tuple[Perm, Perm], ...]

    @property
    def n(self) -> int:
        return len(self.low)

    @property
    def span(self) -> int:
        """length(high) - length(low)."""
        return perms.length(self.high) - perms.length(self.low)

    def rank_of(self, z: Perm) -> int:
        return perms.length(z) - perms.length(self.low)

    def rank_profile(self) -> tuple[int, ...]:
        counts = [0] * (self.span + 1)
        for z in self.elements:
            counts[self.rank_of(z)] += 1
        return tuple(counts)


def interval(x: Perm, y: Perm) -> Interval:
    """Construct [x, y]; raises ValueError unless x <= y.

    Enumeration walks cover-by-cover downward from y (every element of the
    interval lies on a saturated chain up to y), filtering with
    :func:`bruhat_leq` against x, so only elements near the interval are
    ever touched.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    if not bruhat_leq(x, y):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)} "
            "in the Bruhat order"
        )
    principal = x == perms.identity(len(x))
    low_rank = perms.length(x)
    keep = {y}
    frontier = [y]
    while frontier:
        nxt = []
        for z in frontier:
            if perms.length(z) <= low_rank:
                continue
            for c in covers_below(z):
                if c in keep:
                    continue
                if principal or bruhat_leq(x, c):
                    keep.add(c)
                    nxt.append(c)
        frontier = nxt
    elements = tuple(sorted(keep, key=lambda z: (perms.length(z), z)))
    covers = tuple(
        sorted(
            (c, z)
            for z in elements
            for c in covers_below(z)
            if c in keep
        )
    )
    return Interval(low=x, high=y, elements=elements, covers=covers)


def ideal(w: Perm) -> Interval:
    """The principal order ideal of w: all z <= w, as the interval
    [identity, w]."""
    return interval(perms.identity(len(w)), w)


def coatoms(iv: Interval) -> tuple[Perm, ...]:
    """The elements of the interval covered by its maximum."""
    return tuple(sorted(a for a, b in iv.covers if b == iv.high))


def atoms(iv: Interval) -> tuple[Perm, ...]:
    """The elements of the interval covering its minimum."""
    return tuple(sorted(b for a, b in iv.covers if a == iv.low))


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
    text form, elements sorted by (rank, one-line order)."""
    return {
        "low": perms.format_perm(iv.low),
        "high": perms.format_perm(iv.high),
        "n": iv.n,
        "elements": [perms.format_perm(z) for z in iv.elements],
        "covers": [
            [perms.format_perm(a), perms.format_perm(b)]
            for a, b in sorted(
                iv.covers, key=lambda ab: (perms.length(ab[0]), ab)
            )
        ],
    }
