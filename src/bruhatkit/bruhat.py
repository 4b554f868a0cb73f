"""Bruhat order: comparisons, covers, intervals, principal order ideals.

Comparison uses the rank-matrix criterion (Bjorner and Brenti, GTM 231,
Thm 2.1.5): x <= y iff for every prefix length p and value v,

    #{k <= p : x(k) >= v}  <=  #{k <= p : y(k) >= v}.

A permutation is read as its prefix value masks
(:func:`perms._prefix_masks`): P_w[p] has bit v set for each value v
among w(1), ..., w(p), so the count on the left is
``(P_x[p] >> v).bit_count()``.  Prefixes whose masks are equal have equal
counts and are skipped.  The equivalent subword formulation (x <= y iff
some reduced word of x is a subsequence of one of y) lives in the test
suite as an oracle.

An :class:`Interval` is a :class:`posets.RankedPoset`, ranks and cover
id pairs, that also names the permutation of each element, so the
isomorphism test, the certificate and the DOT form read it directly.
Interval values are immutable once constructed; all functions are pure
and keep no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import perms
from .perms import Perm, _prefix_masks
from .posets import RankedPoset


def _masks_leq(px: tuple[int, ...], py: tuple[int, ...]) -> bool:
    """The rank-matrix criterion on prefix masks: every count of x is at
    most y's.  Value 1 counts the whole prefix, so v starts at 2."""
    top = len(px) + 2
    for a, b in zip(px, py):
        if a != b:
            for v in range(2, top):
                if (a >> v).bit_count() > (b >> v).bit_count():
                    return False
    return True


def bruhat_leq(x: Perm, y: Perm) -> bool:
    """Whether x <= y in the Bruhat order (same group size required)."""
    if len(x) != len(y):
        raise ValueError(
            f"size mismatch: S_{len(x)} vs S_{len(y)}; embed first"
        )
    return _masks_leq(_prefix_masks(x), _prefix_masks(y))


def _lower_covers(x: Perm) -> Iterator[tuple[int, int, Perm]]:
    """(i, j, z) for every z covered by x, z being x with its 0-based
    positions i < j swapped, in order of (i, j).

    Transposing positions i < j with x(i) > x(j) goes down by exactly
    one iff no position between holds a value between x(j) and x(i);
    every cover arises this way.
    """
    n = len(x)
    for i in range(n - 1):
        a = x[i]
        lo = 0                  # greatest value below a met so far
        for j in range(i + 1, n):
            b = x[j]
            if lo < b < a:
                lo = b
                yield i, j, x[:i] + (b,) + x[i + 1:j] + (a,) + x[j + 1:]


@dataclass(frozen=True)
class Interval(RankedPoset):
    """The interval [low, high] = {z : low <= z <= high} as a ranked
    poset whose element i is ``elements[i]``.

    ``elements`` is sorted by (rank, one-line order), and ``ranks`` holds
    the rank of each, length(z) - length(low), as the walk that built the
    interval met it; ``covers`` holds the id pairs (a, b) with element a
    covered by element b, sorted.  When ``low`` is the identity this is
    the principal order ideal of ``high``.
    """

    low: Perm
    high: Perm
    elements: tuple[Perm, ...]

    @property
    def n(self) -> int:
        return len(self.low)


def _cover_masks(px: tuple[int, ...], pz: tuple[int, ...], i: int, j: int,
                 a: int, b: int) -> tuple[int, ...] | None:
    """The prefix masks of c = z (i j), a lower cover of z with a = z(i)
    > b = z(j), when x <= c, else None; x <= z is given.  Positions are
    0-based here, and mask p holds the prefix through position p.

    The prefixes of c that hold position i but not j hold b where z's
    hold a, and every other prefix holds what z's does.  So c's count
    of values >= v in prefix p is z's less one on the rectangle
    i <= p < j, b < v <= a, and equals z's elsewhere.  Off the
    rectangle x's counts are at most z's, which are c's.  So x <= c
    exactly when x's count is strictly below z's on the rectangle, and
    the test takes O(rectangle) time, not O(n^2).
    """
    for p in range(i, j):
        xp, zp = px[p], pz[p]
        for v in range(b + 1, a + 1):
            if (xp >> v).bit_count() >= (zp >> v).bit_count():
                return None
    flip = 1 << a | 1 << b
    return pz[:i] + tuple(m ^ flip for m in pz[i:j]) + pz[j:]


# marks a candidate of :func:`interval` not yet tested
_UNSEEN = object()


def interval(x: Perm, y: Perm) -> Interval:
    """Construct [x, y]; raises ValueError unless x <= y.

    The interval is graded and each of its elements lies on a saturated
    chain below y, so a walk down from y, one rank per step for
    length(y) - length(x) steps, meets each element once and at its own
    rank.  A step reads the lower covers of each element of its level
    once, keeps those above x and records the cover pairs; each
    candidate is tested once, and the verdict is kept for the other
    elements that cover it.

    Each test reads only the rectangle of counts in which the candidate
    differs from the element it covers (:func:`_cover_masks`).
    When x is the identity every candidate is kept, untested.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    px, py = _prefix_masks(x), _prefix_masks(y)
    if not _masks_leq(px, py):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)} "
            "in the Bruhat order"
        )
    principal = x == perms.identity(len(x))
    # the prefix masks of each candidate above x (empty when x is the
    # identity, which needs none), None for the others
    masks: dict[Perm, tuple[int, ...] | None] = {y: py}
    levels = [[y]]
    covers = []
    for _ in range(perms.length(y) - perms.length(x)):
        level = []
        for z in levels[-1]:
            pz = masks[z]
            for i, j, c in _lower_covers(z):
                pc = masks.get(c, _UNSEEN)
                if pc is _UNSEEN:
                    pc = masks[c] = () if principal else _cover_masks(
                        px, pz, i, j, z[i], z[j])
                    if pc is not None:
                        level.append(c)
                if pc is not None:
                    covers.append((c, z))
        level.sort()
        levels.append(level)
    levels.reverse()
    elements = tuple(z for level in levels for z in level)
    index = {z: i for i, z in enumerate(elements)}
    return Interval(
        ranks=tuple(r for r, level in enumerate(levels) for _ in level),
        covers=tuple((index[c], index[z]) for c, z in covers),
        low=x,
        high=y,
        elements=elements,
    )


def ideal(w: Perm) -> Interval:
    """The principal order ideal of w: all z <= w, as the interval
    [identity, w]."""
    return interval(perms.identity(len(w)), w)


def interval_to_json(iv: Interval) -> dict:
    """JSON form: {low, high, n, elements, covers} with permutations in
    text form, elements sorted by (rank, one-line order) and covers as
    ``iv.covers`` holds them, by the ids of their bottoms, then of their
    tops."""
    text = [perms.format_perm(z) for z in iv.elements]
    return {
        "low": perms.format_perm(iv.low),
        "high": perms.format_perm(iv.high),
        "n": iv.n,
        "elements": text,
        "covers": [[text[a], text[b]] for a, b in iv.covers],
    }
