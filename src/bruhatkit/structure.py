"""Structural analysis of permutations and of interval/word interplay.

Three related tools live here:

* decomposability of a principal order ideal into a direct product,
  which holds exactly when a reduced word splits into a small-letter
  block and a large-letter block; it is decided by parabolic
  factorization (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
  GTM 231, section 2.4) without enumerating R(w): ``words.peel`` peels
  each parabolic part off, and the split returned is still the first in
  the documented order of a scan over R(w);
* the constructive witness showing that a decomposable permutation's
  ideal shape also occurs as an interval whose endpoints are *not*
  related by deleting one consecutive block from a reduced word of the
  top;
* swap-strings: when two permutations differ exactly on a thin monotonic
  substring (increasing in the lower one, decreasing in the upper one),
  the interval between them is a full symmetric group in disguise, and
  their reduced words factor as ``ac`` / ``abc`` with ``b`` a shifted
  reduced word of a reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import bruhat, forcing, perms, posets, words
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm
from .words import Word


def is_thin(s: Sequence[int], positions: Sequence[int]) -> bool:
    """Whether the monotonic substring of ``s`` at the given 1-based
    positions is thin: no value outside the substring but strictly
    between its extremes sits between the substring's endpoint positions.

    >>> is_thin((9, 1, 4, 0, 2, 3, 6, 5), (4, 5, 6, 8))   # values 0 2 3 5
    True
    >>> is_thin((9, 1, 4, 0, 2, 3, 6, 5), (1, 2, 4))      # values 9 1 0
    False
    """
    pos = tuple(positions)
    if not pos:
        raise ValueError("empty substring")
    if any(p < 1 or p > len(s) for p in pos):
        raise ValueError(f"positions {pos} out of range")
    if any(a >= b for a, b in zip(pos, pos[1:])):
        raise ValueError("positions must be strictly increasing")
    vals = [s[p - 1] for p in pos]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    if not (increasing or decreasing):
        raise ValueError(f"substring {vals} is not monotonic")
    lo, hi = min(vals), max(vals)
    inside = set(pos)
    for q in range(pos[0] + 1, pos[-1]):
        if q in inside:
            continue
        if lo < s[q - 1] < hi:
            return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """A reduced word of ``a1 + a2`` shape whose blocks split at ``m``:
    one block only uses letters <= m, the other only letters > m.

    ``side`` records which block holds the small letters ("left" for a1).
    """

    m: int
    a1: Word
    a2: Word
    side: str

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "a1": words.format_word(self.a1),
            "a2": words.format_word(self.a2),
            "side": self.side,
        }


def _split_sides(a1: Word, a2: Word, m: int) -> str | None:
    if a1 and a2:
        if max(a1) <= m and min(a2) > m:
            return "left"
        if max(a2) <= m and min(a1) > m:
            return "right"
    return None


def _least_splits(w: Perm) -> Iterator[tuple[Word, int, int, str]]:
    """(least word, m, cut, side) for each feasible split of w, with u,
    v, A and B as in :func:`decompose`; v lies in W_B exactly when
    peeling its left descents in B reaches e."""
    n = len(w)
    w_inv, identity = list(perms.inverse(w)), list(range(1, n + 1))
    for m in range(1, n - 1):
        small, large = range(1, m + 1), range(m + 1, n)
        for side, first, second in (("left", small, large),
                                    ("right", large, small)):
            inv = w_inv.copy()
            u_word = words.peel(inv, first)
            v_word = words.peel(inv, second)
            if u_word and v_word and inv == identity:
                yield u_word + v_word, m, len(u_word), side


def decompose(w: Perm) -> Decomposition | None:
    """The first two-block split of a reduced word of w; None means
    indecomposable.

    The documented order is that of a scan over all of R(w): words in
    lexicographic order, then the split letter m ascending, then the cut
    point, with the small-letters-left orientation preferred.  A split is
    exactly equivalent to the principal order ideal of ``w`` factoring as
    a nontrivial direct product.

    R(w) is never enumerated.  For a split at m, let A be the letters of
    the first block and B those of the second: A = {1..m} and B =
    {m+1..n-1} for "left", the reverse for "right".  The words that split
    there are the words of R(u) followed by those of R(v), where w = u v
    is length-additive with u in W_A and v in W_B.  That factorization is
    unique, and u is the W_A part of the parabolic decomposition of w
    (Bjorner and Brenti, *Combinatorics of Coxeter Groups*, GTM 231,
    section 2.4).  So (m, side) is feasible iff u and v are nontrivial
    and v uses only letters of B; its least word is lexleast(u) +
    lexleast(v), cut after lexleast(u).  The least of these words is the
    first splitting word of R(w), and each of its splits is a feasible
    (m, side) with that same word.  A word splits on at most one side at
    a given m, as its first letter is small or large, so the least (word,
    m) is the scan's first hit.

    >>> decompose((2, 3, 1, 4))
    Decomposition(m=1, a1=(1,), a2=(2,), side='left')
    >>> decompose((3, 4, 1, 2)) is None
    True
    """
    first = min(_least_splits(w), default=None)
    if first is None:
        return None
    word, m, cut, side = first
    return Decomposition(m=m, a1=word[:cut], a2=word[cut:], side=side)


@dataclass(frozen=True)
class NonForcingWitness:
    """An interval [w_minus, w_plus] isomorphic to the ideal of ``w`` whose
    endpoints are not related by any single factor deletion.

    ``full_word`` is the constructed reduced word of ``w_plus``; deleting
    its middle run ``b`` (the letters k1+1 .. k2, reversed when the input
    decomposition had its small letters on the right) leaves a reduced
    word whose evaluation is *not* ``w_minus``-reachable by one block.
    """

    w: Perm
    w_minus: Perm
    w_plus: Perm
    b: Word
    k1: int
    k2: int
    full_word: Word
    orientation: str

    def to_json(self) -> dict:
        return {
            "w": perms.format_perm(self.w),
            "w_minus": perms.format_perm(self.w_minus),
            "w_plus": perms.format_perm(self.w_plus),
            "word": words.format_word(self.full_word),
            "k1": self.k1,
            "k2": self.k2,
        }


def _validate_decomposition(w: Perm, d: Decomposition) -> None:
    word = d.a1 + d.a2
    if not d.a1 or not d.a2:
        raise ValueError("decomposition blocks must be nonempty")
    if _split_sides(d.a1, d.a2, d.m) != d.side:
        raise ValueError("decomposition blocks do not split at m")
    if not 1 <= d.m <= len(w) - 2:
        raise ValueError(f"split letter m={d.m} out of range")
    if words.evaluate(word, len(w)) != w or len(word) != perms.length(w):
        raise ValueError("a1 + a2 is not a reduced word of w")


def nonforcing_witness(
    w: Perm, d: Decomposition, limits: Limits = DEFAULT_LIMITS
) -> NonForcingWitness:
    """Build the counterexample interval for a decomposable ``w``.

    With the small letters on the left (blocks A1, A2): k1 is the largest
    letter of A1, k2 the smallest letter of A2, ``b`` the increasing run
    k1+1 .. k2, and the full word is ``A1 + b + shift(A2, 1)``.  Then
    [evaluate(b), evaluate(full)] is isomorphic to the ideal of ``w`` but
    no factor deletion connects the endpoints' reduced words: A1 still
    contains k1 and the shifted A2 contains k2+1, and neither letter can
    commute across the run.

    A small-letters-right decomposition is handled by running the same
    construction on the reversed word (a reduced word of the inverse,
    whose ideal has the same shape); the witness records the orientation.
    Its ambient S_n or S_{n+1} is held to ``limits`` before it is built.
    """
    _validate_decomposition(w, d)
    if d.side == "left":
        a_small, a_large = d.a1, d.a2
    else:
        a_small = tuple(reversed(d.a2))
        a_large = tuple(reversed(d.a1))
    k1 = max(a_small)
    k2 = min(a_large)
    b = tuple(range(k1 + 1, k2 + 1))
    full = a_small + b + words.shift(a_large, 1)
    ambient = max(len(w), max(full) + 1)
    perms.check_group_size(ambient, limits)
    w_minus = words.evaluate(b, ambient)
    w_plus = words.evaluate(full, ambient)

    if not words.is_reduced(full, ambient):
        raise RuntimeError("witness construction produced a non-reduced word")
    shape = posets.poset_from_interval(bruhat.interval(w_minus, w_plus))
    if not posets.is_isomorphic(shape, posets.poset_from_interval(
            bruhat.ideal(w))):
        raise RuntimeError("witness interval does not match the ideal shape")
    if forcing.factor_deletion(w_minus, w_plus, limits) is not None:
        raise RuntimeError("witness interval admits a factor deletion")
    return NonForcingWitness(
        w=w,
        w_minus=w_minus,
        w_plus=w_plus,
        b=b,
        k1=k1,
        k2=k2,
        full_word=full,
        orientation=d.side,
    )


@dataclass(frozen=True)
class SwapString:
    """The thin monotonic substring distinguishing x from y.

    ``positions`` are the 1-based positions (increasing), ``values`` the
    set of values on them in increasing order; the values read increasing
    in x and decreasing in y, and x and y agree everywhere else.
    """

    positions: tuple[int, ...]
    values: tuple[int, ...]
    k: int

    def to_json(self) -> dict:
        return {
            "positions": list(self.positions),
            "values": list(self.values),
            "k": self.k,
        }


def _swap_string_at(x: Perm, y: Perm, pos: tuple[int, ...]) -> SwapString | None:
    vals_x = [x[p - 1] for p in pos]
    vals_y = [y[p - 1] for p in pos]
    if any(a >= b for a, b in zip(vals_x, vals_x[1:])):
        return None
    if any(a <= b for a, b in zip(vals_y, vals_y[1:])):
        return None
    if set(vals_x) != set(vals_y):
        return None
    k = len(pos)
    if k % 2 == 1 and x[pos[k // 2] - 1] != y[pos[k // 2] - 1]:
        return None
    if not (is_thin(x, pos) and is_thin(y, pos)):
        return None
    return SwapString(positions=pos, values=tuple(vals_x), k=k)


def detect_swap_string(x: Perm, y: Perm) -> SwapString | None:
    """The unique swap-string if x and y differ exactly on one, else None.

    The differing positions must all belong to the swap-string; when its
    length k is odd the central position carries the middle value in both
    strings, so it is the one swap-string position where x and y agree.
    The candidates are therefore the differing positions alone (even k)
    or those plus one interior agreeing position (odd k); thinness rules
    out all but one.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    diff = tuple(p for p in range(1, len(x) + 1) if x[p - 1] != y[p - 1])
    if len(diff) < 2:
        return None
    found = _swap_string_at(x, y, diff)
    if found is not None:
        return found
    for c in range(diff[0] + 1, diff[-1]):
        if c in diff:
            continue
        pos = tuple(sorted(diff + (c,)))
        found = _swap_string_at(x, y, pos)
        if found is not None:
            return found
    return None


def _sort_block_letters(block: Sequence[int], start: int) -> list[int]:
    """Letters (1-based) of adjacent swaps that sort a descending block
    occupying 1-based positions start..start+k-1, each swap fixing one
    inversion: repeatedly swap the leftmost adjacent descent."""
    work = list(block)
    letters = []
    while True:
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                letters.append(start + i)
                break
        else:
            return letters


def swap_string_factorization(
    x: Perm, y: Perm, ss: SwapString
) -> tuple[Word, Word, Word, int]:
    """Reduced words ``a + c`` of x and ``a + b + c`` of y, with
    ``shift(b, t)`` a reduced word of the reversal of size k.

    Following the swap-string structure: first sweep every intruding
    value out of the span by right multiplications shared between x and
    y (too-large values move right, outermost first; too-small values
    move left, outermost first; each swap removes exactly one
    inversion from both).  The swap-string is then a consecutive block,
    decreasing in the reduced-down y; sorting that block ascending gives ``b``
    (reversed, so that a b c composes back up to y), the recorded sweep
    reversed gives ``c``, and ``a`` is the lexicographically least
    reduced word of the swept-down x.
    """
    if detect_swap_string(x, y) != ss:
        raise ValueError("swap-string does not belong to the pair (x, y)")
    n = len(x)
    values = set(ss.values)
    cur_x, cur_y = list(x), list(y)
    sweep: list[int] = []

    def span() -> tuple[int, int]:
        spots = [i for i, v in enumerate(cur_x) if v in values]
        return spots[0], spots[-1]

    def swap_both(i: int) -> None:
        # 0-based adjacent swap at (i, i+1); must remove an inversion in both
        assert cur_x[i] > cur_x[i + 1] and cur_y[i] > cur_y[i + 1]
        cur_x[i], cur_x[i + 1] = cur_x[i + 1], cur_x[i]
        cur_y[i], cur_y[i + 1] = cur_y[i + 1], cur_y[i]
        sweep.append(i + 1)

    hi_val = max(values)
    lo_val = min(values)
    while True:
        lo, hi = span()
        big = [q for q in range(lo + 1, hi) if cur_x[q] > hi_val]
        if not big:
            break
        q = max(big)
        while any(cur_x[t] in values for t in range(q + 1, n)):
            swap_both(q)
            q += 1
    while True:
        lo, hi = span()
        small = [q for q in range(lo + 1, hi) if cur_x[q] < lo_val]
        if not small:
            break
        q = min(small)
        while any(cur_x[t] in values for t in range(q)):
            swap_both(q - 1)
            q -= 1

    lo, hi = span()
    assert hi - lo + 1 == ss.k, "sweep failed to make the block consecutive"
    beta = _sort_block_letters(cur_y[lo:hi + 1], lo + 1)
    b = tuple(reversed(beta))
    c = tuple(reversed(sweep))
    a = words.lex_least_reduced_word(tuple(cur_x))
    t = -lo

    if words.evaluate(a + c, n) != x:
        raise RuntimeError("factorization failed: a + c is not a word for x")
    if words.evaluate(a + b + c, n) != y:
        raise RuntimeError("factorization failed: a + b + c is not a word for y")
    if words.evaluate(words.shift(b, t), ss.k) != perms.longest(ss.k):
        raise RuntimeError("factorization failed: b does not shift to a "
                           "reversal word")
    return a, b, c, t
