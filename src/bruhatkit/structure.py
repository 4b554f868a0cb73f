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
  reduced word of a reversal.  Both are read off the positions and
  values of the two permutations in closed form: the substring's ends
  and extremes from where they differ, and ``c`` from the intruders
  between its ends, with no search and no simulated sweep.

The two constructors find their own input, ``nonforcing_witness(w)``
by :func:`decompose` and ``swap_string_factorization(x, y)`` by
:func:`detect_swap_string`, and return None when it finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import bruhat, forcing, perms, posets, words
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm
from .words import Word


@dataclass(frozen=True)
class Decomposition:
    """A reduced word of ``a1 + a2`` shape whose blocks split at ``m``:
    one block only uses letters <= m, the other only letters > m.

    ``side`` records which block holds the small letters ("left" for a1).
    :func:`nonforcing_witness` builds from the split :func:`decompose` finds.
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
    endpoints are not related by any single factor deletion, built by
    :func:`nonforcing_witness` from the split :func:`decompose` finds.

    ``full_word`` is the constructed reduced word of ``w_plus`` and ``b``
    its middle run k1+1 .. k2, a reduced word of ``w_minus``.
    ``orientation`` is the split's side: for "right" the construction ran
    on the reversed split, a reduced word of the inverse of ``w``.
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


def nonforcing_witness(
    w: Perm, *, limits: Limits = DEFAULT_LIMITS
) -> NonForcingWitness | None:
    """The counterexample interval built from :func:`decompose` of ``w``;
    None when ``w`` is indecomposable.

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
    d = decompose(w)
    if d is None:
        return None
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
    if not posets.is_isomorphic(bruhat.interval(w_minus, w_plus),
                                bruhat.ideal(w)):
        raise RuntimeError("witness interval does not match the ideal shape")
    if forcing.factor_deletion(w_minus, w_plus, limits) is not None:
        raise RuntimeError("witness interval admits a factor deletion")
    return NonForcingWitness(w=w, w_minus=w_minus, w_plus=w_plus, b=b,
                             k1=k1, k2=k2, full_word=full,
                             orientation=d.side)


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


def detect_swap_string(x: Perm, y: Perm) -> SwapString | None:
    """The unique swap-string if x and y differ exactly on one, else None.

    Its ends are the first and last positions where x and y differ, and
    its least and greatest values the least and greatest values of x
    there.  So the candidate is read off directly: every position
    between those ends whose x-value lies between those values, which is
    thin by construction.  It is the swap-string when x increases on it
    and y reads the same values backwards (proof in
    ``notes/decisions.md``).
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: S_{len(x)} vs S_{len(y)}")
    diff = [p for p in range(len(x)) if x[p] != y[p]]
    if len(diff) < 2:
        return None
    v_lo = min(x[p] for p in diff)
    v_hi = max(x[p] for p in diff)
    pos = [p for p in range(diff[0], diff[-1] + 1) if v_lo <= x[p] <= v_hi]
    vals = [x[p] for p in pos]
    if (any(a >= b for a, b in zip(vals, vals[1:]))
            or [y[p] for p in pos] != vals[::-1]):
        return None
    return SwapString(positions=tuple(p + 1 for p in pos),
                      values=tuple(vals), k=len(pos))


def swap_string_factorization(
    x: Perm, y: Perm
) -> tuple[Word, Word, Word, int] | None:
    """Reduced words ``a + c`` of x and ``a + b + c`` of y, with
    ``shift(b, t)`` a reduced word of the reversal of size k; None when
    :func:`detect_swap_string` finds no swap-string.

    Between the ends lo and hi (0-based) of the swap-string, every other
    value is an intruder, *big* when above the swap-string's values and
    *small* when below them.  Sweeping them out of the span by adjacent
    swaps shared between x and y, each of which removes one inversion
    from both, leaves the swap-string as a consecutive block, increasing
    in the swept x and decreasing in the swept y.  The sweep is written
    out, not simulated: the big intruders go right, the rightmost first,
    the i-th of them from position q by the letters q+1 .. hi-i; the
    small ones go left, the leftmost first, the i-th from q' (its
    position less the big intruders that passed it) by the letters q',
    q'-1, .. lo+i+1.  The swept x reads x before lo, the small
    intruders, the block increasing, the big intruders, then x after hi.
    ``c`` is the sweep reversed, ``a`` the lexicographically least
    reduced word of the swept x, and ``b`` the word (1 .. k-1)(1 .. k-2)
    ... (1) of the reversal shifted to the block's start.  Lengths and
    products are checked before returning (proofs in
    ``notes/decisions.md``).
    """
    ss = detect_swap_string(x, y)
    if ss is None:
        return None
    n, k = len(x), ss.k
    lo, hi = ss.positions[0] - 1, ss.positions[-1] - 1
    big = [q for q in range(lo + 1, hi) if x[q] > ss.values[-1]]
    small = [q for q in range(lo + 1, hi) if x[q] < ss.values[0]]
    swept = (x[:lo] + tuple(x[q] for q in small) + ss.values
             + tuple(x[q] for q in big) + x[hi + 1:])
    sweep = [letter for i, q in enumerate(reversed(big))
             for letter in range(q + 1, hi - i + 1)]
    sweep += [letter for i, q in enumerate(small)
              for letter in range(q - sum(p < q for p in big), lo + i, -1)]
    start = lo + len(small)
    b = tuple(start + i for r in range(k - 1, 0, -1) for i in range(1, r + 1))
    c = tuple(reversed(sweep))
    a = words.lex_least_reduced_word(swept)
    t = -start

    if len(a) + len(c) != perms.length(x):
        raise RuntimeError("factorization failed: a + c is not reduced")
    if len(a) + len(b) + len(c) != perms.length(y):
        raise RuntimeError("factorization failed: a + b + c is not reduced")
    if words.evaluate(a + c, n) != x:
        raise RuntimeError("factorization failed: a + c is not a word for x")
    if words.evaluate(a + b + c, n) != y:
        raise RuntimeError("factorization failed: a + b + c is not a word for y")
    if words.evaluate(words.shift(b, t), k) != perms.longest(k):
        raise RuntimeError("factorization failed: b does not shift to a "
                           "reversal word")
    return a, b, c, t
