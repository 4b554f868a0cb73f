"""Permutations of {1..n} in one-line notation.

A permutation is a tuple ``w`` with ``w[i-1]`` the image of ``i``, so the
tuple reads exactly like the one-line string ``w(1)w(2)...w(n)``.  Values
and positions are 1-based everywhere in the public interface; text forms
concatenate digits for n <= 9 and use spaces otherwise.

The product convention is fixed so that ``s_i * w`` interchanges the
positions of the values ``i`` and ``i+1``, while ``w * s_i`` interchanges
the values in positions ``i`` and ``i+1``.  Equivalently ``compose(u, v)``
is the map ``i -> u(v(i))``.

All values are immutable tuples and every function is pure, so the module
is safe to use from many threads without coordination.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .limits import DEFAULT_LIMITS, CapExceeded, Limits

Perm = tuple[int, ...]


def check_group_size(n: int, limits: Limits = DEFAULT_LIMITS) -> None:
    """Reject nonpositive or over-cap group sizes."""
    if n < 1:
        raise ValueError(f"invalid group size n={n}; need n >= 1")
    if n > limits.max_n:
        raise CapExceeded(
            f"group size n={n} exceeds the configured cap max_n={limits.max_n}"
        )


def make_perm(entries: Iterable[int], limits: Limits = DEFAULT_LIMITS) -> Perm:
    """Validate and freeze one-line notation.

    >>> make_perm([3, 2, 4, 1])
    (3, 2, 4, 1)
    """
    w = tuple(entries)
    check_group_size(len(w), limits)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a bijection on 1..{len(w)}")
    return w


def identity(n: int, limits: Limits = DEFAULT_LIMITS) -> Perm:
    """The identity 1 2 ... n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    check_group_size(n, limits)
    return tuple(range(1, n + 1))


def longest(n: int, limits: Limits = DEFAULT_LIMITS) -> Perm:
    """The reversal n (n-1) ... 1, the unique element of maximal length.

    >>> longest(4)
    (4, 3, 2, 1)
    >>> length(longest(4))
    6
    """
    check_group_size(n, limits)
    return tuple(range(n, 0, -1))


def length(w: Perm) -> int:
    """Coxeter length: the number of inversions of ``w``."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def inversions(w: Perm) -> set[tuple[int, int]]:
    """All pairs (i, j) of 1-based positions with i < j and w(i) > w(j).

    >>> sorted(inversions((3, 2, 1)))
    [(1, 2), (1, 3), (2, 3)]
    """
    n = len(w)
    return {
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j]
    }


def inverse(w: Perm) -> Perm:
    """The inverse permutation."""
    inv = [0] * len(w)
    for pos, val in enumerate(w):
        inv[val - 1] = pos + 1
    return tuple(inv)


def compose(u: Perm, v: Perm) -> Perm:
    """The product ``uv``, the map i -> u(v(i)).

    >>> compose((2, 1, 3, 4), (1, 3, 2, 4))   # s_1 s_2
    (2, 3, 1, 4)
    """
    if len(u) != len(v):
        raise ValueError(
            f"size mismatch: cannot compose S_{len(u)} with S_{len(v)} elements"
        )
    return tuple(u[j - 1] for j in v)


def simple_reflection(i: int, n: int) -> Perm:
    """The adjacent transposition s_i in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"reflection index {i} out of range for S_{n}")
    lst = list(range(1, n + 1))
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def apply_left(i: int, w: Perm) -> Perm:
    """``s_i w``: interchange the positions of the values i and i+1.

    >>> apply_left(1, (3, 2, 4, 1))
    (3, 1, 4, 2)
    """
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"reflection index {i} out of range for S_{len(w)}")
    lst = list(w)
    p, q = lst.index(i), lst.index(i + 1)
    lst[p], lst[q] = lst[q], lst[p]
    return tuple(lst)


def apply_right(w: Perm, i: int) -> Perm:
    """``w s_i``: interchange the values in positions i and i+1.

    >>> apply_right((3, 2, 4, 1), 1)
    (2, 3, 4, 1)
    """
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"reflection index {i} out of range for S_{len(w)}")
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def embed(w: Perm, m: int, limits: Limits = DEFAULT_LIMITS) -> Perm:
    """View ``w`` inside S_m by appending fixed points; length is preserved.

    >>> embed((3, 4, 1, 2), 5)
    (3, 4, 1, 2, 5)
    """
    if m < len(w):
        raise ValueError(f"cannot embed an S_{len(w)} element into S_{m}")
    check_group_size(m, limits)
    return w + tuple(range(len(w) + 1, m + 1))


def left_descents(w: Perm) -> list[int]:
    """Indices i such that the value i appears to the right of i+1; these
    are the legal first letters of reduced words of ``w``."""
    pos = inverse(w)
    return [i for i in range(1, len(w)) if pos[i - 1] > pos[i]]


def conjugate_by_longest(w: Perm) -> Perm:
    """``w0 w w0``, the symmetry of the Bruhat order sending s_i to s_{n-i}."""
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def symmetry_images(w: Perm) -> tuple[Perm, Perm, Perm, Perm]:
    """The images of ``w`` under the Bruhat-order automorphisms generated
    by inversion and conjugation by the reversal: w, w^-1, w0 w w0 and
    w0 w^-1 w0.

    >>> symmetry_images((2, 3, 1))
    ((2, 3, 1), (3, 1, 2), (3, 1, 2), (2, 3, 1))
    """
    wi = inverse(w)
    return w, wi, conjugate_by_longest(w), conjugate_by_longest(wi)


def all_perms(n: int, limits: Limits = DEFAULT_LIMITS) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    check_group_size(n, limits)
    return itertools.permutations(range(1, n + 1))


def format_perm(w: Perm) -> str:
    """One-line text form: digits run together for n <= 9.

    >>> format_perm((3, 2, 4, 1))
    '3241'
    """
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return " ".join(str(v) for v in w)


def parse_perm(text: str, limits: Limits = DEFAULT_LIMITS) -> Perm:
    """Parse either text form (``"3241"`` or ``"3 2 4 1"``)."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if any(c.isspace() for c in text):
        entries = [int(tok) for tok in text.split()]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation {text!r}")
        entries = [int(c) for c in text]
    return make_perm(entries, limits)
