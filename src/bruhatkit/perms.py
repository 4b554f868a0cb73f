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
import operator
from typing import Iterable, Iterator

from .limits import DEFAULT_LIMITS, CapExceeded, Limits

Perm = tuple[int, ...]


def require_positive(n: int) -> None:
    """Reject a group size that is not an integer of at least 1 (a bool
    is not one); the builders' one check."""
    if type(n) is not int or n < 1:
        raise ValueError(f"invalid group size n={n!r}; need n >= 1")


def check_group_size(n: int, limits: Limits = DEFAULT_LIMITS) -> None:
    """Reject nonpositive or over-cap group sizes where input enters."""
    require_positive(n)
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
    for v in w:
        if type(v) is not int:
            raise ValueError(f"entries must be integers, got {v!r}")
    check_group_size(len(w), limits)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a bijection on 1..{len(w)}")
    return w


def identity(n: int) -> Perm:
    """The identity 1 2 ... n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    require_positive(n)
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The reversal n (n-1) ... 1, the unique element of maximal length.

    >>> longest(4)
    (4, 3, 2, 1)
    >>> length(longest(4))
    6
    """
    require_positive(n)
    return tuple(range(n, 0, -1))


def length(w: Perm) -> int:
    """Coxeter length: the number of inversions of ``w``.

    The entry a = w(i) heads the inversions (i, j) with w(j) < a, and
    a - 1 values lie below it, of which those met before i are the set
    bits under a of ``seen``, the mask of the values w(1..i-1); so the
    sum is one popcount per entry, not a scan of the rest of w.
    """
    total = seen = 0
    for a in w:
        total += a - 1 - (seen & ((1 << a) - 1)).bit_count()
        seen |= 1 << a
    return total


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


def embed(w: Perm, m: int) -> Perm:
    """View ``w`` inside S_m by appending fixed points; length is preserved.

    >>> embed((3, 4, 1, 2), 5)
    (3, 4, 1, 2, 5)
    """
    if m < len(w):
        raise ValueError(f"cannot embed an S_{len(w)} element into S_{m}")
    return w + tuple(range(len(w) + 1, m + 1))


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


def is_orbit_extreme(w: Perm, greatest: bool = False) -> bool:
    """Whether w is the least of :func:`symmetry_images` in one-line
    order, or with ``greatest`` the greatest.

    The first entries of the three other images need no image: w^-1(1)
    is the position of 1, (w0 w w0)(1) is n + 1 - w(n), and
    (w0 w^-1 w0)(1) is n + 1 less the position of n.  An image whose
    first entry is not w(1) beats w exactly when that entry beats w(1),
    so the images are built, and compared whole, only when no first
    entry beats w(1) and one equals it.

    >>> is_orbit_extreme((2, 3, 1)), is_orbit_extreme((3, 1, 2))
    (True, False)
    >>> is_orbit_extreme((3, 1, 2), greatest=True)
    True
    """
    beats = operator.gt if greatest else operator.lt
    n, first = len(w), w[0]
    heads = (w.index(1) + 1, n + 1 - w[-1], n - w.index(n))
    if (beats(heads[0], first) or beats(heads[1], first)
            or beats(heads[2], first)):
        return False
    if first not in heads:
        return True
    wi = inverse(w)
    return not (beats(wi, w) or beats(conjugate_by_longest(w), w)
                or beats(conjugate_by_longest(wi), w))


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
