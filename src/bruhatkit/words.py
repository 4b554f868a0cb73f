"""Words in the generators: evaluation, reduced words, shifts, subwords.

A word is a tuple of integer letters, letter ``i`` standing for the
adjacent transposition s_i.  Candidate reduced words for S_n must use
letters in 1..n-1; shifted words (see :func:`shift`) may leave that range
and are then just integer strings, which only :func:`evaluate` and
:func:`is_reduced` reject.

Text form mirrors permutations: letters run together when they are all
single digits, and are space-separated otherwise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .perms import Perm

Word = tuple[int, ...]


def format_word(word: Word) -> str:
    """Text form of a word; the empty word prints as ''.

    >>> format_word((1, 2, 1, 3))
    '1213'
    >>> format_word((1, -5, -4))
    '1 -5 -4'
    """
    if not word:
        return ""
    if all(0 <= a <= 9 for a in word):
        return "".join(str(a) for a in word)
    return " ".join(str(a) for a in word)


def parse_word(text: str) -> Word:
    """Parse either text form of a word."""
    text = text.strip()
    if not text:
        return ()
    if any(c.isspace() for c in text):
        return tuple(int(tok) for tok in text.split())
    if not text.isdigit():
        raise ValueError(f"cannot parse word {text!r}")
    return tuple(int(c) for c in text)


def evaluate(word: Word, n: int, limits: Limits = DEFAULT_LIMITS) -> Perm:
    """The product of the corresponding simple reflections, in word order.

    >>> evaluate((1, 2, 1, 3), 4)
    (3, 2, 4, 1)
    >>> evaluate((), 4)
    (1, 2, 3, 4)
    """
    perms.check_group_size(n, limits)
    w = list(range(1, n + 1))
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for S_{n}")
        w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def is_reduced(word: Word, n: int, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff the word has minimal length for the element it evaluates to."""
    return len(word) == perms.length(evaluate(word, n, limits))


@dataclass(frozen=True)
class ReducedWordSet:
    """The complete set R(w) of reduced words of ``owner``, held as a
    tuple in lexicographic order."""

    owner: Perm
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: Word) -> bool:
        word = tuple(word)
        i = bisect.bisect_left(self.words, word)
        return i < len(self.words) and self.words[i] == word

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def sorted_words(self) -> tuple[Word, ...]:
        return self.words

    def to_json(self) -> list[str]:
        """Lexicographically sorted word strings, for reproducible fixtures."""
        return [format_word(word) for word in self.words]


def _check_word_length(w: Perm, limits: Limits) -> None:
    if perms.length(w) > limits.max_word_length:
        raise CapExceeded(
            f"length {perms.length(w)} exceeds the reduced-word cap "
            f"max_word_length={limits.max_word_length}"
        )


def reduced_words(w: Perm, limits: Limits = DEFAULT_LIMITS) -> ReducedWordSet:
    """Enumerate all of R(w), in lexicographic order.

    Recursive descent over left descents (the values i that appear to the
    right of i+1 supply the first letters), taken in ascending order and
    memoized by permutation so each element below ``w`` is expanded once.
    All words of R(w) have the same length, so listing each first letter's
    words in turn keeps the result lexicographic.  The memo is per-call,
    so concurrent invocations do not share state.
    """
    _check_word_length(w, limits)
    cap = limits.max_reduced_words
    memo: dict[Perm, tuple[Word, ...]] = {}

    def rec(v: Perm) -> tuple[Word, ...]:
        got = memo.get(v)
        if got is not None:
            return got
        descents = perms.left_descents(v)
        if not descents:
            result: tuple[Word, ...] = ((),)
        else:
            acc: list[Word] = []
            for i in descents:
                for rest in rec(perms.apply_left(i, v)):
                    acc.append((i,) + rest)
                    if len(acc) > cap:
                        raise CapExceeded(
                            f"|R(w)| exceeds the cap max_reduced_words={cap}"
                        )
            result = tuple(acc)
        memo[v] = result
        return result

    return ReducedWordSet(owner=w, words=rec(w))


def iter_reduced_words(
    w: Perm, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Word]:
    """Yield R(w) lazily in lexicographic order.

    The recursion of :func:`reduced_words` without its memo: nothing is
    materialized, so searches can stop at the first hit.
    """
    _check_word_length(w, limits)

    def gen(v: Perm) -> Iterator[Word]:
        descents = perms.left_descents(v)
        if not descents:
            yield ()
            return
        for i in descents:
            for rest in gen(perms.apply_left(i, v)):
                yield (i,) + rest

    return gen(w)


def lex_least_reduced_word(w: Perm) -> Word:
    """The lexicographically least member of R(w).

    Greedily taking the smallest left descent at each step is exact: every
    reduced word starts with a left descent, and the suffix problem is the
    same problem one rank down.
    """
    letters = []
    v = w
    while True:
        descents = perms.left_descents(v)
        if not descents:
            return tuple(letters)
        i = min(descents)
        letters.append(i)
        v = perms.apply_left(i, v)


def shift(word: Word, t: int) -> Word:
    """Add ``t`` to every letter; the result may leave generator range.

    >>> shift((5, -1, 0), 4)
    (9, 3, 4)
    >>> shift((5, -1, 0), -4)
    (1, -5, -4)
    """
    return tuple(a + t for a in word)


def delete_factor(word: Word, start: int, count: int) -> Word:
    """Remove the consecutive block ``word[start:start+count]``.

    >>> delete_factor((1, 2, 1, 3), 1, 2)
    (1, 3)
    """
    if start < 0 or count < 0 or start + count > len(word):
        raise ValueError(
            f"factor [{start}:{start + count}] out of bounds for a word "
            f"of size {len(word)}"
        )
    return word[:start] + word[start + count:]


def is_subword(a: Word, b: Word) -> bool:
    """True iff ``a`` embeds in ``b`` as a (not necessarily consecutive)
    subsequence.

    >>> is_subword((2,), (1, 2, 3))
    True
    >>> is_subword((2, 1), (1, 2))
    False
    """
    it = iter(b)
    return all(letter in it for letter in a)
