"""Words in the generators: evaluation, reduced words, shifts.

Every walk over R(w) lives here.  Each one follows the left-descent
recursion (a reduced word of w is a left descent i of w followed by a
reduced word of s_i w).  The three walks over all of R(w) read one
table, the elements below w in the left weak order with their left
descents (:func:`_weak_order_ideal`): :func:`reduced_words` folds it up
to build R(w), :func:`count_reduced_words` folds it to count R(w)
without building a word, and :func:`iter_reduced_words` walks it down
from w to yield R(w) lazily.  :func:`peel` takes the least left descent
at each step to spell the least word of w, or of one parabolic part of
w.

A word is a tuple of integer letters, letter ``i`` standing for the
adjacent transposition s_i.  Candidate reduced words for S_n must use
letters in 1..n-1; shifted words (see :func:`shift`) may leave that range
and are then just integer strings, which only :func:`evaluate` and
:func:`is_reduced` reject.

Text form mirrors permutations: letters run together when they are all
single digits, and are space-separated otherwise.

:func:`reduced_words` spells each word of R(w) as a string, letter ``i``
as the character ``chr(ord("0") + i)``.  For S_n with n <= 10 that
string is the word's text form, and for any n strings compare in the
same order as the integer tuples.  R(w) is built as one text, its
spelled words in lexicographic order one per line: an element's text
is made from those below it by a few string operations, not one Python
object per word, and for S_n with n <= 10 it is what ``bruhatkit
words`` prints.
:class:`ReducedWordSet` splits it into lines, and decodes those back to
tuples, on demand.
"""

from __future__ import annotations

import bisect
import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from . import perms
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .perms import Perm

Word = tuple[int, ...]

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_ZERO = ord("0")


def format_word(word: Word) -> str:
    """Text form of a word; the empty word prints as ''.

    >>> format_word((1, 2, 1, 3))
    '1213'
    >>> format_word((1, -5, -4))
    '1 -5 -4'
    """
    if not word:
        return ""
    if 0 <= min(word) and max(word) <= 9:
        return bytes(word).translate(_DIGITS).decode("ascii")
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


def evaluate(word: Word, n: int) -> Perm:
    """The product of the corresponding simple reflections, in word order.

    >>> evaluate((1, 2, 1, 3), 4)
    (3, 2, 4, 1)
    >>> evaluate((), 4)
    (1, 2, 3, 4)
    """
    perms.require_positive(n)
    w = list(range(1, n + 1))
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for S_{n}")
        w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def is_reduced(word: Word, n: int) -> bool:
    """True iff the word has minimal length for the element it evaluates to."""
    return len(word) == perms.length(evaluate(word, n))


def _unspell(spelled: str) -> Word:
    return tuple(ord(c) - _ZERO for c in spelled)


@dataclass(frozen=True)
class ReducedWordSet:
    """The complete set R(w) of reduced words of ``owner``, held as one
    ``text``: the spelled words (letter ``i`` spelled
    ``chr(ord("0") + i)``) in lexicographic order, one per line.

    ``spelled`` splits the text into its lines once, on first access.
    ``words``, iteration and membership speak tuples of integer letters,
    as everywhere else in this module; ``words`` decodes all of R(w) on
    each access.
    """

    owner: Perm
    text: str

    @functools.cached_property
    def spelled(self) -> tuple[str, ...]:
        """The lines of ``text``: each word spelled as a string."""
        return tuple(self.text.split("\n"))

    @property
    def words(self) -> tuple[Word, ...]:
        """R(w) decoded to tuples of integer letters, in lexicographic
        order."""
        return tuple(map(_unspell, self.spelled))

    def __len__(self) -> int:
        # R(w) is never empty; the identity's one word is the empty line
        return self.text.count("\n") + 1

    def __contains__(self, word: Word) -> bool:
        n = len(self.owner)
        letters = tuple(word)
        # a letter outside 1..n-1 is in no reduced word of S_n; a letter
        # that is not an integer raises TypeError, here or in chr
        if not all(1 <= a < n for a in letters):
            return False
        spelled = "".join([chr(_ZERO + a) for a in letters])
        i = bisect.bisect_left(self.spelled, spelled)
        return i < len(self.spelled) and self.spelled[i] == spelled

    def __iter__(self) -> Iterator[Word]:
        return map(_unspell, self.spelled)

    def to_json(self) -> list[str]:
        """Lexicographically sorted word strings, for reproducible fixtures.

        Up to S_10 every letter is one digit, so the spelled strings are
        already the text forms.  Past it :func:`format_word` chooses per
        word between run-together digits and space-separated letters.
        """
        if len(self.owner) <= 10:
            return list(self.spelled)
        return [format_word(word) for word in self]

    def to_text(self) -> str:
        """The lines of :meth:`to_json` joined by newlines; up to S_10
        that is ``text`` itself, with no line split out."""
        if len(self.owner) <= 10:
            return self.text
        return "\n".join(self.to_json())


def _check_word_length(w: Perm, limits: Limits) -> None:
    if perms.length(w) > limits.max_word_length:
        raise CapExceeded(
            f"length {perms.length(w)} exceeds the reduced-word cap "
            f"max_word_length={limits.max_word_length}"
        )


def _weak_order_ideal(w: Perm) -> dict[Perm, list[tuple[int, Perm]]]:
    """Every v below w in the left weak order, keyed by its inverse, with
    (i, inverse of s_i v) for each left descent i of v, ascending.

    i is a left descent when inv[i - 1] > inv[i], and s_i v swaps those
    two entries of the inverse.  Each v is entered after all its s_i v,
    so a fold over the entries in order meets every s_i v before v, and
    ends at w.
    """
    ideal: dict[Perm, list[tuple[int, Perm]]] = {}

    def visit(inv: Perm) -> None:
        below = [
            (i, inv[:i - 1] + (inv[i], inv[i - 1]) + inv[i + 1:])
            for i in range(1, len(inv))
            if inv[i - 1] > inv[i]
        ]
        for _, lower in below:
            if lower not in ideal:
                visit(lower)
        ideal[inv] = below

    visit(perms.inverse(w))
    # visit holds itself, and so the table, in its closure: unbind it so
    # that the table is freed with its last reader, not by the collector
    del visit
    return ideal


def _count(ideal: dict[Perm, list[tuple[int, Perm]]]) -> int:
    """|R(w)| for the w that :func:`_weak_order_ideal` ended at: a reduced
    word of v is a left descent i of v followed by a reduced word of
    s_i v, so count(v) is the sum of count(s_i v), and count(e) = 1."""
    counts: dict[Perm, int] = {}
    for inv, below in ideal.items():
        counts[inv] = total = sum(counts[lower] for _, lower in below) or 1
    return total


def count_reduced_words(w: Perm) -> int:
    """|R(w)|, without building a word, by the left-descent recursion
    (Bjorner and Brenti, *Combinatorics of Coxeter Groups*, GTM 231,
    ch. 3) over the elements below w in the left weak order.

    >>> count_reduced_words((3, 2, 4, 1))
    3
    >>> count_reduced_words((1, 2, 3))
    1
    """
    return _count(_weak_order_ideal(w))


def reduced_words(w: Perm, limits: Limits = DEFAULT_LIMITS) -> ReducedWordSet:
    """Enumerate all of R(w), in lexicographic order.

    Both caps are checked before any word is built: the length of w
    first, then |R(w)| as :func:`count_reduced_words` gives it.  The
    words of each element v below w in the left weak order are then
    built once, from those of each s_i v with i a left descent of v (the
    values i that appear to the right of i+1), taken in ascending order.
    All words of R(w) have the same length, so listing each first
    letter's words in turn keeps the result lexicographic.  The words of
    an element are kept as one text, its spelled words one per line
    (see :class:`ReducedWordSet`), and the spelled strings sort as the
    tuples of letters do.  Putting letter i in front of every line of
    the text of s_i v is one ``str.replace``, appended to v's text, so
    the fold does no Python work per word.  The text of an element is
    dropped once every element above it that reads it is built, not
    kept until the fold ends.  Every table is per-call, so concurrent
    invocations do not share state.

    >>> reduced_words((3, 2, 4, 1)).text
    '1213\\n1231\\n2123'
    >>> reduced_words((3, 2, 4, 1)).spelled
    ('1213', '1231', '2123')
    >>> reduced_words((3, 2, 4, 1)).words[0]
    (1, 2, 1, 3)
    """
    _check_word_length(w, limits)
    ideal = _weak_order_ideal(w)
    cap = limits.max_reduced_words
    if _count(ideal) > cap:
        raise CapExceeded(f"|R(w)| exceeds the cap max_reduced_words={cap}")
    readers = Counter(lower for below in ideal.values() for _, lower in below)
    memo: dict[Perm, str] = {}
    for inv, below in ideal.items():
        text = ""
        for i, lower in below:
            letter = chr(_ZERO + i)
            readers[lower] -= 1
            # appended in place, not joined from parts, which would hold
            # every part and the whole text at once; the last reader pops
            # the text it reads, freeing it before its copy is appended
            read = memo.__getitem__ if readers[lower] else memo.pop
            text += "\n" + letter if text else letter
            text += read(lower).replace("\n", "\n" + letter)
        memo[inv] = text
    return ReducedWordSet(owner=w, text=text)


def iter_reduced_words(
    w: Perm, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Word]:
    """Yield R(w) lazily in lexicographic order.

    The recursion of :func:`reduced_words` over the same table of the
    elements below w, walked from w down without a memo: no word is
    kept, so searches can stop at the first hit.
    """
    _check_word_length(w, limits)
    return _walk(_weak_order_ideal(w), perms.inverse(w))


def _walk(ideal: dict[Perm, list[tuple[int, Perm]]],
          inv: Perm) -> Iterator[Word]:
    """R(v) in lexicographic order, for the v whose inverse is ``inv``:
    each left descent i of v, ascending, before each word of s_i v.  The
    table is an argument, not a closure cell, so that it is freed with
    the last generator that reads it, not by the collector."""
    below = ideal[inv]
    if not below:
        yield ()
    for i, lower in below:
        for rest in _walk(ideal, lower):
            yield (i,) + rest


def peel(inv: list[int], block: range) -> Word:
    """Peel the W_block part u off w = u v; ``inv`` holds the positions
    of w's values (inv[i - 1] is where i sits) and becomes v's.

    s_i w swaps inv[i - 1] and inv[i], and i is a left descent when
    inv[i - 1] > inv[i].  Always taking the least left descent in
    ``block`` spells lexleast(u), and ends at the v that has none.  A
    step at i changes only the descents at i - 1, i and i + 1, so the
    least descent left is at i - 1 or later.
    """
    letters = []
    i = block.start
    while i < block.stop:
        if inv[i - 1] > inv[i]:
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            letters.append(i)
            i = max(i - 1, block.start)
        else:
            i += 1
    return tuple(letters)


def lex_least_reduced_word(w: Perm) -> Word:
    """The lexicographically least member of R(w): :func:`peel` over all
    letters 1..n-1.

    Greedily taking the smallest left descent at each step is exact: every
    reduced word starts with a left descent, and the suffix problem is the
    same problem one rank down.

    >>> lex_least_reduced_word((3, 2, 4, 1))
    (1, 2, 1, 3)
    """
    return peel(list(perms.inverse(w)), range(1, len(w)))


def shift(word: Word, t: int) -> Word:
    """Add ``t`` to every letter; the result may leave generator range.

    >>> shift((5, -1, 0), 4)
    (9, 3, 4)
    >>> shift((5, -1, 0), -4)
    (1, -5, -4)
    """
    return tuple(a + t for a in word)

