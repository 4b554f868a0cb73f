"""Independent reference combinatorics for checking bruhatkit's answers.

Nothing here imports bruhatkit: permutations are tuples in one-line
notation, words are tuples of letters, and letter ``i`` swaps the entries
at positions i and i+1 (right multiplication by s_i), the convention the
library documents.  Comparison uses the tableau criterion, not the
library's rank-matrix test, so a shared bug cannot hide itself.
"""

from __future__ import annotations

import itertools


def evaluate(word, n):
    w = list(range(1, n + 1))
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for S_{n}")
        w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def length(w):
    return sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def leq(x, y):
    """Bruhat order by the tableau criterion: for every k, the sorted
    first k entries of x are entrywise at most those of y."""
    if len(x) != len(y):
        raise ValueError("size mismatch")
    for k in range(1, len(x)):
        if any(a > b for a, b in zip(sorted(x[:k]), sorted(y[:k]))):
            return False
    return True


def parse_perm(text):
    return tuple(int(c) for c in text)


def format_perm(w):
    return "".join(map(str, w))


def parse_word(text):
    text = text.strip()
    if not text:
        return ()
    if " " in text:
        return tuple(int(t) for t in text.split())
    return tuple(int(c) for c in text)


def is_reduced_word_of(word, w):
    return len(word) == length(w) and evaluate(word, len(w)) == w


def count_reduced_words(w):
    """|R(w)| by recursion over right descents, memoized per call."""
    memo = {}

    def rec(v):
        got = memo.get(v)
        if got is None:
            got = 0
            for i in range(len(v) - 1):
                if v[i] > v[i + 1]:
                    u = list(v)
                    u[i], u[i + 1] = u[i + 1], u[i]
                    got += rec(tuple(u))
            got = got or 1
            memo[v] = got
        return got

    return rec(tuple(w))


def reduced_words(w):
    """All of R(w); use only for short permutations."""
    if length(w) == 0:
        return [()]
    out = []
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            u = list(w)
            u[i], u[i + 1] = u[i + 1], u[i]
            out.extend(word + (i + 1,) for word in reduced_words(tuple(u)))
    return out


def has_factor_deletion(x, y):
    """Whether deleting one consecutive block from some reduced word of y
    leaves a reduced word of x."""
    gap = length(y) - length(x)
    n = len(x)
    for word in reduced_words(y):
        for start in range(len(word) - gap + 1):
            if evaluate(word[:start] + word[start + gap:], n) == x:
                return True
    return False


def conjugate_by_longest(w):
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def inverse(w):
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)
