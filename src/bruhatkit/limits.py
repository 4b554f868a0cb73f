"""Configurable bounds for the combinatorial searches.

Everything in this package is exact and finite, but the costs grow
super-exponentially with the group size, so each expensive operation
checks these caps up front and raises :class:`CapExceeded` instead of
silently truncating a result.
"""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(Exception):
    """A configured enumeration bound would be exceeded.

    Carries optional partial statistics so long-running searches can
    report how far they got before hitting the cap.
    """

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = dict(stats) if stats else {}


@dataclass(frozen=True)
class Limits:
    """Bounds shared across the toolkit.

    max_n:
        Largest permitted symmetric group S_n.
    max_word_length:
        Cap on the length of permutations whose reduced words are
        enumerated.  The full set R(w) for the reversal in S_6 already
        has 292864 members at length 15.
    max_reduced_words:
        Cap on |R(w)| during enumeration.
    """

    max_n: int = 8
    max_word_length: int = 15
    max_reduced_words: int = 1_000_000

    def as_stats(self) -> dict:
        """Caps echoed into JSON outputs."""
        return {
            "max_n": self.max_n,
            "max_word_length": self.max_word_length,
            "max_reduced_words": self.max_reduced_words,
        }


DEFAULT_LIMITS = Limits()
