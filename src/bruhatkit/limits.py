"""Configurable bounds for the combinatorial searches.

Everything in this package is exact and finite, but the costs grow
super-exponentially with the group size, so each expensive operation
checks these caps up front and raises :class:`CapExceeded` instead of
silently truncating a result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class CapExceeded(Exception):
    """A configured bound would be exceeded.

    Raised instead of a truncated result, and before the work it
    guards: the group-size check runs before any scan starts, and the
    reduced-word caps are checked on the length of w and on |R(w)|, as
    counted without building a word, before R(w) is enumerated.
    """


@dataclass(frozen=True)
class Limits:
    """Bounds shared across the toolkit.

    max_n:
        Largest permitted symmetric group S_n.  Checked where input
        enters: ``perms.make_perm``/``parse_perm``, ``perms.all_perms``,
        ``forcing.forces_factor``, ``intervals_isomorphic_to`` and
        ``factor_deletion``, ``posets.atlas``, the ambient group of
        ``structure.nonforcing_witness`` and ``eval --n``.
    max_word_length:
        Cap on the length of permutations whose reduced words are
        enumerated.  The full set R(w) for the reversal in S_6 already
        has 292864 members at length 15.  Checked by the ``words`` walks
        over R(w); ``forces`` and ``atlas`` only echo both word caps.
    max_reduced_words:
        Cap on |R(w)|, counted before ``words.reduced_words`` builds R(w).

    Each cap is an integer of at least 1; anything else raises
    ValueError naming the field.
    """

    max_n: int = 8
    max_word_length: int = 15
    max_reduced_words: int = 1_000_000

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) is not int or value < 1:
                raise ValueError(
                    f"{field.name} must be an integer of at least 1, "
                    f"got {value!r}")

    def to_json(self) -> dict:
        """Caps echoed into JSON outputs."""
        return {
            "max_n": self.max_n,
            "max_word_length": self.max_word_length,
            "max_reduced_words": self.max_reduced_words,
        }


DEFAULT_LIMITS = Limits()
