"""The factor-forcing decision procedure, bounded and constructive.

A permutation ``w`` *forces a factor* when every interval isomorphic to
its principal order ideal connects its endpoints through a factor
deletion: some reduced word of the bottom arises from a reduced word of
the top by deleting one consecutive block.  The quantifier ranges over
intervals in arbitrarily large symmetric groups, so the verdict here is
explicitly bounded: scan every interval isomorphic to the ideal in S_m
for m up to a configurable bound, and report either a counterexample
interval (with the exhausted search as proof) or "no counterexample up
to the bound" - never an unconditional "forces".

The deletion test uses the factorization criterion: [x, y] admits a
deletion exactly when x = u v and y = u beta v are both length-additive
with length(beta) = length(y) - length(x) (Bjorner and Brenti,
*Combinatorics of Coxeter Groups*, GTM 231, chs. 2-3).  The search runs
over the weak-order prefixes u of x and never enumerates R(y); the
certificate is still the lexicographically first (word of y, start).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator

from . import bruhat, perms, posets, words
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm
from .words import Word


@dataclass(frozen=True)
class FactorCertificate:
    """A witness that deleting one factor connects x to y: removing
    ``length`` letters of ``j`` (a reduced word of y) at ``start`` leaves
    ``i``, a reduced word of x."""

    j: Word
    start: int
    length: int
    i: Word

    def factor(self) -> Word:
        return self.j[self.start:self.start + self.length]

    def to_json(self) -> dict:
        return {
            "j": words.format_word(self.j),
            "start": self.start,
            "len": self.length,
            "i": words.format_word(self.i),
        }


def _factorizations(x: Perm, y: Perm) -> Iterator[tuple[Perm, Perm, Perm]]:
    """Every (u, beta, v) with x = u v and y = u beta v, both products
    length-additive, for x <= y.

    The prefixes u of x (in the right weak order) are walked breadth-first
    from e, stepping u -> u s_i for each left descent i of v = u^-1 x.
    With t = y x^-1 the middle factor is beta = u^-1 t u, and the triple is
    yielded when length(beta) = length(y) - length(x), which makes
    y = u beta v length-additive.
    """
    gap = perms.length(y) - perms.length(x)
    t = perms.compose(y, perms.inverse(x))
    level = {perms.identity(len(x)): x}
    while level:
        below: dict[Perm, Perm] = {}
        for u, v in level.items():
            u_inv = perms.inverse(u)
            beta = tuple(u_inv[t[a - 1] - 1] for a in u)
            if perms.length(beta) == gap:
                yield u, beta, v
            for i in perms.left_descents(v):
                prefix = perms.apply_right(u, i)
                if prefix not in below:
                    below[prefix] = perms.apply_left(i, v)
        level = below


def factor_deletion(
    x: Perm, y: Perm, limits: Limits = DEFAULT_LIMITS
) -> FactorCertificate | None:
    """The first factor deletion connecting x and y, or None.

    A deletion exists exactly when x = u v and y = u beta v are both
    length-additive with length(beta) = length(y) - length(x) (Bjorner and
    Brenti, *Combinatorics of Coxeter Groups*, GTM 231, chs. 2-3), so the
    search runs over the weak-order prefixes u of x and never enumerates
    R(y).  The certificate is still the lexicographically first (word,
    start) of R(y) in lex order with starts ascending: that word is the
    least lexleast(u) + lexleast(beta) + lexleast(v) over all
    factorizations, and ``start`` its least deletion position.
    """
    if not bruhat.bruhat_leq(x, y):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)}"
        )
    n = len(x)
    perms.check_group_size(n, limits)
    j = min(
        (
            words.lex_least_reduced_word(u)
            + words.lex_least_reduced_word(beta)
            + words.lex_least_reduced_word(v)
            for u, beta, v in _factorizations(x, y)
        ),
        default=None,
    )
    if j is None:
        return None
    gap = perms.length(y) - perms.length(x)
    start = next(
        s for s in range(len(j) - gap + 1)
        if words.evaluate(j[:s] + j[s + gap:], n) == x
    )
    return FactorCertificate(
        j=j, start=start, length=gap, i=j[:start] + j[start + gap:]
    )


def _ideal_fingerprint(w: Perm):
    """(span, size, rank profile, certificate) of the ideal of w."""
    shape = posets.poset_from_interval(bruhat.ideal(w))
    return (
        max(shape.ranks),
        shape.size,
        shape.rank_profile(),
        posets._certificate(shape.ranks, shape.covers),
    )


def intervals_isomorphic_to(
    w: Perm,
    m: int,
    limits: Limits = DEFAULT_LIMITS,
    lo: int = 0,
    hi: int | None = None,
) -> Iterator[tuple[Perm, Perm]]:
    """Every interval [x, y] in S_m isomorphic to the ideal of w, each
    exactly once, ordered by (x, y) in one-line order; only bottoms x at
    positions [lo, hi) of :func:`perms.all_perms` are scanned.

    The walk is :func:`posets._scan` at rank gap d = length(w): the tops
    y are the top level of the up-ball of x with depth d.  Its screen
    keeps the masks with the ideal's element count and rank profile, and
    what passes is compared by certificate.
    """
    bottoms = itertools.islice(perms.all_perms(m, limits), lo, hi)
    d, size, profile, cert = _ideal_fingerprint(w)

    def screen(ball, mask: int) -> bool:
        return mask.bit_count() == size and all(
            (mask & ball.rank_masks[r]).bit_count() == profile[r]
            for r in range(d + 1)
        )

    for x, y, _, found in posets._scan(bottoms, d, d, screen):
        if found == cert:
            yield x, y


@dataclass(frozen=True)
class Counterexample:
    x: Perm
    y: Perm
    m: int

    def to_json(self) -> dict:
        return {
            "x": perms.format_perm(self.x),
            "y": perms.format_perm(self.y),
            "m": self.m,
        }


@dataclass(frozen=True)
class ForcingVerdict:
    """The bounded answer, with a witness either way.

    ``counterexample`` carries an interval isomorphic to the ideal of
    ``w`` with no factor deletion (plus the exhausted-scan statistics in
    ``no_factor_proof``); otherwise ``sample_certificate`` holds the
    deletion certificate of the last interval examined.
    """

    w: Perm
    m_max: int
    outcome: str  # "counterexample" | "no-counterexample-up-to-bound"
    counterexample: Counterexample | None
    no_factor_proof: dict | None
    sample_certificate: FactorCertificate | None
    intervals_examined: int
    seconds: float
    limits: Limits

    def to_json(self, timing: bool = False) -> dict:
        out: dict = {
            "w": perms.format_perm(self.w),
            "m_max": self.m_max,
            "outcome": self.outcome,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
            out["no_factor_proof"] = dict(self.no_factor_proof or {})
        if self.sample_certificate is not None:
            out["certificate"] = self.sample_certificate.to_json()
        out["stats"] = {
            "intervals_examined": self.intervals_examined,
            "seconds": round(self.seconds, 3) if timing else 0.0,
            **self.limits.to_json(),
        }
        return out


def _forces_range(w, m, limits, lo, hi):
    """Worker: decide, in order, every interval isomorphic to the ideal
    of w whose bottom is at positions [lo, hi) of S_m, until one admits
    no factor deletion.  Returns (intervals examined, the last interval
    decided or None, whether that one admits no deletion)."""
    examined = 0
    last: tuple[Perm, Perm] | None = None
    for x, y in intervals_isomorphic_to(w, m, limits, lo, hi):
        examined += 1
        last = (x, y)
        if next(_factorizations(x, y), None) is None:
            return examined, last, True
    return examined, last, False


def _no_factor_proof(y: Perm, gap: int) -> dict:
    total = words.count_reduced_words(y)
    per_word = perms.length(y) - gap + 1
    return {
        "words_scanned": total,
        "deletions_tried": total * per_word,
    }


def forces_factor(
    w: Perm,
    m_max: int | None = None,
    *,
    jobs: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> ForcingVerdict:
    """Scan S_m for w.n <= m <= m_max for a counterexample interval.

    The first interval (smallest m, then least (x, y) in one-line order)
    admitting no factor deletion is returned as the counterexample.
    ``jobs`` fans the scan out over processes; the verdict equals the
    sequential one.  m_max is held to ``limits`` before the scan starts.
    """
    n = len(w)
    if m_max is None:
        m_max = n + 2
    if m_max < n:
        raise ValueError(f"m_max={m_max} is below the group size {n}")
    perms.check_group_size(m_max, limits)
    started = time.perf_counter()
    examined = 0
    last: tuple[Perm, Perm] | None = None
    counterexample: Counterexample | None = None
    proof: dict | None = None
    ranges = (
        (m, result)
        for m in range(n, m_max + 1)
        for result in posets._fan_out(
            _forces_range, (w, m, limits),
            math.factorial(m), jobs,
        )
    )
    for m, (count, pair, refuted) in ranges:
        examined += count
        last = pair or last
        if refuted:
            counterexample = Counterexample(*pair, m)
            proof = _no_factor_proof(pair[1], perms.length(w))
            break
    return ForcingVerdict(
        w=w,
        m_max=m_max,
        outcome="counterexample" if counterexample
        else "no-counterexample-up-to-bound",
        counterexample=counterexample,
        no_factor_proof=proof,
        sample_certificate=None if counterexample or last is None
        else factor_deletion(*last, limits),
        intervals_examined=examined,
        seconds=time.perf_counter() - started,
        limits=limits,
    )
