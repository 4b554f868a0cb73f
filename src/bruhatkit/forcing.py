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
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator

from . import bruhat, perms, posets, tables, words
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
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


def factor_deletion(
    x: Perm, y: Perm, limits: Limits = DEFAULT_LIMITS
) -> FactorCertificate | None:
    """The first factor deletion connecting x and y, or None.

    Scans reduced words of y in lexicographic order and deletion starts
    ascending; the factor length is forced to length(y) - length(x).
    Prefix and suffix products of each word are shared across starts, so
    each candidate deletion costs one composition.
    """
    if not bruhat.bruhat_leq(x, y):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)}"
        )
    n = len(x)
    gap = perms.length(y) - perms.length(x)
    ident = perms.identity(n, limits)
    for j in words.iter_reduced_words(y, limits):
        prefixes = [ident]
        for a in j:
            prefixes.append(perms.apply_right(prefixes[-1], a))
        suffixes = [ident] * (len(j) + 1)
        for t in range(len(j) - 1, -1, -1):
            suffixes[t] = perms.compose(
                perms.simple_reflection(j[t], n), suffixes[t + 1]
            )
        for start in range(len(j) - gap + 1):
            if perms.compose(prefixes[start], suffixes[start + gap]) == x:
                return FactorCertificate(
                    j=j,
                    start=start,
                    length=gap,
                    i=j[:start] + j[start + gap:],
                )
    return None


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

    Each bottom x gets its up-ball of depth d = length(w)
    (:func:`tables.up_ball`); for y on the ball's top level the interval
    [x, y] is y's below-mask.  Candidates are pruned by element count,
    then rank profile, before the certificate comparison.
    """
    bottoms = itertools.islice(perms.all_perms(m, limits), lo, hi)
    d, size, profile, cert = _ideal_fingerprint(w)
    top_rank = m * (m - 1) // 2
    for x in bottoms:
        if perms.length(x) + d > top_rank:
            continue
        ball = tables.up_ball(x, d)
        for yid in tables.iter_bits(ball.rank_masks[d]):
            mask = ball.below[yid]
            if mask.bit_count() != size:
                continue
            if any(
                (mask & ball.rank_masks[r]).bit_count() != profile[r]
                for r in range(d + 1)
            ):
                continue
            if posets._certificate(*ball.structure(mask)) == cert:
                yield x, ball.elements[yid]


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
            **self.limits.as_stats(),
        }
        return out


def _forces_chunk(w, m, use_symmetry, limits, part, parts):
    """Worker: scan the bottoms of slice ``part`` of ``parts`` equal
    slices of S_m, running the deletion search on every matching interval
    in order until one admits none.  Returns (intervals examined, that
    counterexample (x, y) or None, the last certificate found)."""
    step = -(-math.factorial(m) // parts)
    examined = 0
    last_cert: FactorCertificate | None = None
    try:
        for x, y in intervals_isomorphic_to(
            w, m, limits, part * step, (part + 1) * step
        ):
            if use_symmetry and (x, y) != min(
                zip(perms.symmetry_images(x), perms.symmetry_images(y))
            ):
                continue
            examined += 1
            cert = factor_deletion(x, y, limits)
            if cert is None:
                return examined, (x, y), last_cert
            last_cert = cert
    except CapExceeded as exc:
        exc.stats["intervals_examined"] = examined
        raise
    return examined, None, last_cert


def _no_factor_proof(y: Perm, gap: int, limits: Limits) -> dict:
    total = len(words.reduced_words(y, limits))
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
    use_symmetry: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> ForcingVerdict:
    """Scan S_m for w.n <= m <= m_max for a counterexample interval.

    The first interval (smallest m, then least (x, y) in one-line order)
    admitting no factor deletion is returned as the counterexample.  With
    ``use_symmetry`` the scan skips intervals that are order-automorphism
    images of earlier ones.  The symmetries map counterexamples (and tops
    over the word-length cap) to counterexamples (and such tops), so the
    first one met is the least of its orbit and the outcome and
    counterexample cannot change; only ``intervals_examined`` and the
    sample certificate do, which is why it is off by default.
    ``jobs`` fans the scan out over processes; the verdict equals the
    sequential one.
    """
    n = len(w)
    if m_max is None:
        m_max = n + 2
    if m_max < n:
        raise ValueError(f"m_max={m_max} is below the group size {n}")
    perms.check_group_size(m_max, limits)
    started = time.perf_counter()
    examined = 0
    last_cert: FactorCertificate | None = None
    counterexample: Counterexample | None = None
    proof: dict | None = None
    chunks = (
        (m, chunk)
        for m in range(n, m_max + 1)
        for chunk in posets._fan_out(
            _forces_chunk, (w, m, use_symmetry, limits), jobs
        )
    )
    try:
        for m, (count, pair, cert) in chunks:
            examined += count
            if pair is not None:
                counterexample = Counterexample(*pair, m)
                proof = _no_factor_proof(pair[1], perms.length(w), limits)
                break
            last_cert = cert or last_cert
    except CapExceeded as exc:
        exc.stats.update(
            intervals_examined=examined
            + exc.stats.get("intervals_examined", 0),
            seconds=time.perf_counter() - started,
        )
        raise
    return ForcingVerdict(
        w=w,
        m_max=m_max,
        outcome="counterexample" if counterexample
        else "no-counterexample-up-to-bound",
        counterexample=counterexample,
        no_factor_proof=proof,
        sample_certificate=None if counterexample else last_cert,
        intervals_examined=examined,
        seconds=time.perf_counter() - started,
        limits=limits,
    )


def certificate_is_shifted_longest(
    x: Perm,
    y: Perm,
    cert: FactorCertificate,
    k: int,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """For an interval [x, y] shaped like the full S_k: does the deleted
    factor shift to a reduced word of the reversal of size k?

    Returns False (rather than raising) on certificates whose factor has
    the wrong size, so corrupted certificates are simply rejected.
    """
    if cert.length != perms.length(y) - perms.length(x):
        return False
    return words.is_shifted_longest_word(cert.factor(), k, limits)
