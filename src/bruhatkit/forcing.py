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

The deletion test is a factorization criterion: [x, y] admits a deletion
exactly when x = u v and y = u beta v are both length-additive (Bjorner
and Brenti, *Combinatorics of Coxeter Groups*, GTM 231, chs. 2-3).  Such
a u is a common prefix of x and y in the right weak order, and for a
common prefix u the deletion exists iff u^-1 x <=_L u^-1 y in the left
weak order, which is containment of position-inversion sets.  The search
walks the common prefixes with those sets as bitmasks and never
enumerates R(y).  The certificate, the lexicographically first (word of
y, start), is the least (lexleast(u) + lexleast(beta) + lexleast(v),
length(u)) over the factorizations.  ``notes/decisions.md`` has the proof.

The intervals shaped like the ideal of w are read off the up-ball of
each bottom, which the rank table of S_m keeps from its second request
on (:meth:`tables.RankTable.ball`).  Inversion and conjugation by w0
are automorphisms of the Bruhat order that keep the shape of an
interval and whether it admits a deletion, so the verdict builds
up-balls only for the bottoms least in their orbit under those maps,
and counts the rest of each orbit from them; the counterexample, the
count and the certificate are those of the scan of every bottom, which
:func:`intervals_isomorphic_to` still is.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import bruhat, perms, posets, words
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm
from .tables import rank_table
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

    def to_json(self) -> dict:
        return {
            "j": words.format_word(self.j),
            "start": self.start,
            "len": self.length,
            "i": words.format_word(self.i),
        }


def _mask_and_positions(w: Perm) -> tuple[int, list[int]]:
    """The position-inversion mask of w and its position array (entry k
    the 0-based position of the value k + 1).

    The mask has one bit for each 0-based position pair {a, b}, b > a,
    bit a(2n - a - 1)/2 + b - a - 1, so the bits of the pairs that start
    at a run together, and the pair is an inversion when w(b) < w(a).
    So the walk takes the values in ascending order, keeps the mask of
    the positions of the smaller ones, and shifts its bits past the
    position a of each value into a's block.
    """
    n = len(w)
    pos = [0] * n
    for p, value in enumerate(w):
        pos[value - 1] = p
    mask = smaller = 0
    for a in pos:
        mask |= (smaller >> (a + 1)) << (a * (2 * n - a - 1) >> 1)
        smaller |= 1 << a
    return mask, pos


def _deletion_hits(x: Perm, y: Perm) -> Iterator[Sequence[int]]:
    """The position array of v = u^-1 x for every common prefix u of x
    and y in the right weak order with u^-1 x <=_L u^-1 y, each u once.

    The walk starts at u = e, with v = x and z = y, and steps u -> u s_i
    when i is a left descent of both v and z, so it stays on common
    prefixes and reaches them all, since they form a lower set.  A step
    swaps the positions of the values i and i + 1 in v and in z, and
    clears the one position inversion that swap undoes in each mask, the
    bit of its position pair in the layout of
    :func:`_mask_and_positions`.
    v <=_L z is containment of position-inversion sets, the test
    ``mask_v & ~mask_z == 0``.  No length is computed: on a common prefix
    length(z) - length(v) is the gap already.  The visited set holds the
    masks of v, each of which fixes v and so u = x v^-1.  Arrays are
    read-only once yielded.
    """
    width = 2 * len(x) - 1
    mask_v, pos_v = _mask_and_positions(x)
    mask_z, pos_z = _mask_and_positions(y)
    seen = {mask_v}
    stack = [(mask_v, mask_z, pos_v, pos_z)]
    steps = range(len(x) - 1)
    while stack:
        mask_v, mask_z, pos_v, pos_z = stack.pop()
        if not mask_v & ~mask_z:
            yield pos_v
        for k in steps:
            a, b = pos_v[k], pos_v[k + 1]
            c, d = pos_z[k], pos_z[k + 1]
            if a > b and c > d:
                step_mask = mask_v ^ (1 << (b * (width - b) >> 1) + a - b - 1)
                if step_mask in seen:
                    continue
                seen.add(step_mask)
                step_v = list(pos_v)
                step_v[k], step_v[k + 1] = b, a
                step_z = list(pos_z)
                step_z[k], step_z[k + 1] = d, c
                flip_z = 1 << (d * (width - d) >> 1) + c - d - 1
                stack.append((step_mask, mask_z ^ flip_z, step_v, step_z))


def _factorizations(x: Perm, y: Perm) -> Iterator[tuple[Perm, Perm, Perm]]:
    """Every (u, beta, v) with x = u v and y = u beta v, both products
    length-additive, for x <= y, each once.

    These are exactly the common prefixes u of x and y in the right weak
    order with v = u^-1 x <=_L u^-1 y, and beta = u^-1 y v^-1; the walk
    is :func:`_deletion_hits`, whose position array of v is v^-1.
    """
    for pos_v in _deletion_hits(x, y):
        u = tuple(x[p] for p in pos_v)
        u_inv = perms.inverse(u)
        beta = tuple(u_inv[y[p] - 1] for p in pos_v)
        yield u, beta, perms.compose(u_inv, x)


def factor_deletion(
    x: Perm, y: Perm, limits: Limits = DEFAULT_LIMITS
) -> FactorCertificate | None:
    """The first factor deletion connecting x and y, or None.

    A deletion exists exactly when x = u v and y = u beta v are
    length-additive for some (u, beta, v) of :func:`_factorizations`, so
    R(y) is never enumerated.  The certificate is the lexicographically
    first (word, start) of R(y) in lex order with starts ascending: the
    least (lexleast(u) + lexleast(beta) + lexleast(v), length(u)) over
    those triples (``notes/decisions.md`` has the proof).  No pair is
    below (lexleast(y), 0), so the walk stops there: for x == y it stops
    at u = e, the first triple, and does not visit every prefix of x.
    """
    if not bruhat.bruhat_leq(x, y):
        raise ValueError(
            f"{perms.format_perm(x)} is not below {perms.format_perm(y)}"
        )
    perms.check_group_size(len(x), limits)
    lex = words.lex_least_reduced_word
    floor, least = (lex(y), 0), None
    for u, beta, v in _factorizations(x, y):
        head = lex(u)
        pair = head + lex(beta) + lex(v), len(head)
        least = min(least or pair, pair)
        if least == floor:
            break
    if least is None:
        return None
    j, start = least
    gap = perms.length(y) - perms.length(x)
    return FactorCertificate(
        j=j, start=start, length=gap, i=j[:start] + j[start + gap:]
    )


def _ideal_fingerprint(w: Perm):
    """(span, size, rank profile, certificate) of the ideal of w, the
    shape that :func:`_shaped_intervals` looks for."""
    shape = bruhat.ideal(w)
    return (
        max(shape.ranks),
        shape.size,
        shape.rank_profile(),
        posets.canonical_form(shape),
    )


def _shaped_intervals(shape, bottoms):
    """Every interval [x, y] whose shape has the fingerprint ``shape``,
    for each x of ``bottoms`` in turn and its tops in one-line order.

    The tops y are the level d of the up-ball of x, d the span of the
    shape, and a bottom less than d below the top of its group has none.
    The ball comes from the rank table (:meth:`tables.RankTable.ball`),
    which may hand out a deeper ball it keeps for x; its first d + 1
    levels are the ball of depth d, so only level d is read.  The mask
    of [x, y] is compared with the shape by element count, then by rank
    profile, and what passes by certificate; the tops that match are
    decoded from their ranks."""
    d, size, profile, cert = shape
    levels = range(d + 1)
    for x in bottoms:
        m = len(x)
        if perms.length(x) + d > m * (m - 1) // 2:
            continue
        table = rank_table(m)
        ball = table.ball(x, d)
        rank_masks = ball.rank_masks
        for y in ball.level(d):
            mask = ball.below[y]
            if (
                mask.bit_count() == size
                and all((mask & rank_masks[r]).bit_count() == profile[r]
                        for r in levels)
                and posets._certificate(*ball.structure(mask)) == cert
            ):
                yield x, table.perm(ball.lex_ranks[y])


def intervals_isomorphic_to(
    w: Perm, m: int, limits: Limits = DEFAULT_LIMITS
) -> Iterator[tuple[Perm, Perm]]:
    """Every interval [x, y] in S_m isomorphic to the ideal of w, each
    exactly once, ordered by (x, y) in one-line order.  The sizes of w
    and m are held to ``limits`` at the call, before the ideal of w is
    built and the scan starts.

    The walk is :func:`_shaped_intervals` at rank gap d = length(w): the
    tops y are the top level of the up-ball of x with depth d, kept when
    [x, y] has the ideal's element count, rank profile and certificate.
    """
    perms.check_group_size(len(w), limits)
    bottoms = perms.all_perms(m, limits)
    return _shaped_intervals(_ideal_fingerprint(w), bottoms)


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


def _forces_range(shape, bottoms):
    """Worker: decide, in order, every interval shaped like the ideal
    fingerprint ``shape`` whose bottom x is in ``bottoms``, the
    permutations of one range of S_m least in their symmetry orbit
    (:func:`posets._fan_out`), until one admits no factor deletion.
    Returns {x: number of tops decided} for each such x with a top, and
    the interval (x, y) with no deletion, or None."""
    counts: dict[Perm, int] = {}
    for x, y in _shaped_intervals(shape, bottoms):
        counts[x] = counts.get(x, 0) + 1
        if next(_deletion_hits(x, y), None) is None:
            return counts, (x, y)
    return counts, None


def _no_factor_proof(y: Perm, gap: int) -> dict:
    total = words.count_reduced_words(y)
    per_word = perms.length(y) - gap + 1
    return {
        "words_scanned": total,
        "deletions_tried": total * per_word,
    }


@functools.lru_cache(maxsize=1024)
def _level(shape, m: int, jobs: int | None):
    """The scan of S_m for intervals shaped like an ideal with
    fingerprint ``shape``: the least refuted interval as a
    (counterexample, no-factor proof) pair, or None; the number of
    intervals examined; and, with no counterexample, the greatest bottom
    with a top, which exists: the identity is least in its orbit, and
    [e, w] with w embedded in S_m (:func:`perms.embed`) has the shape.
    The intervals of S_m depend on w only through the shape of its
    ideal, so one scan serves every w with that shape, whatever its
    size or bound, and ``jobs`` sets only how the scan is fanned out.

    The scan builds up-balls only for the bottoms least in their orbit
    under inversion and conjugation by w0 (:func:`posets._fan_out`).
    Those maps are Bruhat automorphisms that keep the shape and the
    deletion, so every bottom of an orbit has as many tops as the least,
    and the least bottom with a refuted top is the least of its orbit:
    it is the counterexample of the full scan, and the intervals that
    scan examines are counted per orbit.  An orbit whose least bottom
    has c tops decided adds c for each image up to a bound: the
    counterexample's bottom, the only member of its own orbit up to it,
    or, with no counterexample, (m + 1,), above all of S_m.  The fan-out
    closes at the first range with a refuted top, and only then is the
    bound known; so the ranges' counts are kept, and each orbit's images
    are made once, here, and folded as they are made.
    ``notes/decisions.md`` has the proof."""
    ranges = []
    for counts, refuted in posets._fan_out(_forces_range, (shape,), m, jobs):
        ranges.append(counts)
        if refuted:
            break
    bound = refuted[0] if refuted else (m + 1,)
    examined, greatest = 0, None
    for counts in ranges:
        for x, tops in counts.items():
            images = set(perms.symmetry_images(x))
            examined += tops * sum(g <= bound for g in images)
            greatest = max(greatest or x, *images)
    if refuted:
        x, y = refuted
        return ((Counterexample(x, y, m), _no_factor_proof(y, shape[0])),
                examined, None)
    return None, examined, greatest


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
    sequential one.  ``jobs`` and m_max are checked here, before the
    scan starts, and ``limits`` is read only for that check.

    The verdict folds the scans of S_n..S_m_max (:func:`_level`): it
    stops at the first counterexample and sums the intervals examined;
    with none, the sample certificate is that of the last top of the
    greatest bottom with a top in the last S_m, S_m_max, whose ball
    alone is read again.  The rank table keeps a ball from its second
    request on while it fits, so warm calls build at most one ball
    between them.  Each scan is cached by the shape of the ideal, m and
    ``jobs``, so a w whose ideal is shaped like that of an earlier w pays
    only for the S_m that call did not scan, whatever the sizes and
    bounds of the two.
    """
    posets._check_jobs(jobs)
    n = len(w)
    if m_max is None:
        m_max = n + 2
    perms.check_group_size(m_max, limits)
    if m_max < n:
        raise ValueError(f"m_max={m_max} is below the group size {n}")
    started = time.perf_counter()
    shape = _ideal_fingerprint(w)
    counterexample = proof = sample = None
    examined = 0
    for m in range(n, m_max + 1):
        refuted, count, last = _level(shape, m, jobs)
        examined += count
        if refuted:
            counterexample, proof = refuted
            break
    if not counterexample:
        *_, pair = _shaped_intervals(shape, [last])
        sample = factor_deletion(*pair, limits)
    return ForcingVerdict(
        w=w,
        m_max=m_max,
        outcome="counterexample" if counterexample
        else "no-counterexample-up-to-bound",
        counterexample=counterexample,
        no_factor_proof=None if proof is None else dict(proof),
        sample_certificate=sample,
        intervals_examined=examined,
        seconds=time.perf_counter() - started,
        limits=limits,
    )
