"""Ranked posets: canonical forms, isomorphism, products, DOT, atlas.

A :class:`RankedPoset` is the abstract shape of a Bruhat interval:
elements 0..size-1 with a rank each and cover relations between adjacent
ranks only.  Isomorphism testing goes through a canonical certificate:
iterated rank-respecting degree refinement, followed by backtracking over
the remaining color classes taking the lexicographically least relation
encoding.  Two posets have equal certificates iff they are isomorphic
(the test suite validates this against a brute-force matcher).

The atlas counts isomorphism classes of intervals and of principal order
ideals per length across a whole symmetric group, using the whole-group
order tables from :mod:`bruhatkit.tables`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from concurrent import futures
from dataclasses import dataclass

from . import perms
from .bruhat import Interval
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .tables import MAX_TABLE_N, group_table, iter_bits

Cert = tuple


@dataclass(frozen=True)
class RankedPoset:
    """Elements 0..size-1 with ranks and covers between adjacent ranks."""

    ranks: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = len(self.ranks)
        if m == 0:
            raise ValueError("empty poset")
        for a, b in self.covers:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"cover ({a}, {b}) out of range")
            if self.ranks[b] != self.ranks[a] + 1:
                raise ValueError(
                    f"cover ({a}, {b}) does not connect adjacent ranks"
                )
        object.__setattr__(self, "covers", tuple(sorted(self.covers)))

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank_profile(self) -> tuple[int, ...]:
        lo, hi = min(self.ranks), max(self.ranks)
        counts = [0] * (hi - lo + 1)
        for r in self.ranks:
            counts[r - lo] += 1
        return tuple(counts)


def poset_from_interval(iv: Interval) -> RankedPoset:
    """Forget the permutation labels of an interval; element ids follow the
    interval's (rank, one-line) element order."""
    index = {z: i for i, z in enumerate(iv.elements)}
    return RankedPoset(
        ranks=tuple(iv.rank_of(z) for z in iv.elements),
        covers=tuple((index[a], index[b]) for a, b in iv.covers),
    )


def singleton() -> RankedPoset:
    return RankedPoset(ranks=(0,), covers=())


def chain(k: int) -> RankedPoset:
    """The chain with k cover steps (k + 1 elements)."""
    if k < 0:
        raise ValueError("chain needs k >= 0")
    return RankedPoset(
        ranks=tuple(range(k + 1)),
        covers=tuple((i, i + 1) for i in range(k)),
    )


def direct_product(p: RankedPoset, q: RankedPoset) -> RankedPoset:
    """The product order; the rank of a pair is the sum of ranks."""
    qs = q.size
    ranks = tuple(
        p.ranks[i] + q.ranks[j] for i in range(p.size) for j in range(qs)
    )
    covers = []
    for a, b in p.covers:
        for j in range(qs):
            covers.append((a * qs + j, b * qs + j))
    for i in range(p.size):
        for c, d in q.covers:
            covers.append((i * qs + c, i * qs + d))
    return RankedPoset(ranks=ranks, covers=tuple(covers))


# --- canonical certificates ---------------------------------------------


def _refine(colors: list[int], up, down) -> list[int]:
    """Iterated degree refinement respecting the current coloring.

    Each round recolors a vertex by (its color, the sorted colors of its
    upper covers, the sorted colors of its lower covers) and renumbers the
    distinct signatures in sorted order, so the result depends only on the
    isomorphism type.  Stops when the partition no longer splits.
    """
    m = len(colors)
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted(colors[u] for u in up[v])),
                tuple(sorted(colors[u] for u in down[v])),
            )
            for v in range(m)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        refined = [palette[sig] for sig in sigs]
        if len(palette) == len(set(colors)):
            return refined
        colors = refined


def _min_certificate(colors, ranks, up, down) -> Cert:
    m = len(colors)
    if len(set(colors)) == m:
        order = sorted(range(m), key=colors.__getitem__)
        pos = [0] * m
        for i, v in enumerate(order):
            pos[v] = i
        base = min(ranks)
        relabeled = sorted(
            (pos[a], pos[b]) for b in range(m) for a in down[b]
        )
        return (
            m,
            tuple(ranks[v] - base for v in order),
            tuple(relabeled),
        )
    # Individualize each member of the first ambiguous class and keep the
    # least certificate over the branches.
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    target = min(c for c, k in counts.items() if k > 1)
    best: Cert | None = None
    for v in range(m):
        if colors[v] != target:
            continue
        split = [(c, 1) for c in colors]
        split[v] = (colors[v], 0)
        palette = {sig: i for i, sig in enumerate(sorted(set(split)))}
        branch = _refine([palette[s] for s in split], up, down)
        cand = _min_certificate(branch, ranks, up, down)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def _adjacency(m: int, covers):
    up = [[] for _ in range(m)]
    down = [[] for _ in range(m)]
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    return up, down


@functools.lru_cache(maxsize=65536)
def _certificate(ranks: tuple[int, ...], covers: tuple) -> Cert:
    up, down = _adjacency(len(ranks), covers)
    colors = _refine(list(ranks), up, down)
    return _min_certificate(colors, ranks, up, down)


def _check_interval_shape(p: RankedPoset) -> None:
    lo, hi = min(p.ranks), max(p.ranks)
    if p.ranks.count(lo) != 1 or p.ranks.count(hi) != 1:
        raise ValueError(
            "malformed poset: a graded interval has a unique minimum "
            "and a unique maximum"
        )


def canonical_form(p: RankedPoset) -> bytes:
    """Isomorphism-invariant certificate of a graded interval.

    >>> canonical_form(chain(1)) == canonical_form(chain(1))
    True
    >>> canonical_form(chain(1)) == canonical_form(singleton())
    False
    """
    _check_interval_shape(p)
    m, ranks, covers = _certificate(p.ranks, p.covers)
    body = ";".join(
        (
            str(m),
            ",".join(map(str, ranks)),
            ",".join(f"{a}-{b}" for a, b in covers),
        )
    )
    return body.encode("ascii")


def is_isomorphic(p: RankedPoset, q: RankedPoset) -> bool:
    """Certificate equality, after cheap size and rank-profile screens."""
    if p.size != q.size or p.rank_profile() != q.rank_profile():
        return False
    return canonical_form(p) == canonical_form(q)


def to_dot(p: RankedPoset, labels: list[str] | None = None) -> str:
    """Render the Hasse diagram as a DOT digraph, covers pointing upward
    and elements grouped by rank."""
    if labels is None:
        labels = [f"p{i}" for i in range(p.size)]
    if len(labels) != p.size:
        raise ValueError("one label per element required")

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
    by_rank: dict[int, list[int]] = defaultdict(list)
    for v, r in enumerate(p.ranks):
        by_rank[r].append(v)
    for r in sorted(by_rank):
        row = " ".join(f"{quote(labels[v])};" for v in by_rank[r])
        lines.append(f"  {{ rank=same; {row} }}")
    for a, b in p.covers:
        lines.append(f"  {quote(labels[a])} -> {quote(labels[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- the atlas ------------------------------------------------------------


@dataclass(frozen=True)
class AtlasRow:
    length: int
    intervals: int
    ideals: int


@dataclass(frozen=True)
class AtlasResult:
    n: int
    rows: tuple[AtlasRow, ...]
    intervals_examined: int
    seconds: float
    limits: Limits

    def counts(self, which: str) -> tuple[int, ...]:
        return tuple(getattr(row, which) for row in self.rows)

    def to_json(self, timing: bool = False) -> dict:
        return {
            "n": self.n,
            "rows": [
                {
                    "length": row.length,
                    "intervals": row.intervals,
                    "ideals": row.ideals,
                }
                for row in self.rows
            ],
            "stats": {
                "intervals_examined": self.intervals_examined,
                "seconds": round(self.seconds, 3) if timing else 0.0,
                **self.limits.as_stats(),
            },
        }


def _interval_structure(ranks, down_adj, mask: int, low_rank: int):
    """Relabel the elements of an interval mask to 0..m-1 in id order and
    return (relative ranks, cover id pairs); ``down_adj[u]`` lists the ids
    that u covers.  Ids must be rank-major (each rank's ids below the
    next rank's), so that the labels are too."""
    elems = list(iter_bits(mask))
    index = {e: i for i, e in enumerate(elems)}
    rel_ranks = tuple(ranks[e] - low_rank for e in elems)
    covers = tuple(
        sorted(
            (index[v], index[u])
            for u in elems
            for v in down_adj[u]
            if mask >> v & 1
        )
    )
    return rel_ranks, covers


def _fan_out(fn, args: tuple, jobs: int | None):
    """The results of ``fn(*args, part, parts)`` for part = 0..parts-1,
    lazily and in part order.  With ``jobs`` > 1 there are ``jobs`` parts,
    run by as many worker processes; otherwise one part runs in this
    process.  Closing the iterator early cancels the parts not started."""
    if jobs is None or jobs <= 1:
        yield fn(*args, 0, 1)
        return
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(
            functools.partial(fn, *args), range(jobs), [jobs] * jobs
        )


def _scan_intervals(n: int, max_len: int, y_ids: list[int], part, parts):
    """Certificates of all intervals [z, y] with y in every ``parts``-th
    entry of ``y_ids`` from ``part`` on and 1 <= rank gap <= max_len,
    keyed by ("intervals", gap), plus those with z the identity (the
    ideals) keyed by ("ideals", gap); and the number of intervals
    examined."""
    gt = group_table(n)
    certs: dict[tuple[str, int], set] = defaultdict(set)
    examined = 0
    for y in y_ids[part::parts]:
        by = gt.below[y]
        ry = gt.ranks[y]
        for d in range(1, min(max_len, ry) + 1):
            low_rank = ry - d
            for z in iter_bits(by & gt.rank_masks[low_rank]):
                cert = _certificate(*_interval_structure(
                    gt.ranks, gt.down_adj, gt.above[z] & by, low_rank
                ))
                certs["intervals", d].add(cert)
                if low_rank == 0:
                    certs["ideals", d].add(cert)
                examined += 1
    return certs, examined


def atlas(
    n: int,
    max_len: int,
    *,
    jobs: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> AtlasResult:
    """Per-length counts of isomorphism classes of intervals and of
    principal order ideals in S_n, for lengths 0..max_len.

    Interval enumeration runs over representatives of the order-
    automorphism orbits of the top element (inversion and conjugation by
    the reversal preserve isomorphism classes, and fix the identity, so
    the ideals of the representatives cover every ideal class).  Repeated
    raw shapes are canonicalized once, through the certificate cache.
    With ``jobs`` > 1 the top elements are fanned out across processes;
    the merged counts are independent of the schedule.
    """
    perms.check_group_size(n, limits)
    if n > MAX_TABLE_N:
        raise CapExceeded(f"atlas is capped at n <= {MAX_TABLE_N}; got n={n}")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    started = time.perf_counter()
    gt = group_table(n)

    y_reps = [
        u for u, y in enumerate(gt.elements)
        if y == min(perms.symmetry_images(y))
    ]
    certs: dict[tuple[str, int], set] = defaultdict(set)
    examined = 0
    for part, part_examined in _fan_out(
        _scan_intervals, (n, max_len, y_reps), jobs
    ):
        examined += part_examined
        for key, s in part.items():
            certs[key] |= s

    rows = [AtlasRow(length=0, intervals=1, ideals=1)]
    for d in range(1, max_len + 1):
        rows.append(
            AtlasRow(
                length=d,
                intervals=len(certs["intervals", d]),
                ideals=len(certs["ideals", d]),
            )
        )
    return AtlasResult(
        n=n,
        rows=tuple(rows),
        intervals_examined=examined,
        seconds=time.perf_counter() - started,
        limits=limits,
    )
