"""Ranked posets: canonical forms, isomorphism, products, DOT, atlas.

A :class:`RankedPoset` is the abstract shape of a Bruhat interval:
elements 0..size-1 with a rank each and cover relations between adjacent
ranks only.  Isomorphism testing goes through a canonical certificate:
iterated rank-respecting degree refinement, followed by backtracking over
the remaining cells taking the lexicographically least relation
encoding.  Two posets have equal certificates iff they are isomorphic
(the test suite validates this against a brute-force matcher and
networkx).

Refinement works on an ordered partition whose colors are the start
positions of the cells.  A round splits cells as refining every element
would, but reads only the cells next to an element whose color the round
before changed: no other cell can split, since its members' neighbors
keep their colors.  Individualizing an element propagates from its own
cell alone, and each node of the search carries its cells down.  The
ordered partitions are those of round-by-round refinement of every
element, so the certificates are too (``notes/decisions.md``; the old
refinement is ``tests/oracles.refine_oracle``).

The backtracking prunes by automorphisms (McKay & Piperno, "Practical
graph isomorphism, II", J. Symbolic Comput. 60, 2014).  Two leaves with
equal certificates give an automorphism, the map between their element
orders; the search jumps back to the two leaves' common ancestor, and at
every node it skips a child in the orbit of an explored child under the
automorphisms found that fix the node's path.  This is sound because
refinement keeps the order of the cells and an individualized element
takes the lowest position of its cell: such an automorphism
fixes the path to the ancestor and maps one child's subtree onto the
other's, leaf certificates included.  A skipped subtree thus holds only
certificates already met, so the least certificate, and with it every
canonical form, is the one the full search finds (checked against it in
``tests/oracles.py``).

The atlas counts isomorphism classes of intervals and of principal order
ideals per length across a whole symmetric group.  An interval that
splits by position or by value is the product of two intervals of
smaller groups, and such a product is already an interval of the next
smaller group; one with a frozen point (a position that every element of
the interval keeps at one value) is isomorphic to an interval of the
next smaller group too.  So the classes of S_n are the union, over
k = 2..n, of the classes of the irreducible intervals of S_k, those with
neither, and only those are certified; an irreducible interval of S_k
has a rank gap of at least ceil(k/2), so each group is scanned only from
that gap.  The count of intervals examined takes in S_n's shorter
intervals too, from the sizes of the up-balls, and a bottom whose ball
cannot reach that gap is counted from the rank table's level sizes
alone, with no ball.  Like ``forces``, the atlas reads each interval
[x, y] off the up-ball of its bottom x from :mod:`bruhatkit.tables` and
certifies its shape; it drops the reducible intervals before the
relabel by comparing a code of x with a code of y.  ``_fan_out`` hands
each scan, the atlas's and that of ``forces``, the orbit-extreme
bottoms of a range of S_k, in this process or across processes.  Both
reductions are about shapes only, and ``forces`` uses neither.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import time
from collections import defaultdict
from concurrent import futures
from dataclasses import dataclass

from . import perms
from .bruhat import Interval
from .limits import DEFAULT_LIMITS, Limits
from .tables import count_above, up_ball

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
        ranks=iv.ranks,
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


def _refine(colors: list[int], cells: dict[int, list[int]], changed,
            up, down) -> None:
    """Refine the ordered partition (``colors``, ``cells``) in place until
    no cell splits, with the ordered partition of round-synchronous
    degree refinement as the result.

    A color is the start of its cell in the ordered partition: ``cells``
    maps each start to the cell's members in increasing order.  A round
    splits a cell by (the sorted colors of a member's upper covers, the
    sorted colors of its lower covers), read before the round changes
    any, and puts the sub-cells in that order, each at its own start; the
    first keeps the cell's start, so its members keep their color.  A
    cell can split only if a member is next to a vertex whose color the
    round before changed, since every other neighbor's color, and with it
    the member's signature, is as it was when the cell last agreed
    (``notes/decisions.md``); so a round reads only those cells, and
    ``changed`` holds the vertices whose color changed before the first.
    """
    color_of = colors.__getitem__
    while changed:
        splits = []
        touched = {colors[u] for v in changed for u in up[v]}
        touched.update([colors[u] for v in changed for u in down[v]])
        for s in touched:
            members = cells[s]
            if len(members) == 1:
                continue
            parts: dict[tuple, list[int]] = {}
            for v in members:
                key = (tuple(sorted(map(color_of, up[v]))),
                       tuple(sorted(map(color_of, down[v]))))
                try:
                    parts[key].append(v)
                except KeyError:
                    parts[key] = [v]
            if len(parts) > 1:
                splits.append((s, parts))
        changed = []
        for s, parts in splits:
            for i, key in enumerate(sorted(parts)):
                part = cells[s] = parts[key]
                if i:
                    for v in part:
                        colors[v] = s
                    changed += part
                s += len(part)


def _root_partition(ranks, up, down):
    """The refined ordered partition (colors, cells) that the search of
    :func:`_min_certificate` starts from: the cells of the ranks, in rank
    order, refined."""
    m = len(ranks)
    cells: dict[int, list[int]] = {}
    colors = [0] * m
    by_rank: dict[int, list[int]] = defaultdict(list)
    for v, r in enumerate(ranks):
        by_rank[r].append(v)
    start = 0
    for r in sorted(by_rank):
        members = cells[start] = by_rank[r]
        for v in members:
            colors[v] = start
        start += len(members)
    _refine(colors, cells, range(m), up, down)
    return colors, cells


def _individualize(colors, cells, v, up, down):
    """A copy of the refined partition (colors, cells) with v made the
    lowest of its cell, refined again: v keeps the cell's start, the rest
    of the cell moves up by one, and only their neighbors are read."""
    colors = colors[:]
    cells = cells.copy()
    s = colors[v]
    rest = [u for u in cells[s] if u != v]
    cells[s] = [v]
    cells[s + 1] = rest
    for u in rest:
        colors[u] = s + 1
    _refine(colors, cells, rest, up, down)
    return colors, cells


def _min_certificate(colors, cells, ranks, up, down) -> Cert:
    """The least leaf certificate of the individualization tree below the
    refined ordered partition (``colors``, ``cells``) of
    :func:`_root_partition`.

    A node whose partition has a cell of two or more elements has one
    child per member v of the first such cell: v is made the lowest of
    its cell and the partition refined again (:func:`_individualize`);
    each child carries its own copy of the cells.  A discrete partition
    is a leaf: each color is then a position, and its certificate is
    (size, ranks in that order relative to the least rank, the sorted
    cover pairs in that order).

    The search skips automorphic subtrees (McKay & Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60, 2014).  It keeps the
    first leaf and the best leaf so far; a later leaf with the same
    certificate as either gives an automorphism g, the map between the
    two leaf orders.  Refinement keeps the order of the cells and an
    individualized element takes the lowest position of its cell, so
    every element individualized on the way to a node keeps one position
    in all the leaves below it: g fixes the path to the two leaves'
    common ancestor and maps the ancestor's child towards the earlier
    leaf, whose subtree is done, to the child towards the later one.
    The search therefore jumps back to that ancestor.  At every node a
    child in the orbit of an explored child, under the automorphisms
    found so far that fix the node's path, is skipped.  Refinement
    commutes with automorphisms, so every skipped subtree is the image
    of a searched one with the same leaf certificates, and the minimum
    is the one the full search finds.
    """
    m = len(colors)
    base = min(ranks)
    first: tuple | None = None       # (certificate, order, path)
    best: tuple | None = None
    automorphisms: list[list[int]] = []

    def leaf(colors: list[int], path: list[int]) -> int:
        nonlocal first, best
        order = [0] * m
        for v, c in enumerate(colors):
            order[c] = v
        cert = (
            m,
            tuple(ranks[v] - base for v in order),
            tuple(sorted(
                (colors[a], colors[b]) for b in range(m) for a in down[b]
            )),
        )
        if first is None:
            first = best = (cert, order, path)
            return len(path)
        for seen_cert, seen_order, seen_path in (first, best):
            if cert == seen_cert:
                g = [0] * m
                for a, b in zip(seen_order, order):
                    g[a] = b
                automorphisms.append(g)
                depth = 0
                while path[depth] == seen_path[depth]:
                    depth += 1
                return depth
        if cert < best[0]:
            best = (cert, order, path)
        return len(path)

    def search(colors: list[int], cells: dict, path: list[int]) -> int:
        """Search below a node; return the depth of the ancestor that
        goes on with its next child (the node's own depth unless a leaf
        jumped back above it)."""
        if len(cells) == m:
            return leaf(colors, path)
        depth = len(path)
        target = min(s for s, members in cells.items() if len(members) > 1)
        # explored children and their images under the automorphisms
        # found so far that fix ``path``
        done: set[int] = set()
        for v in cells[target]:
            if v in done:
                continue
            resume = search(*_individualize(colors, cells, v, up, down),
                            path + [v])
            if resume < depth:
                return resume
            done.add(v)
            fixing = [
                g for g in automorphisms if all(g[u] == u for u in path)
            ]
            stack = list(done)
            while stack:
                u = stack.pop()
                for g in fixing:
                    if g[u] not in done:
                        done.add(g[u])
                        stack.append(g[u])
        return depth

    search(colors, cells, [])
    assert best is not None
    return best[0]


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
    return _min_certificate(*_root_partition(ranks, up, down), ranks, up,
                            down)


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
                **self.limits.to_json(),
            },
        }


def _check_jobs(jobs) -> None:
    """Refuse a ``jobs`` that is neither None nor an integer of at least
    1, where ``forces_factor`` and ``atlas`` take it in."""
    if jobs is not None and (type(jobs) is not int or jobs < 1):
        raise ValueError(
            f"jobs must be None or an integer of at least 1, got {jobs!r}")


@functools.lru_cache(maxsize=64)
def _extremes(m: int, greatest: bool, lo: int, hi: int) -> bytes:
    """One flag per position in [lo, hi) of S_m in one-line order: 1 for
    a permutation that :func:`perms.is_orbit_extreme` keeps.  It holds
    hi - lo bytes, so m! per orientation for the whole group: 40 KB for
    S_8 and 363 KB for S_9."""
    group = itertools.permutations(range(1, m + 1))
    return bytes(perms.is_orbit_extreme(x, greatest)
                 for x in itertools.islice(group, lo, hi))


def _over_range(fn, args: tuple, m: int, greatest: bool, lo: int, hi: int):
    """``fn(*args, bottoms)``, with ``bottoms`` the permutations at
    positions [lo, hi) of S_m that :func:`perms.is_orbit_extreme` keeps,
    made lazily where this runs from the range's flags, which each
    process computes once (:func:`_extremes`) and every later scan of
    the range replays."""
    group = itertools.permutations(range(1, m + 1))
    return fn(*args, itertools.compress(itertools.islice(group, lo, hi),
                                        _extremes(m, greatest, lo, hi)))


def _fan_out(fn, args: tuple, m: int, jobs: int | None, greatest=False):
    """The results of ``fn(*args, bottoms)`` over ordered, contiguous
    ranges of the positions of S_m in one-line order, lazily and in range
    order, so a caller that stops at its first hit sees what one range
    would.  ``bottoms`` holds the permutations of a range least in their
    symmetry orbit, or with ``greatest`` the greatest; a worker makes
    them itself, so only m and the range cross the pipe, and each
    process filters a range once (:func:`_over_range`).

    ``jobs`` is None or an integer of at least 1 (:func:`_check_jobs`).
    With ``jobs`` > 1, min(jobs, CPU count) worker processes take about
    four ranges each, which evens out uneven ranges; otherwise all of S_m
    is one range, run in this process.  ``fn`` and ``args`` must pickle.
    Closing the iterator early cancels the ranges not started."""
    count = math.factorial(m)
    workers = min(jobs or 1, os.cpu_count() or 1)
    if workers <= 1:
        yield _over_range(fn, args, m, greatest, 0, count)
        return
    parts = min(4 * workers, count)
    bounds = [count * i // parts for i in range(parts + 1)]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(functools.partial(
            _over_range, fn, args, m, greatest), bounds[:-1], bounds[1:])


def _least_gap(n: int) -> int:
    """The least rank gap of an irreducible interval of S_n, ceil(n/2): a
    position that no cover of a maximal chain moves is frozen, and a
    cover moves two positions (``notes/decisions.md``)."""
    return (n + 1) // 2


def _irreducible_code(n: int):
    """The code of a permutation w of S_n, kept per call and keyed by w:
    a tuple of 3n - 2 ints, the sets {w(1..i)} and {w^-1(1..i)}, i =
    1..n-1, as bitmasks, and for each position j the pair (w(j), #{l < j
    : w(l) > w(j)}) as one int.  A field of code(x) equals the same field
    of code(y) exactly when [x, y] splits by position or by value at that
    i, or freezes that j (x(j) = y(j) = v and #{l < j : x(l) > v} = #{l <
    j : y(l) > v}); so [x, y] is irreducible iff no field is equal."""
    codes: dict[perms.Perm, tuple[int, ...]] = {}

    def prefix_sets(w):
        return itertools.accumulate((1 << v for v in w[:-1]), operator.or_)

    def code(w) -> tuple[int, ...]:
        found = codes.get(w)
        if found is None:
            frozen = (v * n + sum(u > v for u in w[:j])
                      for j, v in enumerate(w))
            found = codes[w] = (*prefix_sets(w),
                                *prefix_sets(perms.inverse(w)), *frozen)
        return found

    return code


def _scan_intervals(n: int, max_len: int, bottoms):
    """Certificates of the irreducible intervals [x, y]
    (:func:`_irreducible_code`) with x in ``bottoms`` and rank gap at
    most ``max_len``, keyed by ("intervals", gap), plus those with x the
    identity (the ideals) keyed by ("ideals", gap); and how many
    intervals [x, y], y != x, with gap at most ``max_len`` the bottoms
    have.  An interval with a gap below :func:`_least_gap` has a frozen
    point, so a bottom whose up-ball cannot reach that gap is only
    counted (:func:`tables.count_above`), with no ball.  Any other builds
    its up-ball, whose size less one is its count, and certifies each
    top from that gap on whose code shares no field with its own."""
    least = _least_gap(n)
    top = n * (n - 1) // 2
    identity = perms.identity(n)
    code = _irreducible_code(n)
    certs: dict[tuple[str, int], set] = defaultdict(set)
    counted = 0
    for x in bottoms:
        depth = min(max_len, top - perms.length(x))
        if depth < least:
            counted += count_above(x, depth)
            continue
        ball = up_ball(x, depth)
        counted += len(ball.elements) - 1
        base = code(x)
        for y in range(ball.ranks.index(least), len(ball.elements)):
            if any(map(operator.eq, base, code(ball.elements[y]))):
                continue
            gap = ball.ranks[y]
            cert = _certificate(*ball.structure(ball.below[y]))
            certs["intervals", gap].add(cert)
            if x == identity:
                certs["ideals", gap].add(cert)
    return certs, counted


def atlas(
    n: int,
    max_len: int,
    *,
    jobs: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> AtlasResult:
    """Per-length counts of isomorphism classes of intervals and of
    principal order ideals in S_n, for lengths 0..max_len.

    An interval [x, y] with {x(1..i)} = {y(1..i)}, 0 < i < n, is the
    product of the intervals of S_i and S_(n-i) that its two blocks
    flatten to, and likewise by values.  An interval with a frozen
    position j (x(j) = y(j) = v, with as many entries above v before j
    in x as in y) keeps v at j throughout, and deleting row j and column
    v maps it onto an interval of S_(n-1).  A product of intervals of
    S_i and S_j, i, j >= 2, is an interval of S_(i+j-1), with the gaps
    added and a product of ideals an ideal: place the factors' ends on
    positions 1..i and i..i+j-1 and multiply (``notes/decisions.md``
    has the proofs).  So the classes of S_n at gap d are the union, over
    k = 2..n, of the classes of the irreducible intervals of S_k, those
    with neither a split nor a frozen point, which alone are certified
    (:func:`_irreducible_code`); one set of certificates per kind and
    gap collects them.  An irreducible interval of S_k has a gap of at
    least ceil(k/2) (:func:`_least_gap`), so every level scans only from
    that gap, and a level k < n not at all when it exceeds max_len: the
    row of length d is final from S_(2d) on.  With max_len 0 nothing is
    scanned: the one row of length 0 holds one class each.

    Each level scans the greatest bottom of each orbit under inversion
    and conjugation by the reversal (:func:`_fan_out`), with its up-ball
    of depth max_len: both maps preserve isomorphism classes and fix the
    identity, whose up-ball holds the ideals.  ``intervals_examined``
    counts every interval [x, y], y != x, of gap at most max_len over
    the bottoms x that S_n is scanned from, its orbit maxima,
    irreducible or not (:func:`_scan_intervals`): atlas(4, 2) counts 66
    of the 121 over all of S_4, while the count of ``forces`` is that
    of the scan of every bottom.  A bottom's count is the size of its
    up-ball less one, read off the ball where the scan builds one and
    off the level sizes of the rank table where the ball could not
    reach the least gap, so S_n scans from its least gap too, even when
    that exceeds max_len.  With
    ``jobs`` > 1 only S_n is fanned out, after the smaller levels, so
    that its workers start with the certificates those cached: on
    atlas(7, 5) S_7 then misses 18 certificates, and 142 from a cold
    cache.  The counts do not depend on the schedule.
    """
    _check_jobs(jobs)
    perms.check_group_size(n, limits)
    if type(max_len) is not int:
        raise ValueError(f"max_len must be an integer, got {max_len!r}")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    started = time.perf_counter()
    certs: dict[tuple[str, int], set] = defaultdict(set)
    examined = 0
    # a level k < n below its least gap holds no irreducible interval;
    # S_n is scanned even then, to count its intervals
    levels = [k for k in range(2, n + 1)
              if max_len and (k == n or _least_gap(k) <= max_len)]
    for k in levels:
        examined = 0                        # the last level's, S_n's
        # orbit maxima, not minima: a cold atlas(5, 5) then misses 121
        # certificates instead of 147
        for part, part_examined in _fan_out(
            _scan_intervals, (k, max_len), k,
            jobs if k == n else None, greatest=True,
        ):
            examined += part_examined
            for key, found in part.items():
                certs[key] |= found

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
