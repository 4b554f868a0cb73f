"""Independent oracles the test suite checks the library against.

Everything here deliberately avoids the library's own algorithms:
reduced words come from a full tree over all candidate words or from
closing one bubble-sort word under Coxeter moves, two-block splits from
a scan over all of those words, Bruhat comparison from the subword
formulation, poset isomorphism from a plain backtracking matcher,
canonical certificates from a search over every branch with no
automorphism pruning and a refinement that recolors every element in
every round, its least leaf spelled as bytes by string joins, factor
deletion and its length-additive factorizations from a scan over all
of S_n with plain tuples and inversion sets, every factor deletion of
an interval from a scan over the move-closure words in lexicographic
order, Bruhat covers and up-balls from the transposition rule on plain
tuples, intervals from the subword closure of one reduced word and
that rule, an interval's id covers as permutation pairs by indexing
its elements, the symmetries of S_n from index arithmetic on plain
tuples, position inversions from a comparison of every pair of
positions, frozen points from four entries of the rank matrices,
whether a word is a reduced word of w (or a shift of one of the
reversal) from evaluating it on a plain list and counting inversions,
swap-strings from a scan over every set of positions, their
factorization from the adjacent-swap sweep of the intruders, products
of ranked posets from index arithmetic, and the networkx cover digraph
of an interval from an oracle up-ball.  Lengths are counts of
value inversions throughout, and adjacent transpositions swap two
entries of a plain tuple: nothing here imports ``bruhatkit`` at run
time, and only type checkers read its type names.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from bruhatkit.perms import Perm
    from bruhatkit.posets import RankedPoset
    from bruhatkit.words import Word


def _swap(v: Perm, a: int) -> Perm:
    """v s_a: v with the values in positions a and a+1 interchanged."""
    return v[:a - 1] + (v[a], v[a - 1]) + v[a + 1:]


def brute_force_reduced_words(w: Perm) -> set[Word]:
    """All words of length length(w) over the full alphabet that evaluate
    to w, by exhaustive tree search with no descent logic."""
    n = len(w)
    target_len = len(_value_inversions(w))
    found: set[Word] = set()
    prefix: list[int] = []

    def walk(v: Perm) -> None:
        if len(prefix) == target_len:
            if v == w:
                found.add(tuple(prefix))
            return
        for a in range(1, n):
            prefix.append(a)
            walk(_swap(v, a))
            prefix.pop()

    walk(tuple(range(1, n + 1)))
    return found


_word_sets = functools.cache(brute_force_reduced_words)


def _is_subsequence(i: Word, j: Word) -> bool:
    letters = iter(j)
    return all(a in letters for a in i)


def subword_oracle_leq(x: Perm, y: Perm) -> bool:
    """Literal subword formulation: some reduced word of x embeds as a
    subsequence in some reduced word of y.  Word sets come from
    :func:`brute_force_reduced_words`, cached per permutation."""
    ry = _word_sets(y)
    return any(_is_subsequence(i, j) for j in ry for i in _word_sets(x))


def reduced_subword_closure(j: Word, n: int) -> set[Perm]:
    """All elements having a reduced word that is a subsequence of j.

    Processes letters left to right, extending partial products only when
    the multiplication raises the length (so every retained subsequence
    is itself reduced).
    """
    seen = {tuple(range(1, n + 1))}
    for a in j:
        extended = set()
        for z in seen:
            za = _swap(z, a)
            if len(_value_inversions(za)) > len(_value_inversions(z)):
                extended.add(za)
        seen |= extended
    return seen


def coxeter_move_neighbors(word: Word) -> set[Word]:
    """Words one commutation or braid move away."""
    out = set()
    lst = list(word)
    for p in range(len(lst) - 1):
        a, b = lst[p], lst[p + 1]
        if abs(a - b) > 1:
            swapped = lst[:p] + [b, a] + lst[p + 2:]
            out.add(tuple(swapped))
    for p in range(len(lst) - 2):
        a, b, c = lst[p], lst[p + 1], lst[p + 2]
        if a == c and abs(a - b) == 1:
            out.add(tuple(lst[:p] + [b, a, b] + lst[p + 3:]))
    return out


def bubble_sort_word(w: Perm) -> Word:
    """One reduced word of w: sort a plain list by swapping its first
    adjacent descent, positions a and a+1, until none is left; w is the
    product of those swaps in reverse order."""
    v = list(w)
    swaps = []
    while True:
        a = next((p for p in range(1, len(v)) if v[p - 1] > v[p]), None)
        if a is None:
            return tuple(reversed(swaps))
        v[a - 1], v[a] = v[a], v[a - 1]
        swaps.append(a)


def move_closure_reduced_words(w: Perm) -> set[Word]:
    """R(w) as the closure of one bubble-sort word under commutation and
    braid moves (Matsumoto's theorem), with no descent logic."""
    found = {bubble_sort_word(w)}
    frontier = list(found)
    while frontier:
        for nb in coxeter_move_neighbors(frontier.pop()):
            if nb not in found:
                found.add(nb)
                frontier.append(nb)
    return found


@functools.cache
def _sorted_words(w: Perm) -> tuple[Word, ...]:
    """:func:`move_closure_reduced_words` of w in lexicographic order,
    cached per permutation."""
    return tuple(sorted(move_closure_reduced_words(w)))


def exhaustive_factor_scan(x: Perm, y: Perm) -> list[tuple[Word, int]]:
    """Every (j, start) such that deleting the letters of j, a reduced
    word of y, from ``start`` on, as many as the length gap, leaves a
    reduced word of x: j runs over R(y) in lexicographic order and start
    ascends.  Words come from :func:`move_closure_reduced_words`, lengths
    are counts of value inversions."""
    rx = set(_sorted_words(x))
    gap = len(_value_inversions(y)) - len(_value_inversions(x))
    return [
        (j, start)
        for j in _sorted_words(y)
        for start in range(len(j) - gap + 1)
        if j[:start] + j[start + gap:] in rx
    ]


def decompose_oracle(w: Perm) -> tuple[int, Word, Word, str] | None:
    """(m, a1, a2, side) of the first split of a reduced word of w into a
    block of letters <= m and a block of letters > m, or None.  The scan
    runs over :func:`move_closure_reduced_words` in lexicographic order,
    then m ascending, then the cut ascending, with the small letters on
    the left ("left") preferred to on the right ("right")."""
    n = len(w)
    for word in sorted(move_closure_reduced_words(w)):
        for m in range(1, n - 1):
            for cut in range(1, len(word)):
                a1, a2 = word[:cut], word[cut:]
                if max(a1) <= m < min(a2):
                    return m, a1, a2, "left"
                if max(a2) <= m < min(a1):
                    return m, a1, a2, "right"
    return None


def backtracking_isomorphic(p: RankedPoset, q: RankedPoset) -> bool:
    """Rank-respecting extension search for a cover-preserving bijection."""
    if p.size != q.size or p.rank_profile() != q.rank_profile():
        return False
    m = p.size
    p_up = [set() for _ in range(m)]
    q_up = [set() for _ in range(m)]
    for a, b in p.covers:
        p_up[a].add(b)
    for a, b in q.covers:
        q_up[a].add(b)
    if len(p.covers) != len(q.covers):
        return False
    base_p, base_q = min(p.ranks), min(q.ranks)
    order = sorted(range(m), key=lambda v: p.ranks[v])
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def compatible(v: int, w: int) -> bool:
        if q.ranks[w] - base_q != p.ranks[v] - base_p:
            return False
        for u, img in mapping.items():
            if (v in p_up[u]) != (w in q_up[img]):
                return False
            if (u in p_up[v]) != (img in q_up[w]):
                return False
        return True

    def extend(idx: int) -> bool:
        if idx == m:
            return True
        v = order[idx]
        for w in range(m):
            if w in used or not compatible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(idx + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return extend(0)


def direct_product(p: RankedPoset, q: RankedPoset):
    """(ranks, covers) of the product order of two ranked posets, the
    fields of a ``RankedPoset``: the pair (i, j) is element i |q| + j,
    with the sum of their ranks, and it is covered by the pairs that
    step up in one coordinate alone."""
    qs = len(q.ranks)
    ranks = tuple(a + b for a in p.ranks for b in q.ranks)
    covers = [(a * qs + j, b * qs + j) for a, b in p.covers for j in range(qs)]
    covers += [(i * qs + c, i * qs + d)
               for i in range(len(p.ranks)) for c, d in q.covers]
    return ranks, tuple(covers)


def maximal_chain_sizes(elements, covers, low, high) -> set[int]:
    """Sizes of all maximal chains from low to high, by DFS over covers."""
    up: dict = {z: [] for z in elements}
    for a, b in covers:
        up[a].append(b)
    sizes = set()
    stack = [(low, 1)]
    while stack:
        z, k = stack.pop()
        if z == high:
            sizes.add(k)
            continue
        if not up[z]:
            sizes.add(-1)  # dead end: chain not reaching high
            continue
        for b in up[z]:
            stack.append((b, k + 1))
    return sizes


@functools.cache
def _value_inversions(w: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Pairs of values a < b with b to the left of a in w; their number
    is the length of w."""
    return frozenset(
        (w[j], w[i])
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def irreducible_code_oracle(w: Perm) -> tuple[int, ...]:
    """The code the atlas's irreducible screen compares, from sets: for
    i = 1..n-1 the set of the values w(1..i), then for i = 1..n-1 the set
    of the 1-based positions of the values 1..i, each set as the sum of
    2**e over its members e; then for each position j the value w(j) and
    the number of larger entries left of it, packed as w(j)·n plus that
    number."""
    n = len(w)
    values = [sum(2 ** v for v in set(w[:i])) for i in range(1, n)]
    positions = [sum(2 ** p for p in range(1, n + 1) if w[p - 1] <= i)
                 for i in range(1, n)]
    pairs = [v * n + sum(1 for u in w[:j] if u > v) for j, v in enumerate(w)]
    return (*values, *positions, *pairs)


def position_inversions_oracle(w: Perm) -> set[tuple[int, int]]:
    """Pairs (i, j) of 0-based positions with i < j and w[i] > w[j], by
    comparing every pair; their number is the length of w."""
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(w)), 2)
        if w[i] > w[j]
    }


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product ab, the map i -> a(b(i))."""
    return tuple(a[i - 1] for i in b)


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def _conjugate_by_reversal(w: tuple[int, ...]) -> tuple[int, ...]:
    """w0 w w0, the map i -> n + 1 - w(n + 1 - i)."""
    return tuple(len(w) + 1 - v for v in reversed(w))


def symmetries_oracle(w: Perm) -> tuple[Perm, Perm, Perm]:
    """The images of w under the three non-trivial Bruhat automorphisms
    generated by inversion and conjugation by w0: w^-1, w0 w w0 and
    w0 w^-1 w0, with no `bruhatkit.perms`."""
    inverse = _inverse(w)
    return (inverse, _conjugate_by_reversal(w),
            _conjugate_by_reversal(inverse))


def cover_tops_oracle(x: Perm) -> list[Perm]:
    """Every y covering x in the Bruhat order: x with the entries at
    positions i < j swapped, where x(i) < x(j) and no position between
    holds a value between them (Bjorner and Brenti, GTM 231, 2.1.4)."""
    tops = []
    for i, j in itertools.combinations(range(len(x)), 2):
        if x[i] < x[j] and not any(x[i] < x[k] < x[j]
                                   for k in range(i + 1, j)):
            tops.append(x[:i] + (x[j],) + x[i + 1:j] + (x[i],) + x[j + 1:])
    return tops


@functools.cache
def _ideal_oracle(y: Perm) -> frozenset[Perm]:
    """Every z <= y: the elements with a reduced word inside the one
    reduced word :func:`bubble_sort_word` of y, by
    :func:`reduced_subword_closure` (the subword property, Bjorner and
    Brenti, GTM 231, Thm 2.2.2).  Cached per permutation, so that S_6
    intervals cost one closure per element met."""
    return frozenset(reduced_subword_closure(bubble_sort_word(y), len(y)))


def interval_oracle(x: Perm, y: Perm):
    """(elements, covers) of the interval [x, y] for x <= y: every z of
    :func:`_ideal_oracle` of y whose own ideal holds x, sorted by
    (length, one-line order) as ``bruhat.Interval.elements`` is, and the
    permutation pairs (a, b) of those with b in :func:`cover_tops_oracle`
    of a, sorted."""
    elements = sorted(
        (z for z in _ideal_oracle(y) if x in _ideal_oracle(z)),
        key=lambda z: (len(_value_inversions(z)), z),
    )
    inside = set(elements)
    covers = sorted(
        (a, b) for a in elements for b in cover_tops_oracle(a) if b in inside
    )
    return tuple(elements), tuple(covers)


def perm_covers(iv) -> tuple[tuple[Perm, Perm], ...]:
    """The covers of a ``bruhat.Interval`` as permutation pairs: each id
    pair of ``iv.covers`` mapped through ``iv.elements``, in the order
    the interval holds them.  It reads the two fields alone."""
    elements = iv.elements
    return tuple((elements[a], elements[b]) for a, b in iv.covers)


def frozen_points_oracle(x: Perm, y: Perm) -> list[tuple[int, int]]:
    """The frozen points (j, v) of x <= y, j a 1-based position, by the
    rank-matrix condition: x(j) = y(j) = v and x[p, q] = y[p, q] at the
    four entries p in {j - 1, j}, q in {v, v + 1}, where w[p, q] =
    #{a <= p : w(a) >= q} (Bjorner and Brenti, GTM 231, 2.1.5)."""

    def entry(w: Perm, p: int, q: int) -> int:
        return sum(1 for a in range(p) if w[a] >= q)

    return [
        (j, v) for j, v in enumerate(x, 1)
        if y[j - 1] == v and all(
            entry(x, p, q) == entry(y, p, q)
            for p in (j - 1, j) for q in (v, v + 1))
    ]


def up_ball_oracle(x: Perm, depth: int):
    """The up-ball of x with the given depth as (elements, ranks,
    rank_masks, down_adj, below): the fields of ``tables.Ball``, and in
    ``down_adj`` the ids that each element covers, in increasing order.
    It is built over plain tuples from :func:`cover_tops_oracle`: each
    level is the set of covers of the one before, sorted in one-line
    order, and ``below`` of an element is its own bit with the ``below``
    of every element it covers."""
    elements, ranks, rank_masks, down_adj, below = [x], [0], [1], [()], [1]
    prev = [(0, x, set(cover_tops_oracle(x)))]
    for r in range(1, depth + 1):
        start = len(elements)
        level = sorted(set().union(*(tops for _, _, tops in prev)))
        for y in level:
            downs = tuple(zid for zid, _, tops in prev if y in tops)
            mask = 1 << len(elements)
            for v in downs:
                mask |= below[v]
            elements.append(y)
            ranks.append(r)
            down_adj.append(downs)
            below.append(mask)
        rank_masks.append((1 << len(elements)) - (1 << start))
        prev = [(yid, y, set(cover_tops_oracle(y)))
                for yid, y in enumerate(level, start)]
    return (tuple(elements), tuple(ranks), tuple(rank_masks),
            tuple(down_adj), tuple(below))


def ball_digraph(nx, ball, y):
    """The covers of [x, y] as a networkx DiGraph with each element's
    rank above x as its ``rank``, read off ``ball``, an
    :func:`up_ball_oracle` of x that holds y."""
    elements, ranks, _, down_adj, below = ball
    mask = below[elements.index(y)]
    inside = [u for u in range(len(elements)) if mask >> u & 1]
    g = nx.DiGraph()
    g.add_nodes_from((u, {"rank": ranks[u]}) for u in inside)
    g.add_edges_from((v, u) for u in inside for v in down_adj[u])
    return g


def rank_match(a, b) -> bool:
    """The node match of ranked cover digraphs: equal ranks."""
    return a["rank"] == b["rank"]


def _factorization_scan(x: Perm, y: Perm):
    """Every (u, b, v) with x = u v and y = u b v, both products
    length-additive (for x <= y), by a scan over all of S_n with plain
    tuples: the prefixes u of x in the right weak order are exactly the u
    whose value-inversion set lies inside that of x, v = u^-1 x and
    b = u^-1 y v^-1, and the triple is kept when the length of b is the
    length gap, so that the lengths of u, b and v add up to that of y."""
    inv_x = _value_inversions(x)
    gap = len(_value_inversions(y)) - len(inv_x)
    for u in itertools.permutations(range(1, len(x) + 1)):
        if not _value_inversions(u) <= inv_x:
            continue
        u_inv = _inverse(u)
        v = _times(u_inv, x)
        b = _times(u_inv, _times(y, _inverse(v)))
        if len(_value_inversions(b)) == gap:
            yield u, b, v


def factorizations_oracle(x: Perm, y: Perm) -> set[tuple[Perm, Perm, Perm]]:
    """The set of length-additive factorizations x = u v, y = u b v, as
    (u, b, v) triples, with no `bruhatkit.perms`."""
    return set(_factorization_scan(x, y))


def deletion_oracle(x: Perm, y: Perm) -> bool:
    """Whether some reduced word of y loses one consecutive block and
    leaves a reduced word of x (for x <= y): whether the scan of
    :func:`factorizations_oracle` finds a factorization."""
    return next(_factorization_scan(x, y), None) is not None


def is_reduced_word_of(word: Word, w: Perm) -> bool:
    """Whether ``word`` evaluates to w with as many letters as w has
    value inversions: each letter a swaps positions a and a+1 of a plain
    list, starting from the identity, with no `bruhatkit.perms`."""
    v = list(range(1, len(w) + 1))
    for a in word:
        v[a - 1], v[a] = v[a], v[a - 1]
    return tuple(v) == tuple(w) and len(word) == len(_value_inversions(w))


def is_shifted_longest_word(b: Word, k: int) -> bool:
    """Whether some shift of ``b`` is a reduced word of the reversal of
    S_k.  Such a word uses each of the letters 1..k-1, so the one shift
    to try takes the least letter of b to 1; :func:`is_reduced_word_of`
    checks it.  The empty word is one only for k = 1."""
    if not b:
        return k == 1
    t = 1 - min(b)
    shifted = tuple(a + t for a in b)
    return (max(shifted) < k
            and is_reduced_word_of(shifted, tuple(range(k, 0, -1))))


def thin_oracle(s: Perm, positions: tuple[int, ...]) -> bool:
    """Whether the substring of s at the increasing 1-based positions is
    thin: no other position between its first and last holds a value
    strictly between its least and greatest values."""
    vals = [s[p - 1] for p in positions]
    return not any(
        min(vals) < s[q - 1] < max(vals)
        for q in range(positions[0], positions[-1] + 1)
        if q not in positions
    )


def swap_string_oracle(x: Perm, y: Perm) -> list[tuple]:
    """Every (positions, values, k), k >= 2, of a swap-string of x and y,
    by a scan over every set of 1-based positions: x and y agree off the
    positions, x increases on them, y reads x's values there backwards,
    and the substring of x there is thin (:func:`thin_oracle`)."""
    n = len(x)
    found = []
    for k in range(2, n + 1):
        for pos in itertools.combinations(range(1, n + 1), k):
            vals = [x[p - 1] for p in pos]
            if (all(x[q - 1] == y[q - 1]
                    for q in range(1, n + 1) if q not in pos)
                    and vals == sorted(vals)
                    and [y[p - 1] for p in pos] == vals[::-1]
                    and thin_oracle(x, pos)):
                found.append((pos, tuple(vals), k))
    return found


def lex_least_word_oracle(w: Perm) -> Word:
    """The lexicographically least reduced word of w: each letter is the
    least a whose left multiplication, the swap of the values a and a + 1,
    lowers the count of value inversions."""
    word: list[int] = []
    v = tuple(w)
    while _value_inversions(v):
        a = next(a for a in range(1, len(v))
                 if v.index(a + 1) < v.index(a))
        v = tuple(a + 1 if e == a else a if e == a + 1 else e for e in v)
        word.append(a)
    return tuple(word)


def swap_sweep_oracle(x: Perm, y: Perm) -> tuple[Word, Word, Word, int]:
    """(a, b, c, t) of the swap-string factorization of x and y by the
    adjacent-swap sweep, for a pair with one swap-string
    (:func:`swap_string_oracle`).

    The intruders in the span of the swap-string go out by adjacent swaps
    of plain lists, each of which must lower both x and y: first the big
    ones (above every swap-string value), the rightmost first, rightwards
    until no swap-string value is right of them; then the small ones, the
    leftmost first, leftwards until none is left of them.  The sweep
    reversed is c, the least word of the swept x
    (:func:`lex_least_word_oracle`) is a, and b is :func:`bubble_sort_word`
    of the reversal of S_k shifted to the block's 0-based start, which is
    -t."""
    ((_, values, k),) = swap_string_oracle(x, y)
    cur_x, cur_y, sweep = list(x), list(y), []

    def span():
        spots = [i for i, v in enumerate(cur_x) if v in values]
        return spots[0], spots[-1]

    def swap(i):
        assert cur_x[i] > cur_x[i + 1] and cur_y[i] > cur_y[i + 1]
        cur_x[i], cur_x[i + 1] = cur_x[i + 1], cur_x[i]
        cur_y[i], cur_y[i + 1] = cur_y[i + 1], cur_y[i]
        sweep.append(i + 1)

    while big := [q for q in range(span()[0] + 1, span()[1])
                  if cur_x[q] > values[-1]]:
        q = big[-1]
        while any(v in values for v in cur_x[q + 1:]):
            swap(q)
            q += 1
    while small := [q for q in range(span()[0] + 1, span()[1])
                    if cur_x[q] < values[0]]:
        q = small[0]
        while any(v in values for v in cur_x[:q]):
            swap(q - 1)
            q -= 1
    start = span()[0]
    b = tuple(a + start for a in bubble_sort_word(tuple(range(k, 0, -1))))
    return (lex_least_word_oracle(tuple(cur_x)), b, tuple(reversed(sweep)),
            -start)


def refine_oracle(colors: list[int], up, down) -> list[int]:
    """Iterated degree refinement of a coloring, round by round: each
    round recolors every vertex by (its color, the sorted colors of its
    upper covers, the sorted colors of its lower covers), renumbered
    0..k-1 in sorted signature order, until no class splits.  ``up`` and
    ``down`` list each vertex's upper and lower covers."""
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


def individualize_oracle(colors: list[int], v: int, up, down) -> list[int]:
    """The refined coloring ``colors`` with v made the lowest of its
    class, renumbered 0..k-1 and refined again by :func:`refine_oracle`."""
    split = [(c, 1) for c in colors]
    split[v] = (colors[v], 0)
    palette = {sig: i for i, sig in enumerate(sorted(set(split)))}
    return refine_oracle([palette[s] for s in split], up, down)


def min_certificate_oracle(ranks: tuple[int, ...], covers) -> tuple:
    """The least leaf certificate of a ranked poset's individualization
    tree, visiting every branch.

    Colors start as the ranks and are refined by :func:`refine_oracle`.
    While some class has two or more members, each member of the least
    such class is made the lowest of its class in turn and the coloring
    refined again (:func:`individualize_oracle`).  A discrete coloring
    orders the elements; its certificate is (size, ranks in that order
    relative to the least rank, the sorted cover pairs in that order).
    The library's search must return the same tuple while skipping
    automorphic branches.
    """
    m = len(ranks)
    up = [[] for _ in range(m)]
    down = [[] for _ in range(m)]
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)

    def least(colors):
        if len(set(colors)) == m:
            order = sorted(range(m), key=colors.__getitem__)
            pos = {v: i for i, v in enumerate(order)}
            return (
                m,
                tuple(ranks[v] - min(ranks) for v in order),
                tuple(sorted((pos[a], pos[b]) for a, b in covers)),
            )
        target = min(
            c for c in set(colors) if colors.count(c) > 1
        )
        return min(
            least(individualize_oracle(colors, v, up, down))
            for v in range(m) if colors[v] == target
        )

    return least(refine_oracle(list(ranks), up, down))


def certificate_bytes(cert: tuple) -> bytes:
    """A certificate tuple of :func:`min_certificate_oracle` in the text
    form of ``posets.canonical_form``: the size, the ranks joined by
    commas and the covers as "a-b" joined by commas, the three parts
    joined by semicolons, as ASCII bytes."""
    size, ranks, covers = cert
    parts = [str(size), ",".join(str(r) for r in ranks),
             ",".join("%d-%d" % pair for pair in covers)]
    return ";".join(parts).encode("ascii")
