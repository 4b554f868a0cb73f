import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import sys
import time
from collections import Counter, defaultdict

import pytest

from bruhatkit import bruhat, perms, posets, tables
from bruhatkit.limits import DEFAULT_LIMITS, CapExceeded, Limits
from bruhatkit.tables import iter_bits, rank, up_ball

from oracles import (
    backtracking_isomorphic,
    ball_digraph,
    certificate_bytes,
    cover_tops_oracle,
    deletion_oracle,
    direct_product,
    frozen_points_oracle,
    individualize_oracle,
    interval_oracle,
    irreducible_code_oracle,
    min_certificate_oracle,
    rank_match,
    refine_oracle,
    symmetries_oracle,
    up_ball_oracle,
)
from whole_group import above, elements, ranks, table


def P(text):
    return perms.parse_perm(text)


def shape_of_ideal(text):
    return bruhat.ideal(P(text))


def shape_of_interval(lo, hi):
    return bruhat.interval(P(lo), P(hi))


S4 = [tuple(w) for w in itertools.permutations((1, 2, 3, 4))]


POINT = posets.RankedPoset(ranks=(0,), covers=())
EDGE = posets.RankedPoset(ranks=(0, 1), covers=((0, 1),))


def product(p, q):
    """The product order of p and q, by ``oracles.direct_product``."""
    return posets.RankedPoset(*direct_product(p, q))


def boolean(k):
    """B_k, the product of k two-element chains."""
    return functools.reduce(product, [EDGE] * k, POINT)


def coxeter_ideal(k):
    """The ideal of s_1 s_2 ... s_k = 23...(k+1)1, which is B_k."""
    return bruhat.ideal(tuple(range(2, k + 2)) + (1,))


@functools.cache
def atlas_shapes(n, max_len):
    """The raw (ranks, covers) shapes that atlas(n, max_len) certifies."""
    top = n * (n - 1) // 2
    shapes = set()
    for x in perms.all_perms(n):
        if x != max(perms.symmetry_images(x)):
            continue
        ball = up_ball(x, min(max_len, top - perms.length(x)))
        for y in range(1, len(ball.lex_ranks)):
            shapes.add(ball.structure(ball.below[y]))
    return shapes


def same_partition(colors, cells, labels):
    """Whether (colors, cells) is the ordered partition that the 0..k-1
    coloring ``labels`` gives: each color the start of its cell, each
    cell its members in increasing order, and the colors ranked as the
    labels are."""
    m = len(colors)
    starts = sorted(set(colors))
    rank = {c: i for i, c in enumerate(starts)}
    return (
        [rank[c] for c in colors] == labels
        and all(s == sum(colors.count(c) for c in starts[:i])
                for i, s in enumerate(starts))
        and cells == {s: [v for v in range(m) if colors[v] == s]
                      for s in starts}
    )


@functools.cache
def full_scan_atlas(n, max_len):
    """``atlas(n, max_len).to_json()`` by certifying every interval of the
    orbit representatives, none screened out: the atlas as it was before
    it built the classes of S_n from those of the smaller groups."""
    identity = perms.identity(n)
    top = n * (n - 1) // 2
    certs = defaultdict(set)
    examined = 0
    for x in perms.all_perms(n):
        if x != max(perms.symmetry_images(x)):
            continue
        ball = up_ball(x, min(max_len, top - perms.length(x)))
        for y, gap in enumerate(ranks(ball)[1:], 1):
            cert = posets._certificate(*ball.structure(ball.below[y]))
            certs["intervals", gap].add(cert)
            if x == identity:
                certs["ideals", gap].add(cert)
            examined += 1
    rows = [{"length": 0, "intervals": 1, "ideals": 1}] + [
        {"length": d, "intervals": len(certs["intervals", d]),
         "ideals": len(certs["ideals", d])}
        for d in range(1, max_len + 1)
    ]
    return {
        "n": n,
        "rows": rows,
        "stats": {"intervals_examined": examined, "seconds": 0.0,
                  **DEFAULT_LIMITS.to_json()},
    }


def every_top_certificates(n, max_len, bottoms):
    """What ``posets._scan_intervals(n, max_len, bottoms)`` returns, with
    every top that the oracles find irreducible certified, none skipped
    for its stabilizer orbit, and every ball's tops counted."""
    identity = perms.identity(n)
    top = n * (n - 1) // 2
    certs = defaultdict(set)
    count = 0
    for x in bottoms:
        ball = up_ball(x, min(max_len, top - perms.length(x)))
        gaps = ranks(ball)
        for yid, y in enumerate(elements(ball, n)[1:], 1):
            if not reducible_points(x, y):
                cert = posets._certificate(*ball.structure(ball.below[yid]))
                certs["intervals", gaps[yid]].add(cert)
                if x == identity:
                    certs["ideals", gaps[yid]].add(cert)
            count += 1
    return certs, count


def sleep_past_first_range(bottoms):
    """A ``_fan_out`` function that returns at once on the range holding
    the identity, the first, and sleeps 30 s on every other."""
    if next(bottoms, None) != perms.identity(5):
        time.sleep(30)


def plain_inverse(w):
    inv = [0] * len(w)
    for p, v in enumerate(w):
        inv[v - 1] = p + 1
    return tuple(inv)


def flatten(entries):
    """The permutation of 1..k in the relative order of k distinct
    entries."""
    order = sorted(entries)
    return tuple(order.index(e) + 1 for e in entries)


def split_points(x, y):
    """Each (kind, i), 0 < i < n, at which [x, y] splits, by direct set
    comparison: "position" when {x(1..i)} = {y(1..i)}, "value" when
    {x^-1(1..i)} = {y^-1(1..i)}."""
    xi, yi = plain_inverse(x), plain_inverse(y)
    return [
        (kind, i)
        for kind, a, b in (("position", x, y), ("value", xi, yi))
        for i in range(1, len(x))
        if set(a[:i]) == set(b[:i])
    ]


def equal_code_fields(code, x, y):
    """The fields at which the codes of x and y agree, named as the
    oracles name a split or a frozen point: ("position", i) and
    ("value", i) for 0 < i < n, then ("frozen", j) for each position j.
    ``code(rank(x))`` is the code of x, which reads x back."""
    n = len(x)
    names = ([(kind, i) for kind in ("position", "value")
              for i in range(1, n)]
             + [("frozen", j) for j in range(1, n + 1)])
    x_code, y_code = code(rank(x)), code(rank(y))
    assert (posets._code_perm(x_code, n), posets._code_perm(y_code, n)) == (
        x, y)
    codes = zip(x_code, y_code)
    return [name for name, (a, b) in zip(names, codes) if a == b]


def reducible_points(x, y):
    """The splits and frozen points of x <= y, from the oracles, named as
    in :func:`equal_code_fields`."""
    return split_points(x, y) + [
        ("frozen", j) for j, _ in frozen_points_oracle(x, y)]


def split_factors(x, y, kind, i):
    """The two flattened factor pairs of [x, y] at a split: the first i
    and the last n - i positions, or the values up to i and above i in
    the order they stand in."""
    if kind == "position":
        return ((flatten(x[:i]), flatten(y[:i])),
                (flatten(x[i:]), flatten(y[i:])))
    low = tuple(v for v in x if v <= i), tuple(v for v in y if v <= i)
    high = (tuple(v - i for v in x if v > i),
            tuple(v - i for v in y if v > i))
    return low, high


def inversion_count(w):
    return sum(a > b for a, b in itertools.combinations(w, 2))


@functools.cache
def oracle_ball(x):
    """``up_ball_oracle`` of x up to the top of its group."""
    n = len(x)
    return up_ball_oracle(x, n * (n - 1) // 2 - inversion_count(x))


def oracle_digraph(nx, x, y):
    """The covers of [x, y] as a networkx DiGraph with each element's
    rank above x as its ``rank``, read off ``up_ball_oracle`` alone."""
    return ball_digraph(nx, oracle_ball(x), y)


def product_digraph(nx, g, h):
    """The Cartesian product of two cover digraphs, each node's ``rank``
    the sum of its factors' ranks: the covers of the product order."""
    product = nx.cartesian_product(g, h)
    for node in product:
        product.nodes[node]["rank"] = sum(product.nodes[node]["rank"])
    return product


def times(a, b):
    """The product ab, the map i -> a(b(i))."""
    return tuple(a[i - 1] for i in b)


def placed(w, start, n):
    """w of S_k on positions start..start+k-1 of S_n, its values shifted
    by start - 1, with every other position fixed."""
    return (tuple(range(1, start)) + tuple(v + start - 1 for v in w)
            + tuple(range(start + len(w), n + 1)))


def interval_digraph(nx, x, y):
    """The elements of [x, y] and its covers as a networkx DiGraph with
    each element's rank above x as its ``rank``, from ``interval_oracle``
    alone."""
    elements, covers = interval_oracle(x, y)
    base = inversion_count(x)
    g = nx.DiGraph()
    g.add_nodes_from(
        (z, {"rank": inversion_count(z) - base}) for z in elements)
    g.add_edges_from(covers)
    return elements, g


def relabeled(p, seed):
    """p with its element ids shuffled."""
    new_id = list(range(p.size))
    random.Random(seed).shuffle(new_id)
    ranks = [0] * p.size
    for v, r in enumerate(p.ranks):
        ranks[new_id[v]] = r
    return posets.RankedPoset(
        ranks=tuple(ranks),
        covers=tuple((new_id[a], new_id[b]) for a, b in p.covers),
    )


def relabeled_within_ranks(p, rng):
    """The (ranks, covers) of p with the ids of each rank shuffled among
    themselves by ``rng``, and its covers mapped."""
    by_rank = defaultdict(list)
    for v, r in enumerate(p.ranks):
        by_rank[r].append(v)
    new_id = [0] * p.size
    for ids in by_rank.values():
        shuffled = ids[:]
        rng.shuffle(shuffled)
        for v, u in zip(ids, shuffled):
            new_id[v] = u
    # within ranks, so every id keeps its rank
    return p.ranks, tuple(sorted((new_id[a], new_id[b]) for a, b in p.covers))


def searched_certificate(ranks, covers):
    """The certificate that ``_certificate``'s search finds, with no
    cached certificate and no known class to answer for it."""
    posets._classes.cache_clear()
    return posets._certificate.__wrapped__(ranks, covers)


def count_full_searches(monkeypatch):
    """A list that gains the first leaf of each certificate search that
    goes on past that leaf, its class not known."""
    searches = []
    classes = posets._classes

    def record(first_leaf):
        known = classes(first_leaf)
        if not known:
            searches.append(first_leaf)
        return known

    monkeypatch.setattr(posets, "_classes", record)
    return searches


def count_leaves(monkeypatch):
    """A list that gains an entry for each leaf that a certificate search
    reaches by individualizing."""
    leaves = []
    individualize = posets._individualize

    def record(colors, cells, v, up, down):
        found = individualize(colors, cells, v, up, down)
        if len(found[1]) == len(colors):
            leaves.append(v)
        return found

    monkeypatch.setattr(posets, "_individualize", record)
    return leaves


def twisted(p):
    """p with the tops of two covers from rank 1 exchanged, a poset of
    the same size and rank profile."""
    covers = list(p.covers)
    low = [i for i, (a, _) in enumerate(covers) if p.ranks[a] == 1]
    a, b = covers[low[0]]
    for j in low[1:]:
        c, d = covers[j]
        if c != a and d != b and (a, d) not in covers and (c, b) not in covers:
            covers[low[0]], covers[j] = (a, d), (c, b)
            return posets.RankedPoset(ranks=p.ranks, covers=tuple(covers))
    raise ValueError("no two covers to exchange")


def cycle_union(half_lengths, seed):
    """A bottom, n atoms, n coatoms and a top, the atoms and coatoms
    joined by a union of even cycles (2k covers for each k in
    ``half_lengths``, all k >= 2), with shuffled ids.  Refinement keeps
    all atoms in one class whatever the cycles, so the search must tell
    the cycles apart by individualizing."""
    n = sum(half_lengths)
    rng = random.Random(seed)
    atoms, coatoms = list(range(1, n + 1)), list(range(n + 1, 2 * n + 1))
    rng.shuffle(atoms)
    rng.shuffle(coatoms)
    covers = [(0, a) for a in atoms] + [(c, 2 * n + 1) for c in coatoms]
    start = 0
    for k in half_lengths:
        for j in range(k):
            covers.append((atoms[start + j], coatoms[start + j]))
            covers.append((atoms[start + j], coatoms[start + (j + 1) % k]))
        start += k
    return posets.RankedPoset(
        ranks=(0,) + (1,) * n + (2,) * n + (3,), covers=tuple(covers)
    )


CYCLE_HALF_LENGTHS = [(8,), (2, 6), (3, 5), (4, 4), (2, 2, 4), (2, 3, 3)]


def networkx_isomorphic(nx, p, q):
    """networkx's matcher on the cover digraphs, ranks (relative to the
    least) as node attributes."""
    def graph(r):
        g = nx.DiGraph()
        base = min(r.ranks)
        g.add_nodes_from(
            (v, {"rank": rank - base}) for v, rank in enumerate(r.ranks)
        )
        g.add_edges_from(r.covers)
        return g

    return nx.is_isomorphic(
        graph(p), graph(q), node_match=lambda a, b: a["rank"] == b["rank"]
    )


def s4_intervals():
    """Every interval of S_4, in (x, y) one-line order."""
    return [bruhat.interval(x, y) for x, y in itertools.product(S4, S4)
            if bruhat.bruhat_leq(x, y)]


class TestCanonicalForm:
    def test_certificate_is_the_canonical_bytes(self):
        # the cached certificate is the canonical form itself, read off
        # the interval with no relabel
        corpus = s4_intervals() + list(map(bruhat.ideal, perms.all_perms(5)))
        assert len(corpus) == 213 + 120
        for p in corpus:
            cert = posets._certificate(p.ranks, p.covers)
            assert type(cert) is bytes
            assert cert == posets.canonical_form(p)

    def test_bytes_of_every_interval_of_s4_pinned(self):
        # the canonical forms of the 213 intervals of S_4, each followed
        # by a newline, hash as they did when a relabel built each shape
        intervals = s4_intervals()
        assert len(intervals) == 213
        digest = hashlib.sha256()
        for p in intervals:
            digest.update(posets.canonical_form(p) + b"\n")
        assert digest.hexdigest() == (
            "8317d2383485eb7c2a363f83c56daaf288c1d7725877472eba611d8400be090d")

    def test_diamond_two_ways(self):
        assert posets.canonical_form(
            shape_of_ideal("2314")
        ) == posets.canonical_form(shape_of_interval("1324", "2341"))

    def test_chain_differs_from_singleton_and_diamond(self):
        chain_cert = posets.canonical_form(EDGE)
        assert chain_cert != posets.canonical_form(POINT)
        assert chain_cert != posets.canonical_form(shape_of_ideal("2314"))

    def test_hexagon_two_ways(self):
        assert posets.canonical_form(
            shape_of_ideal("321")
        ) == posets.canonical_form(shape_of_interval("1243", "4213"))

    def test_malformed_poset_rejected(self):
        two_maxima = posets.RankedPoset(
            ranks=(0, 1, 1), covers=((0, 1), (0, 2))
        )
        with pytest.raises(ValueError):
            posets.canonical_form(two_maxima)

    def test_invalid_covers_rejected(self):
        with pytest.raises(ValueError):
            posets.RankedPoset(ranks=(0, 2), covers=((0, 1),))

    def test_repeated_cover_rejected(self):
        # a cover given twice would spell its own canonical form, so the
        # edge given twice would not be isomorphic to the edge given once
        with pytest.raises(ValueError, match="a cover is given twice"):
            posets.RankedPoset(ranks=(0, 1), covers=((0, 1), (0, 1)))


class TestIsIsomorphic:
    def test_reflexive(self):
        p = shape_of_interval("2143", "4231")
        assert posets.is_isomorphic(p, p)

    def test_figure2_not_any_s4_ideal(self):
        p = shape_of_interval("2143", "4231")
        for w in S4:
            assert not posets.is_isomorphic(p, bruhat.ideal(w))

    def test_indecomposable_ideal_as_interval(self):
        assert posets.is_isomorphic(
            shape_of_ideal("3412"), shape_of_interval("12543", "52341")
        )

    def test_equivalence_relation_on_corpus(self):
        rng = random.Random(5)
        corpus = []
        for _ in range(12):
            x, y = rng.choice(S4), rng.choice(S4)
            if bruhat.bruhat_leq(x, y):
                corpus.append(bruhat.interval(x, y))
        for p in corpus:
            assert posets.is_isomorphic(p, p)
        for p in corpus:
            for q in corpus:
                assert posets.is_isomorphic(p, q) == posets.is_isomorphic(
                    q, p
                )
        for p in corpus:
            for q in corpus:
                for r in corpus:
                    if posets.is_isomorphic(p, q) and posets.is_isomorphic(
                        q, r
                    ):
                        assert posets.is_isomorphic(p, r)


class TestCertificateSoundness:
    """Certificate equality must coincide with the backtracking matcher."""

    def _intervals_up_to_length(self, n, max_len):
        group = [tuple(w) for w in itertools.permutations(range(1, n + 1))]
        for y in group:
            for x in group:
                gap = perms.length(y) - perms.length(x)
                if 0 <= gap <= max_len and bruhat.bruhat_leq(x, y):
                    yield bruhat.interval(x, y)

    def _classes_agree(self, n, max_len, isomorphic):
        by_cert = {}
        for p in self._intervals_up_to_length(n, max_len):
            by_cert.setdefault(posets.canonical_form(p), []).append(p)
        reps = {cert: ps[0] for cert, ps in by_cert.items()}
        # equal certificate -> isomorphic (every member vs its representative)
        for cert, ps in by_cert.items():
            for p in ps:
                assert isomorphic(reps[cert], p)
        # distinct certificates -> not isomorphic (pairwise over representatives)
        certs = sorted(reps)
        for i, c1 in enumerate(certs):
            for c2 in certs[i + 1:]:
                assert not isomorphic(reps[c1], reps[c2])

    def test_s4_exhaustive(self):
        self._classes_agree(4, 4, backtracking_isomorphic)

    def test_s5_exhaustive(self):
        self._classes_agree(5, 4, backtracking_isomorphic)

    def test_networkx_agrees_on_s5(self):
        nx = pytest.importorskip("networkx")
        self._classes_agree(
            5, 4, functools.partial(networkx_isomorphic, nx)
        )

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_networkx_agrees_on_boolean(self, k):
        nx = pytest.importorskip("networkx")
        corpus = [
            boolean(k), coxeter_ideal(k), relabeled(boolean(k), k),
            twisted(boolean(k)),
        ]
        for p, q in itertools.combinations_with_replacement(corpus, 2):
            assert (
                posets.canonical_form(p) == posets.canonical_form(q)
            ) == networkx_isomorphic(nx, p, q)


class TestCertificateSearch:
    """The automorphism-pruned search returns the certificate of the full
    search, encoded as the oracle encodes its least leaf, so canonical
    forms and atlas rows stay as they were."""

    def test_equals_unpruned_search_on_atlas_shapes(self):
        shapes = atlas_shapes(5, 5) | atlas_shapes(6, 4) | atlas_shapes(7, 2)
        assert len(shapes) == 135
        for ranks, covers in shapes:
            assert searched_certificate(
                ranks, covers
            ) == certificate_bytes(min_certificate_oracle(ranks, covers))

    def test_refine_equals_round_by_round_oracle(self):
        # split-cell refinement gives the cells of the round-by-round
        # refinement in the same order: at the root, and below each
        # member of the root's first cell that is not a singleton
        individualized = 0
        shapes = atlas_shapes(5, 5) | atlas_shapes(6, 4) | atlas_shapes(7, 2)
        for ranks, covers in shapes:
            up, down = posets._adjacency(len(ranks), covers)
            colors, cells = posets._root_partition(ranks, up, down)
            expected = refine_oracle(list(ranks), up, down)
            assert same_partition(colors, cells, expected)
            target = min((s for s, members in cells.items()
                          if len(members) > 1), default=None)
            if target is None:
                continue
            for v in cells[target]:
                assert same_partition(
                    *posets._individualize(colors, cells, v, up, down),
                    individualize_oracle(expected, v, up, down),
                )
                individualized += 1
        assert individualized > 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_equals_unpruned_search_on_boolean(self, k):
        for p in (boolean(k), coxeter_ideal(k), relabeled(boolean(k), k)):
            assert searched_certificate(
                p.ranks, p.covers
            ) == certificate_bytes(min_certificate_oracle(p.ranks, p.covers))

    @pytest.mark.parametrize("half_lengths", CYCLE_HALF_LENGTHS)
    def test_equals_unpruned_search_on_cycle_unions(self, half_lengths):
        # cells that are not orbits: a jump back above the two leaves'
        # common ancestor loses the least certificate of (2, 2, 4)
        for seed in range(3):
            p = cycle_union(half_lengths, seed)
            assert searched_certificate(
                p.ranks, p.covers
            ) == certificate_bytes(min_certificate_oracle(p.ranks, p.covers))

    def test_warm_class_cache_equals_unpruned_search(self):
        # the cycle unions, whose cells are not orbits, and B_1..B_6, each
        # certified after every one before it, with no certificate cached
        # but the classes of the first leaves met so far
        corpus = [cycle_union(half_lengths, seed)
                  for half_lengths in CYCLE_HALF_LENGTHS for seed in range(3)]
        for k in range(1, 7):
            corpus += [boolean(k), coxeter_ideal(k), relabeled(boolean(k), k)]
        posets._classes.cache_clear()
        for p in corpus:
            assert posets._certificate.__wrapped__(
                p.ranks, p.covers
            ) == certificate_bytes(min_certificate_oracle(p.ranks, p.covers))
        assert posets._classes.cache_info().hits > 0

    def test_relabelled_copy_stops_at_first_leaf(self, monkeypatch):
        # a copy with the ids of each rank shuffled meets, as its first
        # leaf, the first leaf of the original: the copy's certificate is
        # the original's, found with no search past that leaf
        rng = random.Random(47)
        group = list(itertools.permutations(range(1, 7)))
        sample = []
        while len(sample) < 200:
            x, y = rng.choice(group), rng.choice(group)
            if bruhat.bruhat_leq(x, y):
                sample.append(bruhat.interval(x, y))
        corpus = (s4_intervals() + list(map(bruhat.ideal, perms.all_perms(5)))
                  + sample)
        classes = posets._classes
        searches = count_full_searches(monkeypatch)
        leaves = count_leaves(monkeypatch)
        moved = 0
        for p in corpus:
            copy = relabeled_within_ranks(p, rng)
            moved += copy != (p.ranks, p.covers)
            posets._certificate.cache_clear()
            classes.cache_clear()
            cert = posets._certificate(p.ranks, p.covers)
            searched, reached = len(searches), len(leaves)
            assert posets._certificate(*copy) == cert
            # its class is known, and its search reaches no second leaf
            assert len(searches) == searched
            assert len(leaves) <= reached + 1
        # most copies are raw shapes of their own, not the original again
        assert moved > len(corpus) // 2

    def test_b7_ideal_is_boolean(self):
        # the ideal of 23456781 in S_8 is B_7, 128 elements; its 7!
        # automorphisms act freely on the leaves, so the unpruned search
        # visits at least 5,040 of them.  No time is asserted.
        ideal = shape_of_ideal("23456781")
        assert ideal.size == 128
        assert posets.canonical_form(ideal) == posets.canonical_form(
            boolean(7)
        )


class TestDirectProduct:
    def test_diamond(self):
        assert posets.is_isomorphic(product(EDGE, EDGE),
                                    shape_of_ideal("2314"))

    def test_singleton_unit(self):
        p = shape_of_interval("2143", "4231")
        assert posets.is_isomorphic(product(p, POINT), p)

    def test_cube_matches_ideal_in_s6(self):
        cube = product(product(EDGE, EDGE), EDGE)
        s1s3s5 = P("214365")
        assert posets.is_isomorphic(cube, bruhat.ideal(s1s3s5))


class TestIrreducibleCode:
    """The per-call store of the atlas's screen: one code per rank, each
    a flat tuple of 3n - 2 ints that spells its permutation."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_rank_matches_the_oracle(self, n):
        code = posets._irreducible_code(n)
        perm = tables.rank_table(n).perm
        for r, w in enumerate(itertools.permutations(range(1, n + 1))):
            got = code(r)
            assert got == irreducible_code_oracle(w), w
            assert posets._code_perm(got, n) == perm(r) == w
            assert code(r) is got, w
        # the store is one list of n! slots, each holding its code alone
        store, = [cell.cell_contents for cell in code.__closure__
                  if type(cell.cell_contents) is list]
        assert store == [code(r) for r in range(math.factorial(n))]


class TestParabolicSplit:
    """The split screen and the lemma behind it: an interval that splits
    by position or by value is the product of its flattened factors."""

    @pytest.mark.parametrize("n,pairs", [(4, 213), (5, 3781)])
    def test_screen_equals_prefix_sets(self, n, pairs):
        # the code fields that agree are the splits and, with them, the
        # frozen points (TestFrozenPoint); the scan certifies exactly the
        # intervals with none, and counts each ball's intervals once, its
        # bottom left out
        code = posets._irreducible_code(n)
        top = n * (n - 1) // 2
        identity = perms.identity(n)
        expected = defaultdict(set)
        count = 0
        for x in perms.all_perms(n):
            ball = up_ball(x, top - perms.length(x))
            gaps = ranks(ball)
            for yid, y in enumerate(elements(ball, n)):
                points = reducible_points(x, y)
                assert equal_code_fields(code, x, y) == points, (x, y)
                if not points:
                    cert = posets._certificate(
                        *ball.structure(ball.below[yid]))
                    expected["intervals", gaps[yid]].add(cert)
                    if x == identity:
                        expected["ideals", gaps[yid]].add(cert)
                count += 1
        assert count == pairs
        assert posets._scan_intervals(n, top, perms.all_perms(n)) == (
            expected, pairs - math.factorial(n))

    @pytest.mark.parametrize("n,splits", [(4, 268), (5, 5580)])
    def test_split_interval_is_product_of_factors(self, n, splits):
        # every split point of every pair x < y: 128 pairs of S_4 and
        # 2,404 of S_5 split
        nx = pytest.importorskip("networkx")
        checked = 0
        for x in itertools.permutations(range(1, n + 1)):
            elements = oracle_ball(x)[0]
            for y in elements[1:]:
                for kind, i in split_points(x, y):
                    (x1, y1), (x2, y2) = split_factors(x, y, kind, i)
                    product = product_digraph(
                        nx, oracle_digraph(nx, x1, y1),
                        oracle_digraph(nx, x2, y2))
                    assert nx.is_isomorphic(
                        oracle_digraph(nx, x, y), product,
                        node_match=rank_match), (x, y, kind, i)
                    checked += 1
        assert checked == splits

    @staticmethod
    def seeded_split_pairs_of_s6(count):
        """``count`` pairs x < y of S_6 that split, seeded, with a gap of
        at most 6, y drawn from ``up_ball_oracle`` of x."""
        rng = random.Random(2701)
        group = list(itertools.permutations(range(1, 7)))
        pairs = []
        while len(pairs) < count:
            x = rng.choice(group)
            depth = min(6, 15 - inversion_count(x))
            if not depth:
                continue
            y = rng.choice(up_ball_oracle(x, depth)[0][1:])
            if split_points(x, y) and (x, y) not in pairs:
                pairs.append((x, y))
        return pairs

    @pytest.mark.parametrize("n,splits", [(4, 268), (5, 5580), (6, 991)])
    def test_split_interval_deletes_iff_both_factors_do(self, n, splits):
        # the claim that [x, y] admits a factor deletion iff both
        # flattened factors do, on every split point of every pair x < y
        # of S_4 and S_5 and of 300 seeded split pairs of S_6, by position
        # and by value (the factors of x^-1 and y^-1 at i, inverted).  A
        # factor with gap 0 admits one, the empty block, and the oracle
        # says so; 0, 128 and 26 of the split pairs admit none.  The
        # combining direction has a proof sketch; this is evidence for
        # the converse, not a proof of it
        deletes = functools.cache(deletion_oracle)
        if n == 6:
            pairs = self.seeded_split_pairs_of_s6(300)
        else:
            pairs = [(x, y) for x in itertools.permutations(range(1, n + 1))
                     for y in oracle_ball(x)[0][1:]]
        checked = without = 0
        for x, y in pairs:
            whole = deletes(x, y)
            points = split_points(x, y)
            without += bool(points) and not whole
            for kind, i in points:
                (x1, y1), (x2, y2) = split_factors(x, y, kind, i)
                assert whole == (deletes(x1, y1) and deletes(x2, y2)), (
                    x, y, kind, i)
                checked += 1
        assert (checked, without) == (splits, {4: 0, 5: 128, 6: 26}[n])

    def test_products_recur_one_group_down(self):
        # every pair of intervals P of S_i and Q of S_j, i, j >= 2 and
        # n = i + j - 1 <= 5, gap 0 included: P placed on positions 1..i
        # and Q on positions i..n lie in parabolic subgroups with disjoint
        # generators, and the product of their ends spans an interval of
        # S_n isomorphic to P x Q (notes/decisions.md).  So a split
        # interval's class is already a class of the next smaller group
        nx = pytest.importorskip("networkx")
        intervals = {
            k: [(x, y) for x in itertools.permutations(range(1, k + 1))
                for y in oracle_ball(x)[0]]
            for k in (2, 3, 4)
        }
        checked = 0
        for i, j in itertools.product(intervals, repeat=2):
            n = i + j - 1
            if n > 5:
                continue
            for (x1, y1), (x2, y2) in itertools.product(
                    intervals[i], intervals[j]):
                x = times(placed(x1, 1, n), placed(x2, i, n))
                y = times(placed(y1, 1, n), placed(y2, i, n))
                assert inversion_count(y) - inversion_count(x) == (
                    inversion_count(y1) - inversion_count(x1)
                    + inversion_count(y2) - inversion_count(x2))
                if x1 == tuple(sorted(x1)) and x2 == tuple(sorted(x2)):
                    assert x == tuple(range(1, n + 1))
                assert nx.is_isomorphic(
                    oracle_digraph(nx, x, y),
                    product_digraph(nx, oracle_digraph(nx, x1, y1),
                                    oracle_digraph(nx, x2, y2)),
                    node_match=rank_match), (x1, y1, x2, y2)
                checked += 1
        assert checked == 1762

    def test_only_s2_has_an_irreducible_cover(self):
        # a cover swaps the entries a < b at positions i < j; it splits
        # unless i = 1, j = n, a = 1 and b = n, which leaves no entry
        # between them for n >= 3
        for n in range(2, 6):
            certs, examined = posets._scan_intervals(
                n, 1, itertools.permutations(range(1, n + 1)))
            assert bool(certs) == (n == 2)
            assert examined > 0


class TestFrozenPoint:
    """The frozen-point lemma and the gap bound behind the atlas's screen,
    checked over tests/oracles.py and networkx.  Position j is frozen in
    x <= y when x(j) = y(j) = v and #{l < j : x(l) > v} = #{l < j : y(l)
    > v}; then every z in [x, y] has z(j) = v, and deleting row j and
    column v maps [x, y] onto an interval of S_(n-1).  An interval with
    no frozen point has a rank gap of at least ceil(n/2)."""

    @staticmethod
    def flattened(w, j):
        return flatten(w[:j - 1] + w[j:])

    @staticmethod
    def seeded_pairs_of_s6(count):
        """``count`` pairs x <= y of S_6 with a frozen point, seeded, y of
        length at most 6: the subword oracle behind ``interval_oracle``
        enumerates all 5^length(y) words."""
        rng = random.Random(2301)
        short = [w for w in itertools.permutations(range(1, 7))
                 if inversion_count(w) <= 4]
        pairs = []
        while len(pairs) < count:
            x = rng.choice(short)
            elements = up_ball_oracle(x, 6 - inversion_count(x))[0]
            y = rng.choice(elements[1:])
            if frozen_points_oracle(x, y) and (x, y) not in pairs:
                pairs.append((x, y))
        return pairs

    @pytest.mark.parametrize("n,frozen", [(4, 180), (5, 3915), (6, 99)])
    def test_frozen_interval_keeps_its_point_and_flattens(self, n, frozen):
        # every pair x < y of S_4 and S_5 with a frozen point, and a
        # seeded sample of 40 such pairs of S_6
        nx = pytest.importorskip("networkx")
        if n == 6:
            pairs = self.seeded_pairs_of_s6(40)
        else:
            pairs = [(x, y) for x in itertools.permutations(range(1, n + 1))
                     for y in oracle_ball(x)[0][1:]]
        checked = 0
        for x, y in pairs:
            points = frozen_points_oracle(x, y)
            if not points:
                continue
            elements, whole = interval_digraph(nx, x, y)
            for j, v in points:
                assert all(z[j - 1] == v for z in elements), (x, y, j)
                _, flat = interval_digraph(
                    nx, self.flattened(x, j), self.flattened(y, j))
                assert nx.is_isomorphic(whole, flat, node_match=rank_match)
                checked += 1
        assert checked == frozen

    @pytest.mark.parametrize("n,irreducible", [
        (2, 1), (3, 4), (4, 1), (5, 40), (6, 25), (7, 174),
    ])
    def test_least_irreducible_gap_is_half_of_n(self, n, irreducible):
        # no pair with 2 * gap < n has neither a split nor a frozen point,
        # and some pair of gap ceil(n/2) has neither: the atlas's bound is
        # the least gap, not just a lower bound.  Every irreducible pair
        # at that gap, 71 over S_2-S_6 and 174 above a seeded sample of
        # 500 bottoms of S_7, is the Boolean lattice B_least, ranks
        # matched: the oracle ideal of s_1 ... s_least = 23...1.  A proof
        # is sketched for even n only; for odd n this is evidence, not a
        # proof
        nx = pytest.importorskip("networkx")
        least = -(-n // 2)
        assert posets._least_gap(n) == least
        coxeter = tuple(range(2, least + 2)) + (1,)
        cube = ball_digraph(
            nx, up_ball_oracle(tuple(sorted(coxeter)), least), coxeter)
        bottoms = list(itertools.permutations(range(1, n + 1)))
        if n == 7:
            bottoms = random.Random(2801).sample(bottoms, 500)
        found = defaultdict(int)
        for x in bottoms:
            depth = min(least, n * (n - 1) // 2 - inversion_count(x))
            ball = up_ball_oracle(x, depth)
            for y, gap in zip(ball[0][1:], ball[1][1:]):
                if not split_points(x, y) and not frozen_points_oracle(x, y):
                    found[gap] += 1
                    assert nx.is_isomorphic(
                        ball_digraph(nx, ball, y), cube,
                        node_match=rank_match), (x, y)
        assert dict(found) == {least: irreducible}

    def test_screen_on_a_seeded_sample_of_s6(self):
        rng = random.Random(2302)
        bottoms = rng.sample(list(perms.all_perms(6)), 40)
        code = posets._irreducible_code(6)
        passed = 0
        for x in bottoms:
            ball = up_ball(x, 15 - perms.length(x))
            for y in elements(ball, 6):
                points = reducible_points(x, y)
                assert equal_code_fields(code, x, y) == points, (x, y)
                passed += not points
        examined = posets._scan_intervals(6, 15, bottoms)[1]
        assert (passed, examined) == (1897, 5928 - 40)

    def test_levels_below_the_gap_bound_scan_nothing(self, monkeypatch):
        # atlas(7, 2): S_5, S_6 and S_7 cannot hold an irreducible interval
        # of gap 2 or less.  S_5 and S_6 get no bottoms and no up-ball.
        # The bottoms of S_2, S_3 and S_4 that reach the least gap get a
        # ball, the others are counted by level sizes.  S_7's bottoms are
        # fanned out only to count intervals_examined: none reaches gap
        # 4, and no S_7 up-ball is built
        fanned, balls, counted = [], set(), set()
        fan_out, ball, count = (posets._fan_out, posets.up_ball,
                                posets.count_above)
        expected = full_scan_atlas(7, 2)

        def record_fan_out(fn, args, m, jobs, greatest=False):
            fanned.append(m)
            return fan_out(fn, args, m, jobs, greatest)

        def record_ball(x, depth):
            balls.add((len(x), depth))
            return ball(x, depth)

        def record_count(x, depth):
            counted.add((len(x), depth))
            return count(x, depth)

        monkeypatch.setattr(posets, "_fan_out", record_fan_out)
        monkeypatch.setattr(posets, "up_ball", record_ball)
        monkeypatch.setattr(posets, "count_above", record_count)
        assert posets.atlas(7, 2).to_json() == expected
        assert fanned == [2, 3, 4, 7]
        assert balls == {(2, 1), (3, 2), (4, 2)}
        assert counted == {(2, 0), (3, 0), (3, 1), (4, 0), (4, 1),
                           (7, 0), (7, 1), (7, 2)}


class TestStabilizerSkip:
    """The scan certifies one top per orbit of the maps of G = {id, ι,
    κ, ικ} that fix the bottom: a map g with g(x) = x is an automorphism
    of the Bruhat order that keeps lengths, so [x, y] ≅ [x, g(y)], and
    it keeps the splits and frozen points (``notes/decisions.md``)."""

    @pytest.mark.parametrize("n,pairs", [(4, 251), (5, 2219)])
    def test_fixing_map_keeps_shape_and_verdict(self, n, pairs):
        # every x of S_n, every map of symmetries_oracle that fixes x and
        # every y > x, over tests/oracles.py and networkx alone: 251 such
        # (x, g, y) in S_4 and 2,219 in S_5
        nx = pytest.importorskip("networkx")
        checked = 0
        for x in itertools.permutations(range(1, n + 1)):
            fixing = [i for i, image in enumerate(symmetries_oracle(x))
                      if image == x]
            elements = oracle_ball(x)[0]
            for y in elements[1:]:
                for i in fixing:
                    gy = symmetries_oracle(y)[i]
                    assert gy in elements, (x, y, i)
                    assert nx.is_isomorphic(
                        oracle_digraph(nx, x, y), oracle_digraph(nx, x, gy),
                        node_match=rank_match), (x, y, i)
                    assert (not reducible_points(x, y)) == (
                        not reducible_points(x, gy)), (x, y, i)
                    checked += 1
        assert checked == pairs

    def test_skip_fires_on_the_identity_of_s5(self, monkeypatch):
        # all of G fixes the identity, so the scan certifies the least top
        # of each G-orbit of irreducible tops: fewer lookups than tops
        lookups = []
        certificate = posets._certificate

        def record(ranks, covers):
            lookups.append(ranks)
            return certificate(ranks, covers)

        monkeypatch.setattr(posets, "_certificate", record)
        identity = perms.identity(5)
        irreducible = [y for y in elements(up_ball(identity, 5), 5)[1:]
                       if not reducible_points(identity, y)]
        least = [y for y in irreducible if y == min(y, *symmetries_oracle(y))]
        posets._scan_intervals(5, 5, [identity])
        assert len(lookups) == len(least) < len(irreducible)

    @pytest.mark.parametrize("n,max_len", [(6, 6), (7, 5)])
    def test_one_atlas_call_decodes_each_rank_once(self, monkeypatch, n,
                                                   max_len):
        # the skip reads a top's permutation off the screen's code, which
        # decoded it; the row fills of RankTable.__missing__ are left out
        decoded = Counter()
        perm = tables.RankTable.perm

        def record(table, r):
            if sys._getframe(1).f_globals["__name__"] == posets.__name__:
                decoded[table.m, r] += 1
            return perm(table, r)

        monkeypatch.setattr(tables.RankTable, "perm", record)
        posets.atlas(n, max_len)
        assert {m for m, _ in decoded} == set(range(2, n + 1))
        assert max(decoded.values()) == 1

    def test_skip_equals_every_top_on_a_seeded_sample_of_s6(self):
        # the identity, a bottom fixed by each of ι, κ and ικ alone, and
        # 20 seeded bottoms of S_6
        group = list(itertools.permutations(range(1, 7)))
        rng = random.Random(3401)
        bottoms = [perms.identity(6)]
        for kind in range(3):
            alone = [x for x in group
                     if [image == x for image in symmetries_oracle(x)]
                     == [i == kind for i in range(3)]]
            bottoms.append(rng.choice(alone))
        bottoms += rng.sample(group, 20)
        assert posets._scan_intervals(6, 8, bottoms) == (
            every_top_certificates(6, 8, bottoms))


class TestIntervalStructure:
    @pytest.mark.parametrize("n", [4, 5])
    def test_table_relabel_matches_interval(self, n):
        # ball ids are rank-major, so the relabel needs no sort to number
        # each interval in its (rank, one-line) order; checked for the
        # whole-group table and for the x-local balls that the scans read.
        # The relabel leaves its covers unsorted: both sides are sorted.
        def same(struct, shape):
            ranks, covers = struct
            return (ranks, sorted(covers)) == (
                shape.ranks, sorted(shape.covers))

        gt = table(n)
        up = above(n)
        group = elements(gt, n)
        pairs = 0
        for xid, x in enumerate(group):
            for yid in iter_bits(up[xid]):
                struct = gt.structure(up[xid] & gt.below[yid])
                shape = bruhat.interval(x, group[yid])
                assert same(struct, shape)
                pairs += 1
        assert pairs == {4: 213, 5: 3781}[n]
        tops = 0
        for x in group:
            ball = up_ball(x, 3)
            above_x = elements(ball, n)
            for yid in iter_bits(ball.rank_masks[3]):
                shape = bruhat.interval(x, above_x[yid])
                assert same(ball.structure(ball.below[yid]), shape)
                tops += 1
        assert tops == sum(
            1 for x in group for y in group
            if perms.length(y) - perms.length(x) == 3
            and bruhat.bruhat_leq(x, y)
        )


class TestToDot:
    def test_diamond_counts(self):
        text = posets.to_dot(shape_of_ideal("2314"))
        assert text.count("->") == 4
        assert text.startswith("digraph poset {")
        assert "rank=same" in text

    def test_figure2_counts(self):
        iv = bruhat.interval(P("2143"), P("4231"))
        labels = [perms.format_perm(z) for z in iv.elements]
        text = posets.to_dot(iv, labels)
        assert text.count("->") == 16
        assert '"2143" -> "2341";' in text

    def test_singleton(self):
        assert posets.to_dot(POINT).count("->") == 0

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            posets.to_dot(EDGE, ["only-one"])


class TestAtlas:
    def test_single_edge_group(self):
        result = posets.atlas(2, 1)
        assert result.counts("intervals") == (1, 1)
        assert result.counts("ideals") == (1, 1)

    def test_one_full_search_per_class(self, monkeypatch):
        # a cold atlas(6, 6) certifies 904 raw shapes of 113 classes and
        # searches past the first leaf once per class
        certificate = posets._certificate
        certificate.cache_clear()
        posets._classes.cache_clear()
        searches = count_full_searches(monkeypatch)
        classes = set()

        def record(ranks, covers):
            cert = certificate(ranks, covers)
            classes.add(cert)
            return cert

        monkeypatch.setattr(posets, "_certificate", record)
        posets.atlas(6, 6)
        assert certificate.cache_info().misses == 904
        assert len(classes) == len(searches) == 113

    def test_monotone_in_n(self):
        small = posets.atlas(3, 3)
        big = posets.atlas(4, 3)
        for which in ("intervals", "ideals"):
            for a, b in zip(small.counts(which), big.counts(which)):
                assert a <= b

    def test_s4_known_row(self):
        result = posets.atlas(4, 3)
        assert result.counts("intervals") == (1, 1, 1, 3)
        assert result.counts("ideals") == (1, 1, 1, 2)

    def test_atlas_cap(self):
        # the group-size cap max_n is the atlas's only cap, checked first
        for max_len in (2, -1):
            with pytest.raises(CapExceeded, match="max_n=8"):
                posets.atlas(9, max_len)

    def test_scan_in_s9_under_a_raised_cap(self):
        # atlas(9, 1) takes seconds; its scan over a slice of the bottoms
        bottoms = list(
            itertools.islice(itertools.permutations(range(1, 10)), 20))
        certs, examined = posets._scan_intervals(9, 1, bottoms)
        assert examined == sum(len(cover_tops_oracle(x)) for x in bottoms)
        # every cover of S_9 splits, so none is certified here; the class
        # of gap 1 comes from S_2
        assert certs == {}

    def test_length_zero_scans_nothing(self, monkeypatch):
        # the row of length 0 is fixed, so S_9 answers it with no bottoms
        # and no up-ball
        def refuse(*args, **kwargs):
            raise AssertionError("atlas(n, 0) scanned")

        monkeypatch.setattr(posets, "_fan_out", refuse)
        monkeypatch.setattr(perms, "is_orbit_extreme", refuse)
        monkeypatch.setattr(posets, "up_ball", refuse)
        limits = Limits(max_n=9)
        assert posets.atlas(9, 0, limits=limits).to_json() == {
            "n": 9,
            "rows": [{"length": 0, "intervals": 1, "ideals": 1}],
            "stats": {"intervals_examined": 0, "seconds": 0.0,
                      "max_n": 9, "max_word_length": 15,
                      "max_reduced_words": 1000000},
        }

    def test_intervals_examined_counts_the_orbit_maxima(self):
        # the count covers the bottoms S_n is scanned from, the greatest
        # of each symmetry orbit, not every bottom of S_n: atlas(4, 2)
        # examines 66 of the 121 intervals of gap 1-2 in S_4
        def count(bottoms, max_len):
            return sum(0 < r <= max_len for x in bottoms
                       for r in up_ball_oracle(x, max_len)[1])

        s4 = list(itertools.permutations(range(1, 5)))
        assert count(s4, 2) == 121
        for n in range(1, 6):
            maxima = [x for x in itertools.permutations(range(1, n + 1))
                      if x == max(x, *symmetries_oracle(x))]
            for max_len in range(1, 5):
                examined = posets.atlas(n, max_len).intervals_examined
                assert examined == count(maxima, max_len), (n, max_len)

    def test_s8_rows_to_length_2(self):
        result = posets.atlas(8, 2)
        assert result.counts("intervals") == (1, 1, 1)
        assert result.counts("ideals") == (1, 1, 1)
        assert result.intervals_examined == 459926

    @pytest.mark.parametrize("n,max_len,examined,intervals,ideals", [
        (5, 5, 1275, (1, 1, 1, 3, 7, 16), (1, 1, 1, 2, 3, 4)),
        (6, 4, 14847, (1, 1, 1, 3, 7), (1, 1, 1, 2, 3)),
        (4, 0, 0, (1,), (1,)),
        (7, 3, 106514, (1, 1, 1, 3), (1, 1, 1, 2)),
    ])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_stats_pinned(self, n, max_len, examined, intervals, ideals,
                          jobs):
        # intervals_examined is part of the CLI's byte-stable output
        result = posets.atlas(n, max_len, jobs=jobs)
        assert result.counts("intervals") == intervals
        assert result.counts("ideals") == ideals
        assert result.intervals_examined == examined

    @pytest.mark.parametrize("n,expected", [
        (4, (1, 1, 1, 2, 2, 2, 1)),
        (5, (1, 1, 1, 2, 3, 4, 6, 5, 4, 2, 1)),
    ])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_ideal_rows_equal_direct_count(self, n, expected, jobs):
        # ideal classes come from the [e, y] intervals of the orbit
        # representatives; count them over all of S_n instead
        classes = [set() for _ in expected]
        for w in itertools.permutations(range(1, n + 1)):
            ideal = bruhat.ideal(w)
            classes[perms.length(w)].add(posets.canonical_form(ideal))
        assert tuple(map(len, classes)) == expected
        top = n * (n - 1) // 2
        assert posets.atlas(n, top, jobs=jobs).counts("ideals") == expected

    @pytest.mark.parametrize("n,max_len", [
        (4, 6), (5, 5), (5, 10), (6, 4), (7, 2), (7, 3), (8, 2),
    ])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_equals_full_scan(self, n, max_len, jobs):
        # building classes from the smaller groups changes no row and no
        # count of intervals examined
        result = posets.atlas(n, max_len, jobs=jobs)
        assert result.to_json() == full_scan_atlas(n, max_len)

    @pytest.mark.parametrize("jobs", [-1, 0, 2.0])
    def test_jobs_not_a_count_rejected(self, jobs):
        # the library checks what the CLI's --jobs converter checks,
        # instead of running such a value in one process
        with pytest.raises(ValueError, match="jobs must be None or an "
                                             "integer of at least 1"):
            posets.atlas(3, 2, jobs=jobs)

    @pytest.mark.parametrize("n,max_len,message", [
        (4, 2.0, "max_len must be an integer, got 2.0"),
        (4.0, 2, "invalid group size n=4.0; need n >= 1"),
        (3, True, "max_len must be an integer, got True"),
        (True, 2, "invalid group size n=True; need n >= 1"),
    ])
    def test_size_not_an_integer_rejected(self, n, max_len, message):
        # refused by name, as jobs=2.0 is, instead of reaching range()
        with pytest.raises(ValueError, match=f"^{message}$"):
            posets.atlas(n, max_len)

    def test_jobs_agree_with_sequential(self):
        seq = posets.atlas(4, 4)
        par = posets.atlas(4, 4, jobs=2)
        assert seq.rows == par.rows
        assert seq.intervals_examined == par.intervals_examined

    def test_jobs_capped_at_cpu_count(self, inline_pool):
        # a --jobs value far past the CPU count must not start that many
        # workers; the ranges are ordered, contiguous and cover the
        # positions of S_5
        par = posets.atlas(5, 3, jobs=10**6)
        assert par.to_json() == posets.atlas(5, 3).to_json()
        (pool,) = inline_pool
        assert pool.max_workers == os.cpu_count()
        assert len(pool.ranges) == 4 * os.cpu_count()
        ranges = pool.ranges
        assert ranges[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(lo < hi for lo, hi in ranges)
        assert ranges[-1][1] == 120

    @pytest.mark.parametrize("m", [5, 6])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("greatest", [False, True])
    def test_fan_out_bottoms_are_the_orbit_extremes(self, m, jobs,
                                                    greatest, inline_pool):
        # the bottoms of the ranges, in range order, are the permutations
        # of S_m extreme in their symmetry orbit, each once, in one-line
        # order, however S_m is cut
        parts = list(posets._fan_out(list, (), m, jobs, greatest))
        extreme = max if greatest else min
        assert sum(parts, []) == [
            x for x in itertools.permutations(range(1, m + 1))
            if x == extreme(x, *symmetries_oracle(x))
        ]
        assert len(parts) == (1 if jobs == 1 else 4 * jobs)
        assert len(inline_pool) == (jobs > 1)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    def test_closing_the_fan_out_stops_its_workers(self):
        # a reader that stops after the first range does not wait for the
        # ranges already running: closing terminates the workers
        started = time.monotonic()
        results = posets._fan_out(sleep_past_first_range, (), 5, 2)
        assert next(results) is None
        results.close()
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    def test_json_schema(self):
        data = posets.atlas(3, 2).to_json()
        assert data["n"] == 3
        assert data["rows"][0] == {"length": 0, "intervals": 1, "ideals": 1}
        assert data["stats"]["seconds"] == 0.0
        assert data["stats"]["max_n"] == 8
