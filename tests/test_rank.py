from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import fields
from math import comb

import pytest

from transversal import Hypergraph, VertexSet, edge_complement, minimize_edges
from transversal import rank
from transversal.conformal import conformal_degree
from transversal.extension import find_higher_order
from transversal.generators import (
    bounded_degree_instance,
    bounded_rank_instance,
    uniform_instance,
)
from transversal.hitting import is_hitting_set, is_minimal_hitting_set, minimize
from transversal.rank import (
    RankWitness,
    _irredundant_seeds,
    rank_at_least,
    rank_at_least_bd,
    rank_at_least_lookahead,
    transversal_rank,
)
from transversal.oracle import brute_rank, brute_tr

from conftest import build_corpus, random_hypergraph, unsift

MATCHING3 = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])


def bd40():
    return bounded_degree_instance(random.Random(1), 40, 80, 4)


def br30():
    return bounded_rank_instance(random.Random(2), 30, 60, 3)


def fresh_state(h, seed):
    """(uncov, crit) of a seed by direct counting over every edge."""
    uncov, crit = 0, [0] * len(seed)
    for idx, e in enumerate(h.edge_masks()):
        hit = [i for i, v in enumerate(seed) if e >> v & 1]
        if not hit:
            uncov |= 1 << idx
        elif len(hit) == 1:
            crit[hit[0]] |= 1 << idx
    return uncov, crit


def colex_combinations(n: int, size: int) -> list[tuple[int, ...]]:
    """All size-subsets of range(n) in colexicographic order: the
    reference order of both scans' colex walk."""
    return sorted(itertools.combinations(range(n), size), key=lambda c: c[::-1])


def keeps_private(h, seed, v) -> bool:
    """Whether v has a private edge in ``seed``: one meeting it only in v."""
    others = VertexSet.from_iterable(h.n, seed).without_vertex(v)
    return any(v in e and e.isdisjoint(others) for e in h.edges)


def irredundant_colex(h, size):
    """The size-subsets in which every member keeps a private edge, in
    colex order, each with its ``fresh_state``: the plain scan that the
    seed walk filters."""
    return [
        (seed, fresh_state(h, seed))
        for seed in colex_combinations(h.n, size)
        if all(keeps_private(h, seed, v) for v in seed)
    ]


def count_cut(h, seed, k) -> bool:
    """Whether the uncovered-edge count cut drops ``seed`` asked for k:
    some prefix P of its highest members has fewer than k - |P|
    uncovered edges."""
    return any(
        fresh_state(h, seed[-i:])[0].bit_count() < k - i for i in range(1, len(seed) + 1)
    )


def interval_cut(h, seed) -> bool:
    """Whether the interval cut drops ``seed``: some prefix P of its
    highest members leaves an edge uncovered that meets no vertex above
    the top member nor, while members are still to come, below P's
    lowest one."""
    for i in range(1, len(seed) + 1):
        prefix = seed[-i:]
        for e in h.edges:
            if any(v in e for v in prefix):
                continue
            if not any(u > seed[-1] or (i < len(seed) and u < prefix[0]) for u in e):
                return True
    return False


def in_order_within(items, seq) -> bool:
    """Whether ``items`` is a subsequence of ``seq``."""
    rest = iter(seq)
    return all(any(item == other for other in rest) for item in items)


def test_colex_order(corpus):
    assert list(colex_combinations(4, 2)) == [
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 3),
        (1, 3),
        (2, 3),
    ]
    assert list(colex_combinations(3, 0)) == [()]
    assert list(colex_combinations(2, 3)) == []
    # the seed walk visits its seeds in strictly increasing colex order
    for h in corpus:
        for k in range(2, h.n + 4):
            keys = [seed[::-1] for seed, _ in _irredundant_seeds(h, k)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (h, k)


class TestLookahead:
    def test_three_matchings(self):
        w = rank_at_least_lookahead(MATCHING3, 3)
        assert w is not None
        assert len(w.t) >= 3
        assert is_minimal_hitting_set(MATCHING3, w.t)
        assert w.seed is not None and w.seed <= w.t
        assert w.t <= w.cover
        # the chosen candidate private edge meets the seed exactly in it
        for v, e in zip(w.seed, w.chosen_edges):
            assert (e & w.seed).members() == (v,)

    def test_two_matchings_no(self):
        assert rank_at_least_lookahead(Hypergraph(4, [(0, 1), (2, 3)]), 3) is None

    def test_single_edge(self):
        h = Hypergraph(1, [(0,)])
        w = rank_at_least_lookahead(h, 1)
        assert w is not None and w.t.members() == (0,)
        assert rank_at_least_lookahead(h, 2) is None

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            rank_at_least_lookahead(Hypergraph(2, [()]), 1)

    def test_edgeless_conventions(self):
        h = Hypergraph(3, [])
        assert rank_at_least_lookahead(h, 0).t == VertexSet(3)
        assert rank_at_least_lookahead(h, 1) is None

    def test_seed_walk_is_filtered_colex(self, corpus):
        """Asked for k, the walk is the plain scan of (k-2)-subsets less
        the seeds that the count cut or the interval cut drops, each with
        its own edge classification."""
        for h in corpus:
            for k in range(2, h.n + 4):
                want = [
                    (seed, state)
                    for seed, state in irredundant_colex(h, k - 2)
                    if not count_cut(h, seed, k) and not interval_cut(h, seed)
                ]
                assert list(_irredundant_seeds(h, k)) == want, (h, k)

    def test_targeted_walk_keeps_every_succeeding_seed(self, corpus, corpus_tr):
        """Asked for k, the walk yields seeds of the plain scan
        (``irredundant_colex``), in order, each with its plain state.  It
        drops no seed that is the k - 2 lowest vertices of a minimal
        hitting set of k or more vertices (``brute_tr``), its first
        ``find_higher_order`` hit is the plain scan's, and on each
        bounded-rank input the interval cut drops some seed that the
        uncovered-edge count cut keeps."""

        def first_hit(h, walk):
            for seed, state in walk:
                found = find_higher_order(h, VertexSet.from_iterable(h.n, seed), state=state)
                if found is not None:
                    return seed, found
            return None

        rng = random.Random(8)
        cases = [
            (h, tr) for h, tr in zip(corpus, corpus_tr) if h.m and all(h.edge_masks())
        ]
        for _ in range(30):
            h = uniform_instance(rng, rng.randint(6, 10), rng.randint(8, 24), 3)
            cases.append((h, brute_tr(h)))
        ranked = []
        for _ in range(4):
            n = rng.randint(10, 14)
            h = bounded_rank_instance(rng, n, rng.randint(n, 3 * n), rng.randint(2, 4))
            ranked.append(h)
            cases.append((h, brute_tr(h)))
        cut = 0
        interval_drops = Counter()
        for h, tr in cases:
            for k in range(2, h.n + 2):
                plain = irredundant_colex(h, k - 2)
                targeted = list(_irredundant_seeds(h, k))
                assert in_order_within(targeted, plain), (h, k)
                kept = {seed for seed, _ in targeted}
                lowest = {t.members()[: k - 2] for t in tr if len(t) >= k}
                assert lowest <= kept, (h, k, lowest - kept)
                assert first_hit(h, targeted) == first_hit(h, plain), (h, k)
                cut += len(plain) - len(targeted)
                interval_drops[id(h)] += sum(
                    seed not in kept and not count_cut(h, seed, k) for seed, _ in plain
                )
        assert cut > 1_000
        assert all(interval_drops[id(h)] for h in ranked)

    def test_matches_full_colex_scan(self, corpus):
        """The seed skip keeps the first hit of the plain colex scan."""
        for h in corpus:
            if h.m == 0 or any(e == 0 for e in h.edge_masks()):
                continue
            n, full = h.n, (1 << h.n) - 1
            for k in range(2, n + 2):
                want = None
                for seed_tuple in colex_combinations(n, k - 2):
                    seed = VertexSet.from_iterable(n, seed_tuple)
                    want = find_higher_order(h, seed)
                    if want is not None:
                        break
                got = rank_at_least_lookahead(h, k)
                assert (got is None) == (want is None), (h, k)
                if got is None:
                    continue
                union = 0
                for i in want.edge_indices:
                    union |= h.edge_masks()[i]
                cover = VertexSet(n, seed.mask | (full & ~(want.forced.mask | union)))
                assert got.seed == seed, (h, k)
                assert got.chosen_edges == tuple(h.edges[i] for i in want.edge_indices)
                assert got.forced == want.forced
                assert got.cover == cover
                assert got.t == minimize(h, cover)

    def test_exact_rank_skips_redundant_seeds(self, monkeypatch):
        # the plain colex scan made 39,284 find_higher_order calls here,
        # the walk with only the uncovered-edge count cut 1,211, and with
        # the dead-prefix cut 1,008 over 17,760 prefixes; the interval cut
        # replaced the dead-prefix cut
        calls = 0
        real = rank.find_higher_order

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(rank, "find_higher_order", counted)
        counters: Counter = Counter()
        ranks = [
            transversal_rank(
                uniform_instance(random.Random(s), 16, 40, 3),
                method="lookahead",
                counters=counters,
            )
            for s in range(4)
        ]
        assert ranks == [11, 10, 10, 11]
        assert calls == 106
        # the prefixes the seed walks built, seeds included
        assert counters["lookahead_prefixes"] == 7_048

    def test_br30_work_counts(self, monkeypatch):
        # br30's rank is 18: per k, the answer and the find_higher_order
        # calls, seed-walk prefixes and product iterations it took
        calls = 0
        real = rank.find_higher_order

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(rank, "find_higher_order", counted)
        h = br30()
        for k, yes, want in ((18, True, (393, 10_749, 810)), (19, False, (218, 10_873, 374))):
            calls = 0
            counters: Counter = Counter()
            assert (rank_at_least_lookahead(h, k, counters=counters) is not None) == yes
            got = (calls, counters["lookahead_prefixes"], counters["product_iterations"])
            assert got == want, k


class TestEdgeFamilyRoute:
    def test_three_matchings(self):
        w = rank_at_least_bd(MATCHING3, 3)
        assert w is not None
        assert len(w.t) == 3
        assert is_minimal_hitting_set(MATCHING3, w.t)
        assert len(w.edge_family) == 3
        assert w.overlap == VertexSet(6)

    def test_triangle_no(self):
        assert rank_at_least_bd(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 3) is None

    def test_fewer_edges_than_k(self):
        assert rank_at_least_bd(Hypergraph(1, [(0,)]), 3) is None

    def test_first_family_of_the_colex_scan(self):
        """The pruned walk certifies the first family of the plain colex
        scan whose pairwise overlaps hold no minimal edge."""
        rng = random.Random(3)
        for _ in range(40):
            h = random_hypergraph(rng, n_max=6, m_max=8, empty_edge_p=0)
            if h.m == 0:
                continue
            hs = minimize_edges(h)
            masks = hs.edge_masks()
            for k in range(2, h.n + 2):
                want = None
                for family in colex_combinations(hs.m, k):
                    overlap = 0
                    for a, b in itertools.combinations(family, 2):
                        overlap |= masks[a] & masks[b]
                    if not any(e & ~overlap == 0 for e in masks):
                        overlap_set = VertexSet(h.n, overlap)
                        want = RankWitness(
                            t=minimize(h, overlap_set.complement()),
                            edge_family=tuple(hs.edges[i] for i in family),
                            overlap=overlap_set,
                        )
                        break
                # every field: t, edge_family and overlap
                assert rank_at_least_bd(h, k) == want, (h, k)

    def test_exact_rank_scan_work_counts(self):
        # the exact rank's k-scan, in overlap tests; the unpruned walk's
        # bound is the sum over i <= k of C(m', i)
        for h, want_rank, want_tests in (
            (bounded_rank_instance(random.Random(0), 20, 40, 3), 15, 47),
            (bounded_degree_instance(random.Random(1), 40, 80, 4), 9, 646),
        ):
            counters: Counter = Counter()
            k = 1
            while rank_at_least_bd(h, k, counters=counters) is not None:
                k += 1
            assert k - 1 == want_rank
            assert counters["bd_entries_touched"] == want_tests

    def test_intersection_budget(self):
        rng = random.Random(9)
        for _ in range(40):
            h = random_hypergraph(rng, n_max=7, m_max=9, empty_edge_p=0)
            if h.m == 0:
                continue
            ms = minimize_edges(h).m
            for k in range(2, h.n + 2):
                counters: Counter = Counter()
                rank_at_least_bd(h, k, counters=counters)
                bound = sum(comb(ms, i) for i in range(1, k + 1))
                assert counters["bd_entries_touched"] <= bound

    def test_family_traps_no_edge(self):
        rng = random.Random(13)
        for _ in range(60):
            h = random_hypergraph(rng, n_max=7, m_max=9, empty_edge_p=0)
            if h.m == 0:
                continue
            for k in range(3, h.n + 2):
                w = rank_at_least_bd(h, k)
                if w is None:
                    continue
                # every edge keeps a vertex outside the pairwise overlaps
                assert all(
                    e.mask & ~w.overlap.mask for e in h.edges
                )


def test_both_deciders_match_oracle():
    rng = random.Random(21)
    for _ in range(60):
        h = random_hypergraph(rng, n_max=7, m_max=9, empty_edge_p=0)
        if h.m == 0:
            continue
        want = brute_rank(h)
        for k in range(0, h.n + 2):
            assert (rank_at_least_lookahead(h, k) is not None) == (want >= k)
            assert (rank_at_least_bd(h, k) is not None) == (want >= k)


def test_transversal_rank_examples():
    assert transversal_rank(Hypergraph(3, [])) == 0
    assert transversal_rank(Hypergraph(4, [(0, 1), (2, 3)])) == 2
    assert transversal_rank(MATCHING3) == 3
    assert transversal_rank(MATCHING3, method="lookahead") == 3
    assert transversal_rank(MATCHING3, method="bd") == 3
    with pytest.raises(ValueError):
        transversal_rank(Hypergraph(2, [(), (0,)]))


def test_transversal_rank_unknown_method():
    # rejected before the scan, which an empty universe would skip
    for h in (Hypergraph(0, []), MATCHING3):
        for method in ("guess", "oracle"):
            with pytest.raises(ValueError, match="unknown rank method"):
                transversal_rank(h, method=method)


def test_rank_at_least_unknown_method():
    with pytest.raises(ValueError):
        rank_at_least(MATCHING3, 2, method="guess")


def test_duality_with_conformal_degree():
    rng = random.Random(29)
    for _ in range(40):
        h = random_hypergraph(rng, n_max=6, m_max=8, empty_edge_p=0)
        if h.m == 0:
            continue
        # the look-ahead scan against the tree search behind conformal_degree
        assert transversal_rank(h, method="lookahead") == conformal_degree(
            edge_complement(h)
        )


class TestTreeRank:
    """The default exact rank: one pruned walk of the enumeration tree."""

    @staticmethod
    def check(h):
        witness = rank._largest_by_tree(h, Counter())
        assert is_minimal_hitting_set(h, witness.t), h
        assert transversal_rank(h) == len(witness.t)
        return len(witness.t)

    def test_matches_oracle_on_corpus(self, corpus):
        for h in corpus:
            if any(e == 0 for e in h.edge_masks()):
                continue
            assert self.check(h) == brute_rank(h), h

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(300):
            h = random_hypergraph(rng, n_max=12, m_max=16, empty_edge_p=0)
            assert self.check(h) == brute_rank(h), h

    def test_matches_deciders(self):
        # each decider where it answers within seconds: on uniform_instance
        # the edge-family route answers k = 10 in 0.2 s but its k = 12 "no"
        # takes about 9 s, and on br30 the look-ahead's scan takes about
        # 5 s (a CI step runs it)
        for s, want in zip(range(4), [11, 10, 10, 11]):
            h = uniform_instance(random.Random(s), 16, 40, 3)
            assert self.check(h) == want
            assert transversal_rank(h, method="lookahead") == want
        h = br30()
        assert self.check(h) == 18
        assert transversal_rank(h, method="bd") == 18
        h = bd40()
        assert self.check(h) == 9
        assert transversal_rank(h, method="bd") == 9
        assert transversal_rank(h, method="lookahead") == 9

    def test_work_counts(self, monkeypatch):
        conf16 = edge_complement(bounded_degree_instance(random.Random(3), 16, 30, 3))
        cases = (
            (bd40(), 9, 907, 494, 1_252, 1_255),
            (br30(), 18, 18, 3, 17, 17),
            # the tree conformal_degree(conf16) walks
            (edge_complement(conf16), 5, 158, 74, 195, 198),
        )

        def check(h, want, nodes, pruned, product):
            counters: Counter = Counter()
            assert transversal_rank(h, counters=counters) == want
            assert counters["tree_nodes"] == nodes
            assert counters["tree_pruned"] == pruned
            # the walk's extension work reaches the caller's counter
            assert counters["product_iterations"] == product

        for h, want, nodes, pruned, product, _ in cases:
            check(h, want, nodes, pruned, product)
        # the same walk over the plain odometer: only the product count
        # moves, and only where the sift dropped a candidate
        unsift(monkeypatch)
        for h, want, nodes, pruned, _, plain in cases:
            check(h, want, nodes, pruned, plain)


def test_decider_scan_jumps_past_each_witness(monkeypatch):
    asked = []
    real = rank.rank_at_least_lookahead

    def counted(h, k, **kwargs):
        asked.append(k)
        return real(h, k, **kwargs)

    monkeypatch.setattr(rank, "rank_at_least_lookahead", counted)
    h = uniform_instance(random.Random(0), 16, 40, 3)
    assert transversal_rank(h, method="lookahead") == 11
    # the plain scan asked k = 1, 2, ..., 12
    assert asked == [1, 10, 12]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _witness_fields(w):
    """Every field of a witness in declaration order, each set as its mask
    and each tuple of sets as a tuple of masks."""
    if w is None:
        return None
    out = []
    for f in fields(w):
        v = getattr(w, f.name)
        if isinstance(v, VertexSet):
            v = v.mask
        elif v is not None:
            v = tuple(e.mask for e in v)
        out.append(v)
    return tuple(out)


def test_golden_outputs_over_the_corpus():
    # pinned results of minimize and of both deciders, tie-breaks and
    # witness fields included, so a rewrite of either core keeps them
    rng = random.Random(2026)
    minimized, witnesses = [], []
    for h in build_corpus():
        if h.m == 0 or any(e == 0 for e in h.edge_masks()):
            continue
        for _ in range(4):
            s = VertexSet(h.n, rng.getrandbits(h.n))
            if not is_hitting_set(h, s):
                s = VertexSet.full(h.n)
            minimized.append(minimize(h, s).mask)
        for k in range(2, h.n + 2):
            witnesses.append(
                (
                    _witness_fields(rank_at_least_bd(h, k)),
                    _witness_fields(rank_at_least_lookahead(h, k)),
                )
            )
    assert len(minimized) == 1_512
    assert _digest(minimized) == "66504e0c58a4ec7c"
    assert len(witnesses) == 1_713
    assert _digest(witnesses) == "c7e1294db668056c"
