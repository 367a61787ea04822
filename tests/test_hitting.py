from __future__ import annotations

import random
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet
from transversal.hitting import (
    is_hitting_set,
    is_minimal_hitting_set,
    minimize,
)
from transversal.oracle import brute_tr

from conftest import random_hypergraph


def test_is_hitting_set_examples():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    assert is_hitting_set(h, VertexSet.of(4, 0, 2))
    assert not is_hitting_set(h, VertexSet.of(4, 0, 1))
    assert is_hitting_set(Hypergraph(0, []), VertexSet(0))


def test_empty_edge_defeats_everything():
    h = Hypergraph(2, [(), (0,)])
    assert not is_hitting_set(h, VertexSet.full(2))


def private_edges(h, t):
    """Each vertex of t mapped to the indices of its private edges."""
    return {
        v: [i for i, e in enumerate(h.edges) if (e & t).members() == (v,)]
        for v in t
    }


def test_minimality_with_private_report():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    t = VertexSet.of(3, 0, 1)
    assert is_minimal_hitting_set(h, t)
    assert private_edges(h, t) == {0: [2], 1: [1]}


def test_shared_only_edge_is_not_minimal():
    h = Hypergraph(2, [(0, 1)])
    assert not is_minimal_hitting_set(h, VertexSet.of(2, 0, 1))
    assert private_edges(h, VertexSet.of(2, 0, 1)) == {0: [], 1: []}


def test_single_vertex_single_edge():
    h = Hypergraph(1, [(0,)])
    assert is_minimal_hitting_set(h, VertexSet.of(1, 0))


def test_predicates_match_their_definitions_on_every_subset(corpus):
    """On every corpus instance with n <= 8, including the empty universe,
    empty edges and edgeless inputs, the packed-lane minimality test
    accepts exactly ``brute_tr(h)`` and the hitting test exactly the sets
    meeting every edge."""
    checked = 0
    for h in corpus:
        tr = {t.mask for t in brute_tr(h)}
        for mask in range(1 << h.n):
            t = VertexSet(h.n, mask)
            assert is_minimal_hitting_set(h, t) == (mask in tr), (h, mask)
            assert is_hitting_set(h, t) == all(e & t for e in h.edges), (h, mask)
            checked += 1
    assert checked > 30_000


class TestMinimize:
    def test_triangle_tie_break(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        assert minimize(h, VertexSet.full(3)).members() == (1, 2)

    def test_already_minimal(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        s = VertexSet.of(4, 0, 2)
        assert minimize(h, s) == s

    def test_forced_private_edge(self):
        h = Hypergraph(2, [(0,)])
        assert minimize(h, VertexSet.of(2, 0, 1)).members() == (0,)

    def test_rejects_non_hitting_input(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            minimize(h, VertexSet.of(4, 0, 1))

    def test_random_results_are_minimal_hitting_subsets(self):
        rng = random.Random(97)
        done = 0
        while done < 120:
            h = random_hypergraph(rng, n_max=10, m_max=14, empty_edge_p=0)
            extra = VertexSet.from_iterable(
                h.n, (v for v in range(h.n) if rng.random() < 0.7)
            )
            s = VertexSet(h.n, extra.mask)
            if not is_hitting_set(h, s):
                continue
            done += 1
            t = minimize(h, s)
            assert t <= s
            assert is_minimal_hitting_set(h, t)

    def test_adjacency_work_bound(self):
        rng = random.Random(101)
        for _ in range(80):
            h = random_hypergraph(rng, n_max=10, m_max=14, empty_edge_p=0)
            s = VertexSet.full(h.n)
            counters: Counter = Counter()
            minimize(h, s, counters=counters)
            assert counters["adjacency_touches"] <= 4 * h.m * max(1, len(s))

    def test_deterministic(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3), (1, 4), (0, 4)])
        runs = {minimize(h, VertexSet.full(5)).mask for _ in range(5)}
        assert len(runs) == 1
