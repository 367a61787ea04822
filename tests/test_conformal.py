from __future__ import annotations

import itertools
import random

import pytest

from transversal import Hypergraph, VertexSet, conformal, edge_complement, rank
from transversal.conformal import conformal_degree, is_k_conformal
from transversal.generators import bounded_degree_instance
from transversal.oracle import brute_conformal_degree

from conftest import random_hypergraph

TRIANGLE = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
SINGLETONS = Hypergraph(3, [(2,), (0,), (1,)])


def counterexample_is_valid(h: Hypergraph, s: VertexSet, k: int) -> bool:
    """Every subset of s with at most k vertices fits inside an edge, but
    s itself fits in none."""
    members = s.members()
    for size in range(0, min(k, len(members)) + 1):
        for combo in itertools.combinations(members, size):
            sub = VertexSet.from_iterable(h.n, combo)
            if not any(sub.mask & ~e == 0 for e in h.edge_masks()):
                return False
    return not any(s.mask & ~e == 0 for e in h.edge_masks())


def test_triangle_counterexample():
    verdict = is_k_conformal(TRIANGLE, 2)
    assert not verdict.ok and not verdict
    assert verdict.counterexample == VertexSet.of(3, 0, 1, 2)
    assert counterexample_is_valid(TRIANGLE, verdict.counterexample, 2)


def test_single_edge_is_1_conformal():
    verdict = is_k_conformal(Hypergraph(3, [(0, 1, 2)]), 1)
    assert verdict.ok and verdict


def test_singleton_edges():
    assert is_k_conformal(SINGLETONS, 2).ok
    verdict = is_k_conformal(SINGLETONS, 1)
    assert not verdict.ok
    assert counterexample_is_valid(SINGLETONS, verdict.counterexample, 1)


def test_conformal_degree_examples():
    assert conformal_degree(Hypergraph(3, [(0, 1, 2)])) == 1
    assert conformal_degree(TRIANGLE) == 3
    assert conformal_degree(SINGLETONS) == 2


def test_k2_conformality_examples():
    assert not is_k_conformal(TRIANGLE, 2).ok
    assert is_k_conformal(Hypergraph(3, [(0, 1, 2)]), 2).ok
    assert is_k_conformal(Hypergraph(4, [(0, 1), (2, 3)]), 2).ok


def test_rejects_k_zero():
    with pytest.raises(ValueError):
        is_k_conformal(TRIANGLE, 0)


def test_matches_oracle_for_all_k():
    rng = random.Random(61)
    for _ in range(60):
        h = random_hypergraph(rng, n_max=6, m_max=8)
        degree = brute_conformal_degree(h)
        assert conformal_degree(h) == degree
        for k in range(1, h.n + 2):
            verdict = is_k_conformal(h, k)
            assert verdict.ok == (k >= degree)
            if not verdict.ok:
                assert counterexample_is_valid(h, verdict.counterexample, k)
                # counterexamples are always strictly larger than k
                assert len(verdict.counterexample) > k


def test_edgeless_is_1_conformal():
    assert conformal_degree(Hypergraph(4, [])) == 1
    assert conformal_degree(Hypergraph(0, [])) == 1


def test_answers_never_build_a_k_section(monkeypatch, corpus):
    """Both answers come from the rank deciders on the edge complement; the
    k-section and its clique listing, which stall on conf16 at k = 5, are
    never built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("conformality answered through the k-section")

    for name in ("k_section", "enumerate_maximal_cliques", "enumerate_maximal_hypercliques"):
        monkeypatch.setattr(conformal, name, forbidden)
    for h in corpus:
        if h.n > 6:
            continue
        degree = brute_conformal_degree(h)
        assert conformal_degree(h) == degree, h
        for k in range(1, h.n + 2):
            verdict = is_k_conformal(h, k)
            assert verdict.ok == (k >= degree), (h, k)
            if not verdict.ok:
                assert counterexample_is_valid(h, verdict.counterexample, k)
    conf16 = edge_complement(bounded_degree_instance(random.Random(3), 16, 30, 3))
    assert conformal_degree(conf16) == 5
    verdict = is_k_conformal(conf16, 4)
    assert not verdict.ok
    assert counterexample_is_valid(conf16, verdict.counterexample, 4)


def test_degree_never_calls_a_decider(monkeypatch, corpus):
    """conformal_degree takes the complement's rank from the tree search;
    the rank deciders are left to the k-test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("conformal degree asked a rank decider")

    for name in ("rank_at_least_lookahead", "rank_at_least_bd"):
        monkeypatch.setattr(rank, name, forbidden)
    for h in corpus:
        if h.n <= 6:
            assert conformal_degree(h) == brute_conformal_degree(h), h
    conf16 = edge_complement(bounded_degree_instance(random.Random(3), 16, 30, 3))
    assert conformal_degree(conf16) == 5
