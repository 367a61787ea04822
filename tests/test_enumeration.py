from __future__ import annotations

import random

import pytest

from transversal import Hypergraph, VertexSet
from transversal.enumeration import enumerate_incremental, enumerate_tr
from transversal.generators import bounded_rank_instance
from transversal.oracle import brute_tr

from conftest import masks, random_hypergraph


def run(h, method=enumerate_tr, **kw):
    got: list[VertexSet] = []
    stats = method(h, got.append, **kw)
    return got, stats


def test_two_disjoint_pairs_in_order():
    got, _ = run(Hypergraph(4, [(0, 1), (2, 3)]))
    assert [t.members() for t in got] == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_small_example_order():
    got, _ = run(Hypergraph(3, [(0, 1), (0, 2)]))
    assert [t.members() for t in got] == [(0,), (1, 2)]


def test_edgeless_yields_empty_set():
    got, stats = run(Hypergraph(3, []))
    assert [t.members() for t in got] == [()]
    assert stats.outputs == 1


def test_empty_edge_yields_nothing():
    got, stats = run(Hypergraph(3, [(), (0, 1)]))
    assert got == []
    assert stats.outputs == 0


def test_limit_stops_early():
    got, stats = run(Hypergraph(4, [(0, 1), (2, 3)]), limit=2)
    assert len(got) == 2
    assert stats.outputs == 2
    got, _ = run(Hypergraph(4, [(0, 1), (2, 3)]), limit=0)
    assert got == []


def test_matches_oracle_without_duplicates(corpus, corpus_tr):
    for h, want in zip(corpus[:150], corpus_tr[:150]):
        got, _ = run(h)
        assert masks(got) == masks(want)
        assert len(got) == len(masks(got))


def test_incremental_examples():
    got, _ = run(Hypergraph(4, [(0, 1), (2, 3)]), method=enumerate_incremental)
    assert masks(got) == masks(brute_tr(Hypergraph(4, [(0, 1), (2, 3)])))
    got, _ = run(Hypergraph(1, [(0,)]), method=enumerate_incremental)
    assert [t.members() for t in got] == [(0,)]
    got, _ = run(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), method=enumerate_incremental)
    assert masks(got) == masks(brute_tr(Hypergraph(3, [(0, 1), (1, 2), (0, 2)])))


def test_incremental_matches_oracle(corpus, corpus_tr):
    for h, want in zip(corpus[:80], corpus_tr[:80]):
        got, _ = run(h, method=enumerate_incremental)
        assert masks(got) == masks(want)
        assert len(got) == len(masks(got))


def test_incremental_limit():
    got, _ = run(
        Hypergraph(4, [(0, 1), (2, 3)]), method=enumerate_incremental, limit=2
    )
    assert len(got) == 2


def test_depth_never_reaches_largest_solution(corpus, corpus_tr):
    for h, tr in zip(corpus[:150], corpus_tr[:150]):
        if h.m == 0 or any(e == 0 for e in h.edge_masks()):
            continue
        kstar = max(len(t) for t in tr)
        _, stats = run(h)
        assert max(stats.x_size_histogram) <= max(0, kstar - 1)


def test_bounded_gap_between_outputs():
    # The tree search visits O(n) nodes between consecutive outputs; the
    # constant here is 3 per level (observed maximum is 1.5n).
    rng = random.Random(55)
    for _ in range(120):
        h = random_hypergraph(rng, empty_edge_p=0)
        if h.m == 0:
            continue
        _, stats = run(h)
        total = len(stats.calls)
        idx = stats.output_call_index
        gaps = [idx[0]] if idx else [total]
        gaps.extend(b - a for a, b in zip(idx, idx[1:]))
        if idx:
            gaps.append(total - idx[-1])
        assert max(gaps) <= 3 * (h.n + 1)


def test_live_state_is_one_root_to_leaf_path():
    rng = random.Random(77)
    for _ in range(60):
        h = random_hypergraph(rng)
        _, stats = run(h)
        assert stats.max_stack_depth <= h.n + 1


def test_stats_timestamps_monotone():
    _, stats = run(Hypergraph(4, [(0, 1), (2, 3)]))
    assert stats.output_ns == sorted(stats.output_ns)
    assert stats.started_ns <= stats.finished_ns
    assert stats.max_delay_ns >= 0
    payload = stats.to_json()
    assert set(payload) >= {"outputs", "max_delay_ns", "extend_call_histogram"}


def test_rejects_negative_limit():
    with pytest.raises(ValueError):
        enumerate_tr(Hypergraph(1, [(0,)]), limit=-1)


def test_br30_product_work_stays_pruned():
    # high-degree instance whose unpruned candidate product took millions of steps
    got, stats = run(bounded_rank_instance(random.Random(2), 30, 60, 3))
    assert len(got) == 8
    assert len(stats.calls) == 209
    assert stats.product_iterations <= 20_000
