from __future__ import annotations

import random
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet, rank
from transversal.hitting import is_minimal_hitting_set, is_minimal_mask
from transversal.oracle import brute_tr
from transversal.verify import (
    Equal,
    MissingSolution,
    NotSubset,
    verify_tr,
)

from conftest import masks, random_hypergraph


def test_equal_pair():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    g = Hypergraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert verify_tr(g, h).equal


def test_missing_solution_extraction():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    g = Hypergraph(4, [(0, 2), (0, 3), (1, 2)])
    outcome = verify_tr(g, h)
    assert isinstance(outcome, MissingSolution)
    assert outcome.s == VertexSet.of(4, 0, 2)
    assert outcome.t == VertexSet.of(4, 1, 3)
    assert outcome.t.mask not in masks(g.edges)
    assert is_minimal_hitting_set(h, outcome.t)


def test_not_subset():
    h = Hypergraph(2, [(0, 1)])
    g = Hypergraph(2, [(0, 1)])  # redundant pair: not minimal for h
    outcome = verify_tr(g, h)
    assert isinstance(outcome, NotSubset)
    # direct transcription: a set missing the only edge
    g2 = Hypergraph(4, [(2,)])
    h2 = Hypergraph(4, [(0, 1)])
    assert isinstance(verify_tr(g2, h2), NotSubset)


def test_universe_mismatch():
    with pytest.raises(ValueError):
        verify_tr(Hypergraph(2, []), Hypergraph(3, []))


def test_degenerate_pairs():
    # the transversal hypergraph of an edgeless input is the empty set alone
    assert verify_tr(Hypergraph(3, [()]), Hypergraph(3, [])).equal
    assert not verify_tr(Hypergraph(3, []), Hypergraph(3, [])).equal
    # an empty edge in H kills every hitting set
    assert verify_tr(Hypergraph(3, []), Hypergraph(3, [()])).equal


def test_equal_iff_oracle_set_equality(corpus, corpus_tr):
    rng = random.Random(91)
    for h, tr in zip(corpus[:70], corpus_tr[:70]):
        g = Hypergraph(h.n, tr)
        assert verify_tr(g, h).equal
        # random mutation: drop one solution
        if tr:
            keep = list(tr)
            keep.pop(rng.randrange(len(keep)))
            outcome = verify_tr(Hypergraph(h.n, keep), h)
            assert isinstance(outcome, MissingSolution)
            assert outcome.t.mask in masks(tr) - masks(keep)


def test_extraction_is_always_new(corpus, corpus_tr):
    rng = random.Random(93)
    for h, tr in zip(corpus[:60], corpus_tr[:60]):
        if not tr:
            continue
        keep = [t for t in tr if rng.random() < 0.6]
        if len(keep) == len(tr):
            keep = keep[:-1]
        outcome = verify_tr(Hypergraph(h.n, keep), h)
        assert isinstance(outcome, MissingSolution)
        assert outcome.t.mask not in masks(keep)
        assert outcome.t.mask in masks(tr)


def test_g_output_counter_bound():
    """The G-solutions that pass are distinct edges of H, so at most m+1
    are examined, whether G is complete or one solution short."""
    rng = random.Random(95)
    examined = 0
    for _ in range(30):
        h = random_hypergraph(rng, n_max=6, m_max=6, empty_edge_p=0)
        tr = brute_tr(h)
        pairs = [Hypergraph(h.n, tr)]
        if tr:
            keep = list(tr)
            keep.pop(rng.randrange(len(keep)))
            pairs.append(Hypergraph(h.n, keep))
        for g in pairs:
            counters: Counter = Counter()
            verify_tr(g, h, counters=counters)
            assert counters["verify_g_outputs"] <= len(h.edge_mask_set()) + 1
            examined += counters["verify_g_outputs"]
    assert examined > 0


def test_verification_calls_no_rank_decider(monkeypatch, corpus, corpus_tr):
    """The dual check alone decides: G's minimal hitting sets come from the
    tree search, never from a rank decider."""

    def forbidden(*args, **kwargs):
        raise AssertionError("verification asked a rank decider")

    for name in ("rank_at_least", "rank_at_least_lookahead", "rank_at_least_bd"):
        monkeypatch.setattr(rank, name, forbidden)
    rng = random.Random(97)
    for h, tr in zip(corpus[:70], corpus_tr[:70]):
        assert verify_tr(Hypergraph(h.n, tr), h).equal
        if tr:
            keep = list(tr)
            keep.pop(rng.randrange(len(keep)))
            outcome = verify_tr(Hypergraph(h.n, keep), h)
            assert isinstance(outcome, MissingSolution)
            assert outcome.t.mask in masks(tr) - masks(keep)


def test_subset_check_names_the_first_failing_edge():
    """Check 1 tests each edge of G against all of H's edges at once; it
    names the same edge of G as a loop over ``is_minimal_mask``, and
    otherwise the dual check answers."""
    rng = random.Random(99)
    pairs = [
        (Hypergraph(0, []), Hypergraph(0, [])),
        (Hypergraph(0, [()]), Hypergraph(0, [])),
        (Hypergraph(0, [()]), Hypergraph(0, [()])),
        (Hypergraph(3, [(0,), ()]), Hypergraph(3, [])),
        (Hypergraph(3, [(1, 2), (0,)]), Hypergraph(3, [(), (0, 1)])),
    ]
    for _ in range(400):
        h = random_hypergraph(rng, n_max=8, m_max=10, empty_edge_p=0.05)
        if rng.random() < 0.1:
            h = Hypergraph(h.n, [])
        tr = [t.mask for t in brute_tr(h)]
        pool = tr + [rng.getrandbits(h.n) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pool)
        g = Hypergraph(h.n, [VertexSet(h.n, t) for t in pool[: rng.randint(0, len(pool))]])
        pairs.append((g, h))
    failing = 0
    for g, h in pairs:
        want = next(
            (ge for ge in g.edge_masks() if not is_minimal_mask(h.edge_masks(), ge)), None
        )
        outcome = verify_tr(g, h)
        if want is None:
            assert isinstance(outcome, (Equal, MissingSolution)), (g, h)
            assert outcome.equal == (masks(g.edges) == masks(brute_tr(h))), (g, h)
        else:
            assert outcome == NotSubset(VertexSet(h.n, want)), (g, h)
            failing += 1
    assert 100 < failing < len(pairs) - 100
