"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 10 checks the delay bound on the degree sweep it was written
for: 18 vertices, largest minimal hitting set k* = 3, maximum degree
Delta in {2, 4, 8}, each at m = 3 * Delta edges, plus the stated m = 40
at its least realizable degree, 14.  The sweep was first stated with
m = 40 for every Delta, but no hypergraph has those parameters: a minimal
hitting set of at most 3 vertices touches all 40 edges, so some vertex
has degree at least ceil(40/3) = 14.  The paper bounds the delay from
above, so the criterion asserts that bound in machine-independent work
counts (extend calls and product iterations per gap) and prints wall
time without asserting any ordering on it.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from collections import Counter
from math import comb

import pytest

from transversal import Hypergraph, VertexSet, edge_complement, minimize_edges
from transversal.cliques import enumerate_maximal_cliques, enumerate_maximal_hypercliques
from transversal.conformal import conformal_degree, is_k_conformal
from transversal.enumeration import enumerate_tr
from transversal.extension import extend
from transversal.generators import delay_trend_instance
from transversal.hitting import is_minimal_hitting_set, minimize
from transversal.oracle import (
    brute_conformal_degree,
    brute_extensions,
    brute_max_cliques,
)
from transversal.rank import rank_at_least_bd, rank_at_least_lookahead
from transversal.verify import MissingSolution, NotSubset, verify_tr

from conftest import log_extend_calls, logged_run, masks, walk_raw_edges


def has_empty_edge(h: Hypergraph) -> bool:
    return any(e == 0 for e in h.edge_masks())


@pytest.fixture(scope="module")
def enum_runs(corpus):
    """One streamed enumeration per corpus instance: its outputs, its
    statistics and its extend calls cut into gap windows (``logged_run``)."""
    with pytest.MonkeyPatch.context() as mp:
        log = log_extend_calls(mp)
        return [logged_run(log, h) for h in corpus]


def test_c01_enumeration_correctness(corpus):
    from transversal.oracle import brute_tr

    started = time.monotonic()
    assert len(corpus) >= 500
    for h in corpus:
        want = brute_tr(h)
        got: list[VertexSet] = []
        enumerate_tr(h, got.append)
        assert masks(got) == masks(want), h
        assert len(got) == len(masks(got)), h  # zero duplicates
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\n[acceptance] criterion 1 (enumeration = brute force, no duplicates): "
        f"PASS ({len(corpus)} instances, {elapsed:.2f}s)"
    )


def test_c02_lookahead_depth_bound(corpus, corpus_tr, enum_runs):
    checked = 0
    for h, tr, (_got, stats, _windows) in zip(corpus, corpus_tr, enum_runs):
        if h.m == 0 or has_empty_edge(h):
            continue
        kstar = max(len(t) for t in tr)
        hist = stats.x_size_histogram
        assert max(hist) <= max(0, kstar - 1), (h, dict(hist), kstar)
        checked += 1
    print(
        f"\n[acceptance] criterion 2 (partial solutions stay below the largest "
        f"solution): PASS ({checked} instances)"
    )


def test_c03_extension_matches_oracle(corpus):
    rng = random.Random(0xE27)
    triples = 0
    for h in corpus:
        picks = [(0, 0)]
        for _ in range(4):
            xm = ym = 0
            for v in range(h.n):
                r = rng.random()
                if r < 0.25:
                    xm |= 1 << v
                elif r < 0.45:
                    ym |= 1 << v
            picks.append((xm, ym))
        for xm, ym in picks:
            x, y = VertexSet(h.n, xm), VertexSet(h.n, ym)
            part = brute_extensions(h, x, y)
            got: list[VertexSet] = []
            outcome = extend(h, x, y, got.append)
            assert masks(got) == masks(part.zero) | masks(part.one), (h, x, y)
            assert len(got) == len(masks(got))
            assert outcome.continues == bool(part.higher), (h, x, y)
            if outcome.continues:
                assert all(t.mask & outcome.y_plus.mask == 0 for t in part.higher)
            triples += 1
    assert triples >= 2000
    print(
        f"\n[acceptance] criterion 3 (0/1-extensions, verdicts and skip sets "
        f"exact): PASS ({triples} triples)"
    )


def test_c04_rank_decider_agreement(corpus, corpus_tr):
    instances = 0
    for h, tr in zip(corpus, corpus_tr):
        if has_empty_edge(h):
            with pytest.raises(ValueError):
                rank_at_least_lookahead(h, 1)
            with pytest.raises(ValueError):
                rank_at_least_bd(h, 1)
            continue
        kstar = max((len(t) for t in tr), default=0)
        for k in range(0, h.n + 2):
            la = rank_at_least_lookahead(h, k)
            bd = rank_at_least_bd(h, k)
            assert (la is not None) == (kstar >= k), (h, k)
            assert (bd is not None) == (kstar >= k), (h, k)
            for witness in (la, bd):
                if witness is not None:
                    assert len(witness.t) >= k
                    assert is_minimal_hitting_set(h, witness.t)
        instances += 1
    print(
        f"\n[acceptance] criterion 4 (both rank deciders = brute force, witnesses "
        f"certified): PASS ({instances} instances, k in [0, n+1])"
    )


def test_c05_rank_conformal_duality(corpus, corpus_tr):
    # The duality needs a defined transversal rank, so instances with an
    # empty edge (no hitting sets) or no edges at all (rank 0 versus the
    # degree floor of 1) stay out.
    checked = 0
    for h, tr in zip(corpus, corpus_tr):
        if h.m == 0 or has_empty_edge(h):
            continue
        kstar = max(len(t) for t in tr)
        comp = edge_complement(h)
        fast = conformal_degree(comp)
        assert fast == kstar, h
        if h.n <= 7:
            assert brute_conformal_degree(comp) == kstar, h
        for k in range(0, h.n + 2):
            assert (kstar >= k) == (fast >= k)
        checked += 1
    print(
        f"\n[acceptance] criterion 5 (transversal rank of H = conformal degree of "
        f"the complement): PASS ({checked} instances)"
    )


def test_c06_conformality(corpus):
    checked = 0
    for h in corpus:
        if h.n > 7:
            continue
        degree = brute_conformal_degree(h)
        for k in range(1, h.n + 2):
            verdict = is_k_conformal(h, k)
            assert verdict.ok == (k >= degree), (h, k)
            if verdict.ok:
                continue
            s = verdict.counterexample
            members = s.members()
            for size in range(0, min(k, len(members)) + 1):
                for combo in itertools.combinations(members, size):
                    sub = 0
                    for v in combo:
                        sub |= 1 << v
                    assert any(sub & ~e == 0 for e in h.edge_masks()), (h, k, s)
            assert not any(s.mask & ~e == 0 for e in h.edge_masks()), (h, k, s)
        checked += 1
    print(
        f"\n[acceptance] criterion 6 (k-conformality = brute force, "
        f"counterexamples revalidated): PASS ({checked} instances)"
    )


def test_c07_verification(corpus, corpus_tr):
    rng = random.Random(0x7E51)
    exact = mutated = 0
    for h, tr in zip(corpus, corpus_tr):
        g_exact = Hypergraph(h.n, tr)
        assert verify_tr(g_exact, h).equal, h
        exact += 1
        if not tr or h.n < 2:
            continue
        tr_masks = masks(tr)
        # 1: drop one solution
        keep = list(tr)
        keep.pop(rng.randrange(len(keep)))
        outcome = verify_tr(Hypergraph(h.n, keep), h)
        assert isinstance(outcome, MissingSolution)
        assert outcome.t.mask in tr_masks - masks(keep)
        # 2: add a non-solution
        bad_mask = next(
            m for m in range(1 << h.n) if m not in tr_masks
        )
        outcome = verify_tr(Hypergraph(h.n, list(tr) + [VertexSet(h.n, bad_mask)]), h)
        assert isinstance(outcome, NotSubset)
        assert outcome.g.mask == bad_mask
        # 3: add a redundant superset of a solution
        t0 = tr[rng.randrange(len(tr))]
        outside = [v for v in range(h.n) if v not in t0]
        if outside:
            sup = t0.with_vertex(outside[0])
            if sup.mask not in tr_masks:
                outcome = verify_tr(Hypergraph(h.n, list(tr) + [sup]), h)
                assert isinstance(outcome, NotSubset)
                assert outcome.g == sup
        # 4: duplicate a solution; set semantics make the pair equal again
        dup = Hypergraph(h.n, list(tr) + [tr[0]])
        assert dup.duplicates_dropped == 1
        assert verify_tr(dup, h).equal
        # 5: perturb one vertex of one solution
        candidates = [t for t in tr if len(t)]
        if candidates:
            t0 = candidates[rng.randrange(len(candidates))]
            drop = rng.choice(t0.members())
            add = rng.randrange(h.n)
            perturbed = t0.without_vertex(drop).with_vertex(add)
            mutated_edges = [t for t in tr if t != t0] + [perturbed]
            outcome = verify_tr(Hypergraph(h.n, mutated_edges), h)
            assert outcome.equal == ({t.mask for t in mutated_edges} == tr_masks)
        mutated += 1
    print(
        f"\n[acceptance] criterion 7 (verification = set equality, 5 mutation "
        f"kinds): PASS ({exact} exact pairs, {mutated} mutated)"
    )


def _moon_moser_15() -> Hypergraph:
    parts = [range(3 * i, 3 * i + 3) for i in range(5)]
    edges = []
    for i, j in itertools.combinations(range(5), 2):
        for a in parts[i]:
            for b in parts[j]:
                edges.append((a, b))
    return Hypergraph(15, edges)


def _traced_clique_gaps(g: Hypergraph) -> tuple[int, list[int]]:
    """Run ``enumerate_maximal_cliques(g)`` under ``sys.settrace`` and
    return its output count and the line events traced between
    consecutive outputs, in every frame it opens but the sink's.  The
    count is machine-independent, unlike a wall-clock gap.  The previous
    tracer is restored afterwards."""
    events = 0
    stamps: list[int] = []

    def sink(_c: VertexSet) -> None:
        stamps.append(events)

    def count_lines(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return count_lines

    def tracer(frame, event, arg):
        return None if frame.f_code is sink.__code__ else count_lines

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        count = enumerate_maximal_cliques(g, sink)
    finally:
        sys.settrace(previous)
    return count, [b - a for a, b in zip(stamps, stamps[1:])]


def test_c08_clique_bijection_and_count_independence():
    started = time.monotonic()
    rng = random.Random(0xC11)
    checked = 0
    for _ in range(120):
        r = rng.choice([2, 3])
        n = rng.randint(r, 7)
        everything = list(itertools.combinations(range(n), r))
        h = Hypergraph(n, rng.sample(everything, rng.randint(0, len(everything))))
        want = masks(brute_max_cliques(h, r))
        got: list[VertexSet] = []
        enumerate_maximal_hypercliques(h, got.append, r=r)
        assert masks(got) == want and len(got) == len(masks(got)), (h, r)
        if r == 2:
            got2: list[VertexSet] = []
            enumerate_maximal_cliques(h, got2.append)
            assert masks(got2) == want, h
        checked += 1

    # a 15-vertex graph with 3^5 = 243 maximal cliques: the gap between
    # consecutive outputs, in traced line events, must not drift with the
    # output count.  A spike over the median is bounded, and so is the
    # late outputs' mean gap over the early ones'.
    count, gaps = _traced_clique_gaps(_moon_moser_15())
    assert count == 243 >= (3 ** (15 // 3)) / 2
    ratio = max(gaps) / statistics.median(gaps)
    assert ratio <= 10.0, ratio
    third = len(gaps) // 3
    drift = statistics.mean(gaps[-third:]) / statistics.mean(gaps[:third])
    assert drift <= 1.5, drift
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(
        f"\n[acceptance] criterion 8 (hyperclique bijection, count-independent "
        f"delay): PASS ({checked} instances, gap ratio {ratio:.1f}, drift "
        f"{drift:.2f}, {elapsed:.1f}s)"
    )


def test_c09_iteration_budgets(corpus, enum_runs):
    rng = random.Random(0xB4D6E7)
    product_calls = bd_checks = minimize_checks = 0
    for h, (_got, _stats, windows) in zip(corpus, enum_runs):
        delta = h.max_degree
        for window in windows:
            for xm, _ym, iterations in window:
                assert iterations <= max(1, delta) ** xm.bit_count(), h
                product_calls += 1
    for h in corpus:
        if h.m == 0 or has_empty_edge(h) or h.n > 7:
            continue
        if rng.random() < 0.75:
            continue
        ms = minimize_edges(h).m
        for k in range(2, h.n + 2):
            counters: Counter = Counter()
            rank_at_least_bd(h, k, counters=counters)
            bound = sum(comb(ms, i) for i in range(1, k + 1))
            assert counters["bd_entries_touched"] <= bound, (h, k)
            bd_checks += 1
        counters = Counter()
        s = VertexSet.full(h.n)
        minimize(h, s, counters=counters)
        assert counters["adjacency_touches"] <= 4 * h.m * max(1, len(s)), h
        minimize_checks += 1
    print(
        f"\n[acceptance] criterion 9 (product, overlap-test and adjacency budgets): "
        f"PASS ({product_calls} extension calls, {bd_checks} family scans, "
        f"{minimize_checks} minimizations)"
    )


def test_c10_delay_trend_at_stated_parameters(monkeypatch):
    """The delay bound O(Delta^(k*-1) * m * n^2) on the degree sweep
    n = 18, k* = 3, Delta in {2, 4, 8}, checked in work counts.

    Each Delta runs at m = 3 * Delta, and the stated m = 40 runs at
    Delta = 14.  The sweep as first stated, m = 40 for every Delta, does
    not exist: a minimal hitting set of at most k* vertices touches every
    edge, so m <= k* * Delta, and m = 40 forces Delta >= ceil(40/3) = 14
    (``delay_trend_instance`` raises below that).

    The paper promises an upper bound on the delay, not that the delay
    grows with Delta, and a wall-clock ordering depends on the machine.
    So every gap between outputs (lead-in and tail included) must span at
    most 3(n+1) extend calls, and its product iterations must stay within
    the paper's per-call budget Delta^|X| summed over those calls, with
    |X| <= k* - 1 throughout.  The worst gap may then grow no faster than
    Delta^(k*-1); the prefix-pruned product search in fact stays flat on
    these instances.  Wall time is printed, not asserted.

    Every padding edge of these block families contains a core pair, so
    ``enumerate_tr``, which walks the inclusion-minimal edges, would meet
    Delta = 1 only.  The sweep therefore walks the raw family
    (``walk_raw_edges``), and ``enumerate_tr`` must give the same outputs
    in the same order.
    """
    n, kstar = 18, 3
    log = log_extend_calls(monkeypatch)
    report = []
    for m, delta in [(kstar * d, d) for d in (2, 4, 8)] + [(40, 14)]:
        h = delay_trend_instance(n, m, kstar, delta)
        assert (h.n, h.m, h.max_degree) == (n, m, delta)
        # k* certified by the edge-family decider, independent of the tree
        witness = rank_at_least_bd(h, kstar)
        assert witness is not None and is_minimal_hitting_set(h, witness.t)
        assert len(witness.t) >= kstar
        assert rank_at_least_bd(h, kstar + 1) is None

        got, stats, windows = logged_run(log, h, run=walk_raw_edges)
        in_order: list[VertexSet] = []
        enumerate_tr(h, in_order.append)
        assert [t.mask for t in got] == [t.mask for t in in_order], h
        assert len(got) == len(masks(got)) == 2**kstar, h
        assert all(len(t) == kstar and is_minimal_hitting_set(h, t) for t in got)
        assert max(stats.x_size_histogram) <= kstar - 1
        assert stats.max_gap_calls <= 3 * (n + 1), (delta, stats.max_gap_calls)

        gaps = []
        for window in windows:
            iterations = sum(it for _xm, _ym, it in window)
            budget = sum(max(1, delta) ** xm.bit_count() for xm, _ym, _it in window)
            assert iterations <= budget, (delta, iterations, budget)
            gaps.append((len(window), iterations, budget))
        calls, iterations, budget = max(gaps)
        report.append(
            f"Delta={delta} m={m}: {calls} calls, {iterations}/{budget} iterations, "
            f"{stats.max_delay_ns / 1000:.0f} us"
        )
    print(
        "\n[acceptance] criterion 10 (delay bound across the maximum degree, "
        "worst gap): PASS (" + "; ".join(report) + ")"
    )
