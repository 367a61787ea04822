from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet, extension, rank
from transversal.enumeration import enumerate_tr
from transversal.extension import (
    build_reduced_families,
    extend,
    find_higher_order,
)
from transversal.core import iter_bits
from transversal.generators import bounded_degree_instance, uniform_instance
from transversal.hitting import is_minimal_hitting_set
from transversal.oracle import brute_extensions

from conftest import masks, random_hypergraph


def collect(h, x, y, **kw):
    got: list[VertexSet] = []
    outcome = extend(h, x, y, got.append, **kw)
    return got, outcome


def test_one_extensions_then_halt():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    got, outcome = collect(h, VertexSet.of(4, 0), VertexSet(4))
    assert [t.members() for t in got] == [(0, 2), (0, 3)]
    assert not outcome.continues


def test_empty_x_emits_forced_singletons():
    h = Hypergraph(3, [(0, 1), (0, 2)])
    got, outcome = collect(h, VertexSet(3), VertexSet(3))
    assert [t.members() for t in got] == [(0,)]
    assert outcome.continues
    assert outcome.y_plus == VertexSet.of(3, 0)


def test_continue_with_veto_vertex():
    h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    got, outcome = collect(h, VertexSet.of(6, 0), VertexSet(6))
    assert got == []
    assert outcome.continues
    # vertex 1 would strip 0 of its only candidate private edge
    assert outcome.y_plus == VertexSet.of(6, 1)


def test_rejects_overlapping_x_y_and_answers_edgeless():
    h = Hypergraph(2, [(0,)])
    with pytest.raises(ValueError):
        extend(h, VertexSet.of(2, 0), VertexSet.of(2, 0))
    # on an edgeless input X = {} emits itself and halts, and any other X
    # halts with nothing, as the oracle says
    edgeless = Hypergraph(2, [])
    for xm, ym in itertools.product(range(4), repeat=2):
        if xm & ym:
            continue
        x, y = VertexSet(2, xm), VertexSet(2, ym)
        part = brute_extensions(edgeless, x, y)
        got, outcome = collect(edgeless, x, y)
        assert got == list(part.zero + part.one) == ([x] if xm == 0 else [])
        assert not outcome.continues and not part.higher
        assert find_higher_order(edgeless, x, y) is None


def test_has_higher_order_examples():
    h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    assert find_higher_order(h, VertexSet.of(6, 0)) is not None
    h = Hypergraph(4, [(0, 1), (2, 3)])
    assert find_higher_order(h, VertexSet.of(4, 0)) is None
    assert find_higher_order(Hypergraph(1, [(0,)]), VertexSet(1)) is None


def test_emitted_order_is_ascending():
    h = Hypergraph(5, [(0, 4), (1, 2, 3)])
    got, _ = collect(h, VertexSet.of(5, 0), VertexSet(5))
    extras = [(t - VertexSet.of(5, 0)).members()[0] for t in got]
    assert extras == sorted(extras)


def test_reduced_families_structure():
    h = Hypergraph(5, [(0, 1, 4), (0, 2), (2, 3), (1, 2)])
    x = VertexSet.of(5, 0)
    crit, unhit, forced, per_x, veto = build_reduced_families(h, x, VertexSet.of(5, 4))
    assert len(crit) == len(per_x) == 1
    # every candidate private edge still contains its vertex, and is the
    # edge its crit bit names, reduced by Y
    for c, fam, v in zip(crit, per_x, x):
        pairs = list(zip(iter_bits(c), fam))
        assert len(pairs) == len(fam)
        assert all(em >> v & 1 for _, em in pairs)
        assert all(em == h.edge_masks()[idx] & ~0b10000 for idx, em in pairs)
    # unhit reduced edges are disjoint from X
    assert unhit and all(em & 1 == 0 for em in unhit)
    assert forced == unhit[0] & unhit[1]


def test_matches_oracle_on_random_triples():
    rng = random.Random(1234)
    trials = 0
    while trials < 300:
        h = random_hypergraph(rng, n_max=7, m_max=9)
        xm = ym = 0
        for v in range(h.n):
            r = rng.random()
            if r < 0.25:
                xm |= 1 << v
            elif r < 0.45:
                ym |= 1 << v
        trials += 1
        x, y = VertexSet(h.n, xm), VertexSet(h.n, ym)
        part = brute_extensions(h, x, y)
        counters: Counter = Counter()
        got, outcome = collect(h, x, y, counters=counters)
        assert masks(got) == masks(part.zero) | masks(part.one)
        assert len(got) == len(masks(got))
        assert outcome.continues == bool(part.higher)
        if outcome.continues:
            assert all(t.mask & outcome.y_plus.mask == 0 for t in part.higher)
            assert y <= outcome.y_plus
            assert outcome.y_plus.mask & xm == 0
        # every emission is a minimal hitting set of the original hypergraph
        for t in got:
            assert is_minimal_hitting_set(h, t)
        # product loop budget
        delta = h.max_degree
        assert counters["product_iterations"] <= max(1, delta) ** len(x)


def test_find_higher_order_returns_certificate():
    h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    w = find_higher_order(h, VertexSet.of(6, 0))
    assert w is not None
    assert len(w.edge_indices) == 1
    assert h.edges[w.edge_indices[0]].members() == (0, 1)


def _reference_odometer(per_x, unhit, forced, counters):
    """The product search without its shortcuts: the depth-first odometer
    alone, cutting a prefix as soon as some unhit edge lies inside
    ``forced`` plus the chosen edges, and counting the cut prefixes plus
    the accepted combination."""
    if forced in unhit:
        return None
    depth = len(per_x)
    pos = [0] * (depth + 1)
    blocked = [forced] * (depth + 1)
    cuts = 0
    i = 0
    while i < depth:
        fam = per_x[i]
        if pos[i] == len(fam):
            if i == 0:
                counters["product_iterations"] += cuts
                return None
            i -= 1
            pos[i] += 1
            continue
        free = ~(blocked[i] | fam[pos[i]])
        for em in unhit:
            if not em & free:
                cuts += 1
                pos[i] += 1
                break
        else:
            i += 1
            blocked[i] = ~free
            pos[i] = 0
    counters["product_iterations"] += cuts + 1
    return pos[:depth]


def _product_case(rng):
    """Random ``(per_x, unhit, forced)`` over at most 8 vertices: nonempty
    unhit edges and their intersection, and nonempty families, either all
    singletons or of mixed sizes."""
    n = rng.randint(2, 8)
    full = (1 << n) - 1
    unhit = [rng.randint(1, full) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.1:
        # one unhit edge inside all the others: it is their intersection
        unhit = [unhit[0]] + [em | unhit[0] for em in unhit[1:]]
    forced = -1
    for em in unhit:
        forced &= em
    singletons = rng.random() < 0.4
    per_x = [
        [rng.randint(1, full) for _ in range(1 if singletons else rng.randint(1, 3))]
        for _ in range(rng.randint(0, 4))
    ]
    return per_x, unhit, forced


def test_product_shortcuts_match_the_odometer():
    """The first-combination test and the one-combination product give
    the odometer's positions and its exact ``product_iterations``."""
    rng = random.Random(4242)
    kinds: Counter = Counter()
    for _ in range(4000):
        per_x, unhit, forced = _product_case(rng)
        want_counters: Counter = Counter()
        want = _reference_odometer(per_x, unhit, forced, want_counters)
        got_counters: Counter = Counter()
        got = extension._higher_order_combo(per_x, unhit, forced, got_counters)
        assert got == want, (per_x, unhit, forced)
        assert got_counters["product_iterations"] == want_counters["product_iterations"]
        assert extension._higher_order_combo(per_x, unhit, forced, None) == want
        # the shapes the shortcuts and the odometer each settle
        blocked = forced
        for fam in per_x:
            blocked |= fam[0]
        first_passes = all(em & ~blocked for em in unhit)
        one_combination = all(len(fam) == 1 for fam in per_x)
        if forced in unhit:
            kinds["forced in unhit"] += 1
        elif not per_x:
            kinds["depth 0"] += 1
        elif one_combination:
            kinds["one combination, " + ("yes" if first_passes else "no")] += 1
        elif first_passes:
            kinds["first passes"] += 1
        else:
            kinds["first fails, " + ("yes" if want is not None else "no")] += 1
    assert min(kinds.values()) >= 50 and len(kinds) == 7, kinds


def _reference_edge_indices(h, x, y):
    """First combination of the full candidate product that leaves every
    unhit reduced edge unblocked, found by plain exhaustion."""
    reduced = build_reduced_families(h, x, y)
    if reduced is None or not reduced[1]:
        return None
    crit, unhit, forced, per_x, _veto = reduced
    families = [list(zip(iter_bits(c), fam)) for c, fam in zip(crit, per_x)]
    for combo in itertools.product(*families):
        blocked = forced
        for _, em in combo:
            blocked |= em
        if all(em & ~blocked for em in unhit):
            return tuple(idx for idx, _ in combo)
    return None


def test_pruned_search_matches_full_product(corpus):
    rng = random.Random(20240)
    for h in corpus:
        for _ in range(8):
            xm = ym = 0
            for v in range(h.n):
                r = rng.random()
                if r < 0.3:
                    xm |= 1 << v
                elif r < 0.5:
                    ym |= 1 << v
            x, y = VertexSet(h.n, xm), VertexSet(h.n, ym)
            counters: Counter = Counter()
            w = find_higher_order(h, x, y, counters=counters)
            got = None if w is None else w.edge_indices
            assert got == _reference_edge_indices(h, x, y), (h, x, y)
            reduced = build_reduced_families(h, x, y)
            per_x = [] if reduced is None else reduced[3]
            assert counters["product_iterations"] <= math.prod(len(f) for f in per_x)
            want: Counter = Counter()
            if reduced is not None and reduced[1]:
                _reference_odometer(per_x, reduced[1], reduced[2], want)
            assert counters["product_iterations"] == want["product_iterations"]


def test_queries_reduce_through_the_module_head(monkeypatch):
    """``extend`` and ``find_higher_order`` reach their reduction only
    through ``build_reduced_families``, read from the module's globals, so
    a wrapper there sees exactly one call per query."""
    heads = 0
    real_head = extension.build_reduced_families

    def counted_head(*args, **kwargs):
        nonlocal heads
        heads += 1
        return real_head(*args, **kwargs)

    monkeypatch.setattr(extension, "build_reduced_families", counted_head)
    stats = enumerate_tr(bounded_degree_instance(random.Random(1), 40, 80, 4))
    assert heads == stats.calls == 16_039

    queries = 0
    real_query = rank.find_higher_order

    def counted_query(*args, **kwargs):
        nonlocal queries
        queries += 1
        return real_query(*args, **kwargs)

    monkeypatch.setattr(rank, "find_higher_order", counted_query)
    heads = 0
    h = uniform_instance(random.Random(0), 16, 40, 3)
    assert rank.rank_at_least(h, 12, method="lookahead") is None
    assert heads == queries == 111
