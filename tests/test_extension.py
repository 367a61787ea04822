from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet, enumeration, extension, rank
from transversal.enumeration import enumerate_tr
from transversal.extension import (
    ExtensionOutcome,
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


def test_trusted_results_behave_as_public_ones():
    """``extend`` builds its outputs, its Y+ and its CONTINUE outcome
    without the public checks.  They compare and hash as the checked
    values do, and the outcome stays frozen.  (``test_core``'s
    ``test_mask_out_of_range`` holds the public checks.)"""
    h = Hypergraph(5, [(0, 1), (0, 2), (3, 4)])
    got, outcome = collect(h, VertexSet.of(5, 3), VertexSet(5))
    assert got == [VertexSet.of(5, 0, 3)]
    assert hash(got[0]) == hash(VertexSet(5, 0b01001))
    assert outcome == ExtensionOutcome(VertexSet.of(5, 0, 4))
    assert hash(outcome) == hash(ExtensionOutcome(VertexSet(5, 0b10001)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.y_plus = None


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


@pytest.mark.parametrize("query", [extend, find_higher_order, build_reduced_families])
@pytest.mark.parametrize("x, y", [
    (VertexSet.of(3, 2), VertexSet(2)),  # X over a larger universe
    (VertexSet(2), VertexSet.of(3, 2)),  # Y over a larger universe
    (VertexSet(1), VertexSet(2)),  # X over a smaller one
])
def test_queries_refuse_sets_from_another_universe(query, x, y):
    # X's classification is folded before the reduction checks Y, so X's
    # universe is checked there too: a vertex past the input's would
    # otherwise index past its incidence masks
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(ValueError, match="X and Y must live in the hypergraph's universe"):
        query(h, x, y)


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
    y = VertexSet.of(5, 4)
    crit, unhit, forced = build_reduced_families(h, x, y)
    assert len(crit) == len(x) == 1
    # every bit of a member's crit mask names an edge meeting X at that
    # member alone: its candidate private edges, as they stand in h
    edges = h.edge_masks()
    for c, v in zip(crit, x):
        assert c == sum(1 << i for i, em in enumerate(edges) if em & x.mask == 1 << v)
    # unhit reduced edges are the edges disjoint from X, reduced by Y
    assert unhit == [em & ~y.mask for em in edges if em & x.mask == 0]
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


def _reduced(crit, edges, y):
    """Per member, its candidate private edges as ``(edge index, edge
    reduced by Y)`` pairs, in the order of the bits of its crit mask."""
    return [[(i, edges[i] & ~y) for i in iter_bits(c)] for c in crit]


def _reference_odometer(per_x, unhit, forced, counters):
    """The product search without its shortcuts or its sift, over
    families of ``(edge index, reduced edge)`` pairs: the depth-first
    odometer alone, cutting a prefix as soon as some unhit edge lies
    inside ``forced`` plus the chosen edges, and counting the cut
    prefixes plus the accepted combination.  Each time a member below
    the top runs out of candidates it counts one ``run_outs``.  Returns
    the chosen edge indices."""
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
            counters["run_outs"] += 1
            i -= 1
            pos[i] += 1
            continue
        free = ~(blocked[i] | fam[pos[i]][1])
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
    return [fam[p][0] for fam, p in zip(per_x, pos)]


def _sift_by_the_rules(c, edges, unhit, forced):
    """The bits of ``c`` that neither rule drops, each candidate judged
    on its own: (a) some unhit edge lies inside ``forced`` plus it; (b)
    its trace on ``span`` (the unhit edges' union less ``forced``) holds
    the trace of some earlier candidate.  Rule (b) here reads every
    earlier candidate, kept or not: one dropped by (a) passes (a) on to
    any candidate whose trace holds its own, and one dropped by (b)
    passes on the earlier trace it holds."""
    span = 0
    for em in unhit:
        span |= em
    span &= ~forced
    bits = list(iter_bits(c))
    kept = 0
    for at, j in enumerate(bits):
        trace = edges[j] & span
        alone = any(not em & ~(forced | edges[j]) for em in unhit)
        holds = any(not edges[a] & span & ~trace for a in bits[:at])
        if not (alone or holds):
            kept |= 1 << j
    return kept


@pytest.fixture
def sifts(monkeypatch):
    """Check every sift the product search makes against the rules, and
    tally its calls and the candidates it drops."""
    real = extension._sift
    tally: Counter = Counter()

    def checked(c, edges, unhit, forced, span):
        kept = real(c, edges, unhit, forced, span)
        assert kept == _sift_by_the_rules(c, edges, unhit, forced), (c, edges, unhit, forced)
        tally["calls"] += 1
        tally["dropped"] += (c ^ kept).bit_count()
        return kept

    monkeypatch.setattr(extension, "_sift", checked)
    return tally


def _indices(chosen):
    """The edge indices that the product decision's masks name."""
    return None if chosen is None else [(c & -c).bit_length() - 1 for c in chosen]


def _check_count(counters, ref_counters):
    """The sifted walk's ``product_iterations`` against the plain
    odometer's: never more, and the same, with nothing dropped, when no
    member ran out of candidates (the sift runs only at a run-out).
    Returns the cuts the sift saved."""
    got = counters["product_iterations"]
    want = ref_counters["product_iterations"]
    assert got <= want
    if not ref_counters["run_outs"]:
        assert got == want and not counters["candidates_dropped"]
    return want - got


def _product_case(rng):
    """Random ``(crit, edges, unhit, forced, y)`` over at most 8 vertices:
    nonempty unhit edges missing Y and their intersection, raw candidate
    edges that may meet Y, and nonempty crit masks over those edges,
    either all one bit or of mixed sizes."""
    n = rng.randint(2, 8)
    full = (1 << n) - 1
    # vertex 0 stays out of Y, so an unhit edge emptied by Y can take it
    y = rng.randint(0, full) & rng.randint(0, full) & ~1
    unhit = [rng.randint(1, full) & ~y or 1 for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.1:
        # one unhit edge inside all the others: it is their intersection
        unhit = [unhit[0]] + [em | unhit[0] for em in unhit[1:]]
    forced = -1
    for em in unhit:
        forced &= em
    edges = [rng.randint(1, full) for _ in range(rng.randint(1, 6))]
    full_crit = (1 << len(edges)) - 1
    singletons = rng.random() < 0.4
    crit = [
        1 << rng.randrange(len(edges)) if singletons else rng.randint(1, full_crit)
        for _ in range(rng.randint(0, 4))
    ]
    return crit, edges, unhit, forced, y


def _check_decision(yes, counters, ref, ref_counters, reduced, veto, kinds, saved):
    """A decision made with the veto, answering ``yes``, against the
    plain odometer's answer ``ref`` and count over the node's reduction
    ``(crit, unhit, forced)``: the same answer, and the count
    ``_check_count`` allows unless the veto certified the "no".  It does
    so exactly on the "no" answers that the forced test leaves and whose
    unhit edge lies inside ``forced`` plus the veto, counting one cut
    prefix each.  Adds the product iterations the certificate and the
    sift saved to ``saved``."""
    certified = counters["veto_certified"]
    assert certified in (0, 1)
    assert yes == (ref is not None)
    certifiable = False
    if ref is None and reduced is not None and reduced[1]:
        _crit, unhit, forced = reduced
        certifiable = forced not in unhit and any(
            not em & ~(forced | veto) for em in unhit
        )
    assert certified == certifiable
    if certified:
        assert counters["product_iterations"] == 1
        kinds["certified no"] += 1
        saved["certified"] += ref_counters["product_iterations"] - 1
        return
    saved["sifted"] += _check_count(counters, ref_counters)
    kinds["yes" if ref is not None else "walked no"] += 1


def test_product_shortcuts_match_the_odometer(sifts):
    """On raw candidate edges, the one product decision with veto 0 (as
    ``find_higher_order`` makes it) names the edge indices of the plain
    odometer over the candidates reduced by Y, through both shortcuts and
    the sifted walk, with the count ``_check_count`` allows and no
    certified "no".  Given the veto folded from the case's own candidates
    (as ``extend`` makes it), it decides as the plain odometer does and
    counts as with veto 0, apart from the certified "no" answers."""
    decide = extension._higher_order_combo
    rng = random.Random(4242)
    kinds: Counter = Counter()
    decisions: Counter = Counter()
    saved: Counter = Counter()
    for _ in range(4000):
        crit, edges, unhit, forced, y = _product_case(rng)
        per_x = _reduced(crit, edges, y)
        want_counters: Counter = Counter()
        want = _reference_odometer(per_x, unhit, forced, want_counters)
        got_counters: Counter = Counter()
        got = _indices(decide(crit, edges, unhit, forced, 0, got_counters))
        assert got == want, (crit, edges, unhit, forced, y)
        assert got_counters["veto_certified"] == 0
        if _check_count(got_counters, want_counters):
            kinds["sift cut fewer"] += 1
        assert _indices(decide(crit, edges, unhit, forced, 0, None)) == want
        # each member's core, folded in full: _core's early stop assumes
        # the member lies in its candidates, which these cases need not
        veto = 0
        for c in crit:
            core = -1
            for i in iter_bits(c):
                core &= edges[i]
            veto |= core
        counters: Counter = Counter()
        vetoed = _indices(decide(crit, edges, unhit, forced, veto, counters))
        _check_decision(
            vetoed is not None, counters, want, want_counters, (crit, unhit, forced), veto,
            decisions, saved,
        )
        if not counters["veto_certified"]:
            assert vetoed == want
            assert counters["product_iterations"] == got_counters["product_iterations"]
        # the shapes the shortcuts and the odometer each settle
        blocked = forced
        for fam in per_x:
            blocked |= fam[0][1]
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
    assert min(kinds.values()) >= 50 and len(kinds) == 8, kinds
    assert min(decisions.values()) >= 200 and len(decisions) == 3, decisions
    assert saved["sifted"] > 0 and sifts["dropped"] > 0


def test_extend_decides_as_the_product_search_on_tree_nodes(corpus, monkeypatch, sifts):
    """At every node of the corpus trees and of bd40's that the walk
    calls ``extend`` on, it answers as the plain odometer over the node's
    own reduction and carried veto, and counts as ``_check_decision``
    allows.  On bd40 the plain odometer's counts sum to 19,369 product
    iterations over the walk's 12,802 calls (22,606 over the 16,039 calls
    it made before rule (c) settled 3,237 nodes, each a first combination
    that passed).  The walk's count is that less each certified run's
    count above 1 (4,175 in all) and less the cuts the sift and the
    failed-trace memo saved (336)."""
    real = extension.extend
    kinds: Counter = Counter()
    totals: Counter = Counter()

    def checked(h, x, y, sink=None, *, counters=None, state=None):
        mine: Counter = Counter()
        outcome = real(h, x, y, sink, counters=mine, state=state)
        for key, value in mine.items():
            counters[key] += value
        reduced = build_reduced_families(h, x, y, state)
        ref, ref_counters = None, Counter()
        if reduced is not None and reduced[1]:
            crit, unhit, forced = reduced
            per_x = _reduced(crit, h.edge_masks(), y.mask)
            ref = _reference_odometer(per_x, unhit, forced, ref_counters)
        _check_decision(
            outcome.continues, mine, ref, ref_counters, reduced, state[2], kinds, totals
        )
        if outcome.continues:
            assert outcome.y_plus.mask == (y.mask | reduced[2] | state[2]) & ~x.mask
        totals["reference"] += ref_counters["product_iterations"]
        return outcome

    monkeypatch.setattr(enumeration, "extend", checked)
    for h in corpus:
        enumerate_tr(h)
    assert min(kinds.values()) >= 30 and len(kinds) == 3, kinds
    totals.clear()
    sifts.clear()
    stats = enumerate_tr(bounded_degree_instance(random.Random(1), 40, 80, 4))
    assert totals["reference"] == 19_369
    assert (totals["certified"], totals["sifted"]) == (4_175, 336)
    assert totals["reference"] - totals["certified"] - totals["sifted"] == stats.product_iterations
    assert stats.product_iterations == 14_858
    assert stats.work["veto_certified"] == 1_952
    assert sifts["dropped"] == stats.work["candidates_dropped"] == 361


def _reference_edge_indices(h, x, y):
    """First combination of the full product of candidate private edges,
    reduced by Y here, that leaves every unhit reduced edge unblocked,
    found by plain exhaustion."""
    reduced = build_reduced_families(h, x, y)
    if reduced is None or not reduced[1]:
        return None
    crit, unhit, forced = reduced
    for combo in itertools.product(*_reduced(crit, h.edge_masks(), y.mask)):
        blocked = forced
        for _, em in combo:
            blocked |= em
        if all(em & ~blocked for em in unhit):
            return tuple(idx for idx, _ in combo)
    return None


def test_pruned_search_matches_full_product(corpus, sifts):
    """``find_higher_order``'s witness is the full product's first, and
    its count is within the product's size and as ``_check_count``
    allows against the plain odometer."""
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
            crit = [] if reduced is None else reduced[0]
            assert counters["product_iterations"] <= math.prod(c.bit_count() for c in crit)
            want: Counter = Counter()
            if reduced is not None and reduced[1]:
                per_x = _reduced(crit, h.edge_masks(), y.mask)
                _reference_odometer(per_x, reduced[1], reduced[2], want)
            _check_count(counters, want)
    assert sifts["dropped"] > 0


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
    assert heads == stats.calls == 12_802

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
    assert heads == queries == 5
