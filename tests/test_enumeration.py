from __future__ import annotations

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet
from transversal import enumeration, verify
from transversal.cliques import (
    enumerate_maximal_cliques,
    enumerate_maximal_hypercliques,
    enumerate_maximal_independent_sets,
)
from transversal.core import minimize_edges, uniform_complement
from transversal.enumeration import (
    DelayStats,
    StopEnumeration,
    enumerate_incremental,
    enumerate_tr,
)
from transversal.extension import (
    ExtensionOutcome,
    build_reduced_families,
    extend,
    include_vertex,
)
from transversal.generators import (
    bounded_degree_instance,
    bounded_rank_instance,
    uniform_instance,
)
from transversal.oracle import brute_tr

from conftest import (
    log_extend_calls,
    log_settled_nodes,
    logged_run,
    masks,
    random_hypergraph,
    unsift,
    walk_raw_edges,
)

BD40 = bounded_degree_instance(random.Random(1), 40, 80, 4)
BR30 = bounded_rank_instance(random.Random(2), 30, 60, 3)
# bench's sparse class, and a high-degree 3-uniform complement (44 edges)
BD5 = bounded_degree_instance(random.Random(5), 40, 80, 4)
UNIFORM3_COMPLEMENT = uniform_complement(uniform_instance(random.Random(0), 9, 40, 3), 3)


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


def test_golden_output_order_over_the_corpus(corpus):
    # the order every corpus instance streams in, pinned so a change to
    # the walk or to the edges it walks keeps it
    orders = []
    for h in corpus:
        got, _ = run(h)
        orders.append(tuple(t.mask for t in got))
    assert sum(map(len, orders)) == 997
    assert hashlib.sha256(repr(orders).encode()).hexdigest()[:16] == "48969ee402304c8b"


def test_minimal_edge_walk_keeps_the_raw_walk_order(corpus):
    # enumerate_tr walks the inclusion-minimal edges; the walk over every
    # raw edge must give the same outputs in the same order
    checked = 0
    for h in corpus:
        if h.is_sperner():
            continue
        raw: list[VertexSet] = []
        walk_raw_edges(h, raw.append)
        got, _ = run(h)
        assert [t.mask for t in got] == [t.mask for t in raw], h
        checked += 1
    assert checked == 356


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


def test_incremental_rejects_a_stale_solution(monkeypatch):
    # a stage handing back a solution already in G would leave G as it was,
    # and the next stage would stream the same set again, up to the limit
    real = verify.verify_tr

    def stale(g, h, **kwargs):
        outcome = real(g, h, **kwargs)
        if isinstance(outcome, verify.MissingSolution) and g.m:
            return verify.MissingSolution(outcome.s, g.edges[0])
        return outcome

    monkeypatch.setattr(verify, "verify_tr", stale)
    got: list[VertexSet] = []
    with pytest.raises(RuntimeError, match="already found"):
        enumerate_incremental(
            uniform_instance(random.Random(1), 9, 20, 3), got.append, limit=10
        )
    assert len(got) == 1


def test_incremental_rejects_a_solution_that_stopped_being_minimal(monkeypatch):
    # the sets found so far are minimal hitting sets by construction, so a
    # stage that calls one of them not minimal is a fault, not an answer
    real = verify.verify_tr

    def faulty(g, h, **kwargs):
        outcome = real(g, h, **kwargs)
        return verify.NotSubset(g.edges[0]) if g.m else outcome

    monkeypatch.setattr(verify, "verify_tr", faulty)
    got: list[VertexSet] = []
    with pytest.raises(RuntimeError, match="stopped being minimal"):
        enumerate_incremental(uniform_instance(random.Random(1), 9, 20, 3), got.append)
    assert len(got) == 1


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


def gap_instances() -> list[Hypergraph]:
    rng = random.Random(55)
    instances = [random_hypergraph(rng, empty_edge_p=0) for _ in range(120)]
    return [h for h in instances if h.m]


def test_bounded_gap_between_outputs():
    # The tree search visits O(n) nodes between consecutive outputs, calls
    # and settled nodes alike; the constant here is 3 per level (observed
    # maximum is 1.5n).
    for h in gap_instances():
        _, stats = run(h)
        assert stats.max_gap_calls <= stats.max_gap_nodes <= 3 * (h.n + 1)


def test_online_stats_match_the_extend_call_log(monkeypatch):
    """The running aggregates equal what a wrapper of ``extend`` and of
    the walk's rule (c) count: the calls, the settled nodes, the worst gap
    in calls, in nodes and in product iterations, the |X| histogram and
    the product iterations.  The last run stops bd40 at its 250th output,
    as the bench's streams do, so the walk's local histogram and stack
    depth reach ``stats`` as the stop unwinds it."""
    log = log_extend_calls(monkeypatch)
    log_settled_nodes(monkeypatch, log)
    runs = [(h, None) for h in gap_instances() + [BD40]] + [(BD40, 250)]
    for h, limit in runs:
        _, stats, windows = logged_run(log, h, limit=limit)
        if limit is not None:
            assert (stats.outputs, stats.calls, stats.max_stack_depth) == (limit, 685, 8)
            assert stats.work["settled"] == 235
        calls = [[c for c in w if c is not None] for w in windows]
        assert stats.calls == sum(map(len, calls))
        assert stats.work["settled"] == log.count(None)
        assert stats.max_gap_calls == max(map(len, calls))
        assert stats.max_gap_nodes == max(map(len, windows))
        assert stats.max_gap_product_iterations == max(
            sum(it for _, _, it in w) for w in calls
        )
        log_calls = [c for w in calls for c in w]
        assert stats.x_size_histogram == Counter(xm.bit_count() for xm, _, _ in log_calls)
        assert len(stats.x_size_histogram) <= h.n + 1
        assert stats.product_iterations == sum(it for _, _, it in log_calls)


def test_tree_run_memory_stays_bounded():
    # nothing the run keeps grows with the 16,039 nodes it visits
    tracemalloc.start()
    try:
        stats = enumerate_tr(BD40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.outputs == 4059
    assert peak < 64 * 1024, peak


def test_live_state_is_one_root_to_leaf_path():
    rng = random.Random(77)
    for _ in range(60):
        h = random_hypergraph(rng)
        _, stats = run(h)
        assert stats.max_stack_depth <= h.n + 1


def test_stats_timestamps_monotone():
    _, stats = run(Hypergraph(4, [(0, 1), (2, 3)]))
    assert stats.started_ns <= stats.finished_ns
    # the outputs + 1 gaps sum to the total
    assert stats.max_delay_ns * (stats.outputs + 1) >= stats.total_ns >= stats.max_delay_ns
    payload = stats.to_json()
    assert set(payload) >= {"outputs", "max_delay_ns", "extend_call_histogram"}


def test_rejects_negative_limit():
    with pytest.raises(ValueError):
        enumerate_tr(Hypergraph(1, [(0,)]), limit=-1)


def test_br30_product_work_stays_pruned():
    # high-degree instance whose unpruned candidate product took millions of steps
    got, stats = run(BR30)
    assert len(got) == 8
    assert (stats.calls, stats.work["settled"]) == (73, 7)
    assert stats.product_iterations == 65


def test_bd40_tree_work_counts(monkeypatch):
    # sparse bounded-degree instance: pins the search tree the carried
    # edge classification walks over the 13 minimal edges of 17, the
    # 16,039 nodes of which it settles 3,237 without a call, and the
    # product work inside it; without the sift the same tree makes
    # 15,068 product iterations (test_extension.py derives the cuts the
    # sift and the failed-trace memo save call by call)
    got, stats = run(BD40)
    assert len(got) == 4059
    assert (stats.calls, stats.work["settled"]) == (12_802, 3_237)
    assert stats.product_iterations == 14_858
    assert stats.work["veto_certified"] == 1_952
    assert stats.work["candidates_dropped"] == 361
    assert stats.max_stack_depth == 9
    assert stats.x_size_histogram == {
        0: 1, 1: 5, 2: 77, 3: 752, 4: 2016, 5: 3325, 6: 3884, 7: 2212, 8: 530
    }
    unsift(monkeypatch)
    plain, plain_stats = run(BD40)
    assert plain == got
    assert (plain_stats.calls, plain_stats.x_size_histogram) == (stats.calls, stats.x_size_histogram)
    assert plain_stats.work["settled"] == stats.work["settled"]
    assert plain_stats.product_iterations == 15_068
    assert plain_stats.work["candidates_dropped"] == 0


def test_walk_work_is_a_plain_dict_of_the_walk_keys():
    # the walk increments it at every node, and CPython specializes
    # d[k] += 1 only on an exact dict; a key an extension call writes
    # that is not seeded would raise KeyError inside the walk
    keys = {
        "calls", "settled", "tree_pruned",
        "product_iterations", "veto_certified", "candidates_dropped",
    }
    work = DelayStats().work
    assert type(work) is dict and work.keys() == keys
    assert set(work.values()) == {0}
    work = enumerate_tr(BD40).work
    assert type(work) is dict and work.keys() == keys
    # the incremental route sums its verifications' counters in a Counter
    assert type(enumerate_incremental(BR30).work) is Counter


def _fresh_state(h, xm):
    """(uncov, crit) of X by direct counting over every edge."""
    xs = [v for v in range(h.n) if xm >> v & 1]
    uncov, crit = 0, [0] * len(xs)
    for idx, e in enumerate(h.edge_masks()):
        hit = [i for i, v in enumerate(xs) if e >> v & 1]
        if not hit:
            uncov |= 1 << idx
        elif len(hit) == 1:
            crit[hit[0]] |= 1 << idx
    return uncov, crit


def _fresh_cand(h, crit):
    """The union of the ``crit`` masks, read edge by edge."""
    return sum(1 << idx for idx in range(h.m) if any(c >> idx & 1 for c in crit))


def _fresh_veto(h, crit):
    """The union over X's members of the intersection of their candidate
    private edges, each intersection taken over every edge its mask
    names."""
    edges = h.edge_masks()
    veto = 0
    for c in crit:
        if c:
            core = (1 << h.n) - 1
            for idx in range(h.m):
                if c >> idx & 1:
                    core &= edges[idx]
            veto |= core
    return veto


def test_carried_state_matches_fresh_classification(monkeypatch, corpus):
    """At every node the search calls ``extend`` on, the (uncov, crit,
    veto, cand) state the tree search carries equals the classification,
    veto and candidate union counted from scratch, and extend given that
    state emits and returns exactly what it does without it.  A node
    settled without a call shares the state of its parent, and each chain
    of exclude children starts at a node that is called (the root or an
    include child), so every state the walk builds is checked.
    The corpus, bd40 and bench's sparse class carry low-degree
    classifications; the 3-uniform complement carries high-degree ones."""
    real = enumeration.extend
    nodes = 0

    def checked(h, x, y, sink=None, *, counters=None, state=None):
        nonlocal nodes
        nodes += 1
        uncov, crit, veto, cand = state
        assert (uncov, list(crit)) == _fresh_state(h, x.mask), (h, x, y)
        assert veto == _fresh_veto(h, crit), (h, x, y)
        assert cand == _fresh_cand(h, crit), (h, x, y)
        fresh_got: list[VertexSet] = []
        fresh = real(h, x, y, fresh_got.append)
        got: list[VertexSet] = []
        outcome = real(h, x, y, got.append, counters=counters, state=state)
        assert got == fresh_got, (h, x, y)
        assert outcome == fresh, (h, x, y)
        for t in got:
            sink(t)
        return outcome

    monkeypatch.setattr(enumeration, "extend", checked)
    instances = list(corpus) + [BD40]
    for h in instances:
        enumerate_tr(h)
    # the root of each of the corpus's 33 edgeless instances is one node
    assert nodes == 14_069
    for h, calls in ((BD5, 9_544), (UNIFORM3_COMPLEMENT, 80)):
        nodes = 0
        enumerate_tr(h)
        assert nodes == calls


def _walk_every_free_vertex(h: Hypergraph) -> list[int]:
    """The output masks of ``enumerate_tr(h)`` by the plain branching rule:
    after a CONTINUE, branch on the lowest vertex outside X and Y+ and
    push both children, as the look-ahead tree is defined.  It calls
    ``extension.extend`` itself, not the module global tests patch."""
    if h.m == 0:
        return [0]
    h = minimize_edges(h)
    edges = h.edge_masks()
    incidence = h.incidence
    full = (1 << h.n) - 1
    got: list[int] = []
    stack = [(0, 0, ((1 << h.m) - 1, [], 0, 0))]
    while stack:
        xm, ym, state = stack.pop()
        outcome = extend(
            h, VertexSet(h.n, xm), VertexSet(h.n, ym),
            lambda t: got.append(t.mask), state=state,
        )
        if outcome.continues:
            ypm = outcome.y_plus.mask
            rest = full & ~(xm | ypm)
            vbit = rest & -rest
            stack.append((xm, ypm | vbit, state))
            stack.append(
                (xm | vbit, ypm, include_vertex(state, incidence[vbit.bit_length() - 1], edges))
            )
    return got


def test_walk_calls_extend_only_on_live_nodes(monkeypatch, corpus):
    """Every node the walk hands to ``extend`` can still be extended: its
    reduction is not None, so no member of X has lost its last candidate
    private edge and no uncovered edge lies inside Y.  The one exception
    is the root of an input holding the empty edge, which is the whole
    walk.  The outputs, in order, are those of the walk that branches on
    every free vertex and pushes both children."""
    real = enumeration.extend
    calls = 0

    def checked(h, x, y, sink=None, *, counters=None, state=None):
        nonlocal calls
        calls += 1
        if build_reduced_families(h, x, y, state) is None:
            assert not x.mask and not y.mask and 0 in h.edge_masks(), (h, x, y)
        return real(h, x, y, sink, counters=counters, state=state)

    monkeypatch.setattr(enumeration, "extend", checked)
    for h in list(corpus) + [BD40, BR30]:
        got: list[int] = []
        enumerate_tr(h, lambda t: got.append(t.mask))
        assert got == _walk_every_free_vertex(h), h
    # the corpus and bd40, as in the carried-state test, and br30
    assert calls == 14_069 + 73


def test_settled_nodes_answer_as_extend_would(monkeypatch, corpus):
    """Rule (c) settles an exclude child without an extension call.  At
    every node it settles, on the corpus, bd40, bench's sparse class and
    the 3-uniform complement, the real ``extend``, folding X's
    classification from the root, answers CONTINUE with Y+ = Y and emits
    nothing.  The settled nodes are the visited ones (those ``prune`` is
    asked about) that ``extend`` never saw, and the walk counts them."""
    real = enumeration.extend
    called: set[tuple[int, int]] = set()

    def logged(h, x, y, sink=None, *, counters=None, state=None):
        called.add((x.mask, y.mask))
        return real(h, x, y, sink, counters=counters, state=state)

    monkeypatch.setattr(enumeration, "extend", logged)
    total = 0
    for h in list(corpus) + [BD40, BD5, UNIFORM3_COMPLEMENT]:
        g = minimize_edges(h)
        visited: list[tuple[int, int]] = []

        def visit(xm: int, ym: int, _uncov: int) -> bool:
            visited.append((xm, ym))
            return False

        called.clear()
        stats = DelayStats()
        enumeration._walk_tree(g, lambda _t: None, stats, prune=visit)
        settled = [node for node in visited if node not in called]
        assert len(called) == stats.calls
        assert len(settled) == stats.work["settled"], h
        for xm, ym in settled:
            got: list[VertexSet] = []
            outcome = real(g, VertexSet(g.n, xm), VertexSet(g.n, ym), got.append)
            assert got == [], (h, xm, ym)
            assert outcome.continues and outcome.y_plus.mask == ym, (h, xm, ym)
        total += len(settled)
    # the corpus settles 312 nodes, bd40 3,237, bd5 3,351, uni9-c3 20
    assert total == 312 + 3_237 + 3_351 + 20


@pytest.mark.parametrize("y_plus", [0b101, 0b111])
def test_walk_refuses_a_continue_without_a_live_vertex(monkeypatch, y_plus):
    """A CONTINUE whose Y+ leaves only vertices that meet no uncovered
    edge (vertex 1 here), or none at all, breaks ``extend``'s promise: the
    walk raises instead of branching on some other vertex, such as the
    last one, which meets the uncovered edge."""
    calls = []

    def broken(h, x, y, sink=None, *, counters=None, state=None):
        calls.append(x.mask)
        return ExtensionOutcome(VertexSet(h.n, y_plus))

    monkeypatch.setattr(enumeration, "extend", broken)
    with pytest.raises(RuntimeError, match="no vertex is left"):
        enumerate_tr(Hypergraph(3, [(0, 2)]))
    assert calls == [0]


# ---------------------------------------------------------------- the sink protocol

PAIRS = Hypergraph(4, [(0, 1), (2, 3)])
UNIFORM = uniform_instance(random.Random(0), 9, 40, 3)
# vertex 0 is adjacent to all others, so the graph route of the
# independent-set enumerator streams {0} alone before its clique run
GRAPH = Hypergraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
ENUMERATORS = [
    (enumerate_tr, PAIRS),
    (enumerate_incremental, PAIRS),
    (enumerate_maximal_cliques, Hypergraph(4, [(0, 1), (1, 2), (2, 3)])),
    (enumerate_maximal_hypercliques, UNIFORM),
    (enumerate_maximal_independent_sets, UNIFORM),
    (enumerate_maximal_independent_sets, GRAPH),
]
ENUMERATOR_IDS = [fn.__name__ for fn, _ in ENUMERATORS[:-1]] + [
    "enumerate_maximal_independent_sets-graph"
]


def delivered(fn, h, sink=None, **kw):
    """The outputs ``fn`` streamed, after checking its reported count."""
    got: list[VertexSet] = []

    def keep(t):
        got.append(t)
        if sink is not None:
            sink(t)

    result = fn(h, keep, **kw)
    count = result.outputs if isinstance(result, DelayStats) else result
    assert count == len(got)
    return got


@pytest.mark.parametrize("fn, h", ENUMERATORS, ids=ENUMERATOR_IDS)
def test_limit_contract(fn, h):
    with pytest.raises(ValueError, match="limit must be non-negative"):
        fn(h, limit=-1)
    everything = delivered(fn, h)
    assert len(everything) >= 3
    assert delivered(fn, h, limit=0) == []
    for k in (1, 2):
        assert delivered(fn, h, limit=k) == everything[:k]


def test_limited_run_does_no_work_after_its_last_output(monkeypatch):
    # the same extend calls, (X, Y) and product work, up to the k-th
    # output, and none after it
    log = log_extend_calls(monkeypatch)
    _, _, full = logged_run(log, BD40)
    for k in (1, 2, 100):
        _, stats, limited = logged_run(log, BD40, limit=k)
        assert limited == full[:k] + [[]]
        assert stats.calls == len(log)


def test_sink_stop_ends_a_hyperclique_call():
    everything = delivered(enumerate_maximal_hypercliques, UNIFORM)

    seen = 0

    def stop_at_second(_c):
        nonlocal seen
        seen += 1
        if seen == 2:
            raise StopEnumeration

    # ``delivered`` checks that the returned count is 2, the output the
    # sink stopped on included
    got = delivered(enumerate_maximal_hypercliques, UNIFORM, stop_at_second)
    assert got == everything[:2]


def test_stop_inside_verify_ends_only_the_inner_run(monkeypatch):
    """Every stage but the last ends its verification's tree run with a
    stop; the incremental enumeration around it runs to the end."""
    real = enumeration.enumerate_tr
    stops = 0

    def watched_run(g, sink=None, **kw):
        def watched(s):
            nonlocal stops
            try:
                sink(s)
            except StopEnumeration:
                stops += 1
                raise

        return real(g, watched, **kw)

    monkeypatch.setattr(enumeration, "enumerate_tr", watched_run)
    got, stats = run(UNIFORM, method=enumerate_incremental)
    assert stops == len(got) == stats.outputs
    assert masks(got) == masks(brute_tr(UNIFORM))
    assert len(masks(got)) == len(got)
