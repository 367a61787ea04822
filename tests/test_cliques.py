from __future__ import annotations

import itertools
import random

import pytest

from transversal import Hypergraph, VertexSet, cliques, k_section
from transversal.cliques import (
    enumerate_maximal_cliques,
    enumerate_maximal_hypercliques,
    enumerate_maximal_independent_sets,
)
from transversal.generators import uniform_instance
from transversal.oracle import brute_max_cliques, brute_tr

from conftest import masks


def collect(fn, h, **kw):
    got: list[VertexSet] = []
    count = fn(h, got.append, **kw)
    assert count == len(got)
    return got


def random_uniform(rng, n, r):
    everything = list(itertools.combinations(range(n), r))
    return Hypergraph(n, rng.sample(everything, rng.randint(0, len(everything))))


class TestGraphCliques:
    def test_path(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        got = collect(enumerate_maximal_cliques, h)
        assert masks(got) == masks([VertexSet.of(3, 0, 1), VertexSet.of(3, 1, 2)])

    def test_complete_graph(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        got = collect(enumerate_maximal_cliques, h)
        assert [c.members() for c in got] == [(0, 1, 2)]

    def test_edgeless_emits_nothing(self):
        assert collect(enumerate_maximal_cliques, Hypergraph(4, [])) == []

    def test_rejects_non_graph(self):
        with pytest.raises(ValueError):
            enumerate_maximal_cliques(Hypergraph(3, [(0, 1, 2)]))
        with pytest.raises(ValueError):
            enumerate_maximal_cliques(Hypergraph(3, [(0, 1), ()]))

    def test_limit(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert len(collect(enumerate_maximal_cliques, h, limit=1)) == 1

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(80):
            h = random_uniform(rng, rng.randint(2, 7), 2)
            got = collect(enumerate_maximal_cliques, h)
            assert masks(got) == masks(brute_max_cliques(h, 2))
            assert len(got) == len(masks(got))

    def test_emitted_cliques_are_maximal(self):
        rng = random.Random(73)
        for _ in range(30):
            h = random_uniform(rng, 6, 2)
            adj = {v: 0 for v in range(6)}
            for e in h.edge_masks():
                a = (e & -e).bit_length() - 1
                b = e.bit_length() - 1
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            for c in collect(enumerate_maximal_cliques, h):
                for v in range(6):
                    if v not in c:
                        assert c.mask & ~adj[v] != 0


class TestHypercliques:
    def test_path_via_complement(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        got = collect(enumerate_maximal_hypercliques, h)
        # graphs take the clique enumerator's order
        assert [c.members() for c in got] == [(0, 1), (1, 2)]

    def test_complete_3_uniform(self):
        h = Hypergraph(4, list(itertools.combinations(range(4), 3)))
        got = collect(enumerate_maximal_hypercliques, h)
        assert [c.members() for c in got] == [(0, 1, 2, 3)]

    def test_complete_graph_whole_universe(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        got = collect(enumerate_maximal_hypercliques, h)
        assert [c.members() for c in got] == [(0, 1, 2)]

    def test_rejects_non_uniform_and_small_arity(self):
        with pytest.raises(ValueError):
            enumerate_maximal_hypercliques(Hypergraph(3, [(0,), (0, 1)]))
        with pytest.raises(ValueError):
            enumerate_maximal_hypercliques(Hypergraph(3, [(0,), (1,)]))
        with pytest.raises(ValueError):
            enumerate_maximal_hypercliques(Hypergraph(3, []))  # ambiguous arity

    def test_edgeless_with_explicit_arity(self):
        assert collect(enumerate_maximal_hypercliques, Hypergraph(4, []), r=2) == []

    def test_matches_brute_force(self):
        rng = random.Random(79)
        for _ in range(60):
            r = rng.choice([2, 3])
            n = rng.randint(r, 7)
            h = random_uniform(rng, n, r)
            got = collect(enumerate_maximal_hypercliques, h, r=r)
            assert masks(got) == masks(brute_max_cliques(h, r))

    def test_matches_brute_force_where_edges_outnumber_vertices(self, monkeypatch):
        """At m >> n the tree walks a 416-edge complement of maximum
        degree 78, where the plain product walk made 3,945,889 product
        iterations.  The pinned count fails a sift built but not used, and
        a failed-trace memo that cuts nothing (19,242)."""
        h = uniform_instance(random.Random(0), 18, 400, 3)
        runs = []
        real = cliques.enumerate_tr

        def kept(g, sink):
            runs.append(real(g, sink))
            return runs[-1]

        monkeypatch.setattr(cliques, "enumerate_tr", kept)
        got = collect(enumerate_maximal_hypercliques, h)
        assert len(got) == 215
        assert masks(got) == masks(brute_max_cliques(h))
        (stats,) = runs
        assert stats.product_iterations == 14_813
        assert stats.work["candidates_dropped"] == 5_839


# A 3-uniform hypergraph whose maximal hypercliques have 3 and 4
# vertices, and the orders both complement routes stream on it.
H3 = Hypergraph(7, [
    (0, 3, 6), (0, 2, 5), (2, 4, 5), (1, 3, 6), (3, 5, 6), (0, 2, 4), (1, 2, 3),
    (1, 3, 5), (3, 4, 6), (0, 2, 3), (2, 3, 5), (0, 3, 4), (0, 5, 6), (0, 2, 6),
    (2, 4, 6), (3, 4, 5), (0, 1, 5), (0, 3, 5), (1, 2, 4), (2, 3, 4),
])
H3_HYPERCLIQUES = [
    (2, 3, 4, 5), (3, 4, 6), (2, 4, 6), (1, 3, 6), (1, 3, 5), (1, 2, 4),
    (1, 2, 3), (0, 3, 5, 6), (0, 2, 6), (0, 2, 3, 5), (0, 2, 3, 4), (0, 1, 5),
]
H3_INDEPENDENT_SETS = [
    (3, 5), (2, 4), (2, 3, 6), (1, 4, 5, 6), (1, 3, 4), (1, 2, 5, 6), (0, 4, 5),
    (0, 1, 4, 6), (0, 1, 3), (0, 1, 2),
]


@pytest.mark.parametrize("fn, h, want", [
    (enumerate_maximal_hypercliques, H3, H3_HYPERCLIQUES),
    (enumerate_maximal_independent_sets, H3, H3_INDEPENDENT_SETS),
    # every vertex is an edge: the one independent set is empty
    (enumerate_maximal_independent_sets, Hypergraph(2, [(0,), (1,)]), [()]),
])
def test_complement_routes_keep_their_order_and_limit(fn, h, want):
    """Hypercliques (r >= 3) keep the complements of at least r vertices
    and independent sets every complement, in the tree search's order; a
    limit cuts that order."""
    assert [c.members() for c in collect(fn, h)] == want
    for limit in (0, 1, 2):
        assert [c.members() for c in collect(fn, h, limit=limit)] == want[:limit]


class TestIndependentSets:
    def test_triangle(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        got = collect(enumerate_maximal_independent_sets, h)
        # a graph streams its vertices adjacent to all others first
        assert [c.members() for c in got] == [(0,), (1,), (2,)]

    def test_edgeless_gives_whole_universe(self):
        got = collect(enumerate_maximal_independent_sets, Hypergraph(3, []))
        assert [c.members() for c in got] == [(0, 1, 2)]

    def test_single_edge(self):
        h = Hypergraph(3, [(0, 1)])
        got = collect(enumerate_maximal_independent_sets, h)
        assert masks(got) == masks([VertexSet.of(3, 0, 2), VertexSet.of(3, 1, 2)])

    def test_complements_of_minimal_hitting_sets(self):
        rng = random.Random(83)
        for _ in range(40):
            r = rng.choice([2, 3])
            n = rng.randint(r, 7)
            h = random_uniform(rng, n, r)
            got = collect(enumerate_maximal_independent_sets, h)
            full = (1 << n) - 1
            assert masks(got) == {full & ~t.mask for t in brute_tr(h)}

    def test_graphs_match_the_complements_of_minimal_hitting_sets(self, corpus):
        # the graph route (with its single vertices) on the 2-section of
        # every corpus instance, edgeless and n <= 1 ones included
        extra = [Hypergraph(0, []), Hypergraph(1, []), Hypergraph(2, [(0, 1)])]
        for h in extra + [k_section(h, 2) for h in corpus]:
            got = collect(enumerate_maximal_independent_sets, h)
            full = (1 << h.n) - 1
            assert len(got) == len(masks(got)), h
            assert masks(got) == {full & ~t.mask for t in brute_tr(h)}, h

    def test_graph_takes_the_clique_route(self, monkeypatch):
        monkeypatch.setattr(cliques, "enumerate_tr", None)
        h = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        got = collect(enumerate_maximal_independent_sets, h)
        assert [c.members() for c in got] == [(0,), (2, 3), (1, 3)]
        assert collect(enumerate_maximal_independent_sets, h, limit=1) == got[:1]
        assert collect(enumerate_maximal_independent_sets, h, limit=2) == got[:2]

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError):
            enumerate_maximal_independent_sets(Hypergraph(3, [(0,), (0, 1)]))
