"""Maximal clique and hyperclique enumeration.

Graphs get a dedicated enumerator that grows the vertex set one vertex at
a time and walks the resulting tree of maximal cliques; its delay depends
only on the graph size, never on how many cliques were already produced.
Uniform hypergraphs of higher arity go through the complement: maximal
hypercliques are exactly the complements of the minimal hitting sets of
the non-edges.  A graph's maximal independent sets are the maximal
cliques of its complement graph (plus the vertices adjacent to all
others, alone), so they take the graph enumerator too.

Every enumerator here follows the sink protocol of ``enumeration``: a
sink may raise ``StopEnumeration`` to end the call, ``limit=N`` stops
right after the N-th output, and each returns the number of outputs it
delivered.
"""

from __future__ import annotations

from .core import Hypergraph, VertexSet, _uniform_rank, uniform_complement
from .enumeration import DelayStats, Sink, enumerate_tr, stream

__all__ = [
    "enumerate_maximal_cliques",
    "enumerate_maximal_hypercliques",
    "enumerate_maximal_independent_sets",
]


def _complements_of_tr(
    h: Hypergraph, floor: int, sink: Sink | None, limit: int | None
) -> int:
    """Stream the complements of ``enumerate_tr(h)``'s outputs that keep
    at least ``floor`` vertices, in its order."""
    full = (1 << h.n) - 1

    def run(out: Sink) -> None:
        def complement(t: VertexSet) -> None:
            c = full & ~t.mask
            if c.bit_count() >= floor:
                out(VertexSet(h.n, c))

        # a stop raised by ``out`` ends this tree run, and with it the call
        enumerate_tr(h, complement)

    return stream(DelayStats(), run, sink, limit).outputs


def enumerate_maximal_cliques(
    g: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> int:
    """Emit every maximal clique (>= 2 vertices) of a graph exactly once.

    Vertices are added in index order; a maximal clique C of the graph on
    the first i vertices either survives vertex i, absorbs it, or spawns
    the clique (C ∩ N(v_i)) ∪ {v_i} — the spawn is kept only when it is
    maximal so far and C is the least maximal clique containing its base,
    which makes every clique reachable from exactly one parent.  The work
    between two outputs is polynomial in the graph size regardless of how
    many cliques came before.
    """
    _uniform_rank(g, 2)
    n = g.n
    adj = [0] * n
    for e in g.edge_masks():
        a = (e & -e).bit_length() - 1
        b = e.bit_length() - 1
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def run(out: Sink) -> None:
        stack: list[tuple[int, int]] = [(0, 0)]  # (level, clique mask)
        while stack:
            i, c = stack.pop()
            if i == n:
                if c.bit_count() >= 2:
                    out(VertexSet(n, c))
                continue
            av = adj[i]
            if c & ~av == 0:
                # every clique vertex neighbors v_i: the clique absorbs it
                stack.append((i + 1, c | (1 << i)))
                continue
            base = c & av
            spawn = base | (1 << i)
            # one scan over the u < i outside the spawn for both tests:
            # maximality, and the parent test (c must be the least maximal
            # clique over base, grown greedily in index order)
            least = base
            for u in range(i):
                if (spawn >> u) & 1:
                    continue
                if spawn & ~adj[u] == 0:
                    break  # extendable below v_i: not maximal yet
                if least & ~adj[u] == 0:
                    least |= 1 << u
            else:
                if least == c:
                    stack.append((i + 1, spawn))
            stack.append((i + 1, c))

    return stream(DelayStats(), run, sink, limit).outputs


def enumerate_maximal_hypercliques(
    h: Hypergraph,
    sink: Sink | None = None,
    *,
    limit: int | None = None,
    r: int | None = None,
) -> int:
    """Emit the maximal hypercliques (>= r vertices, every r-subset an
    edge) of an r-uniform hypergraph: a graph's (r = 2) by
    ``enumerate_maximal_cliques``, and for r >= 3 via the complement's
    minimal hitting sets, discarding complements smaller than r."""
    r = _uniform_rank(h, r)
    if r < 2:
        raise ValueError("hypercliques need arity at least 2")
    if r == 2:
        return enumerate_maximal_cliques(h, sink, limit=limit)
    return _complements_of_tr(uniform_complement(h, r), r, sink, limit)


def enumerate_maximal_independent_sets(
    h: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> int:
    """Emit the maximal sets containing no edge of a uniform hypergraph;
    these are exactly the complements of its minimal hitting sets, with
    no size floor.

    A graph (2-uniform, at least one edge) takes the polynomial-delay
    route: first each vertex adjacent to all others, alone, then the
    maximal cliques of the complement graph, which has no edge at such a
    vertex.  Any other input streams the complements of ``enumerate_tr``'s
    outputs; an edgeless one gives the whole universe."""
    if h.edge_masks() and _uniform_rank(h, None) == 2:

        def run(out: Sink) -> None:
            for v in range(h.n):
                if h.degree(v) == h.n - 1:
                    out(VertexSet(h.n, 1 << v))
            # a stop raised by ``out`` ends this clique run, and with it the call
            enumerate_maximal_cliques(uniform_complement(h, 2), out)

        return stream(DelayStats(), run, sink, limit).outputs

    return _complements_of_tr(h, 0, sink, limit)
