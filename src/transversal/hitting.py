"""Hitting-set predicates and linear-pass minimization of a hitting set."""

from __future__ import annotations

from collections import Counter, deque

from .core import Hypergraph, VertexSet, iter_bits

__all__ = [
    "is_hitting_set",
    "is_minimal_hitting_set",
    "minimize",
]


def hits_all_masks(edge_masks: tuple[int, ...], t: int) -> bool:
    return all(e & t for e in edge_masks)


def is_minimal_mask(edge_masks: tuple[int, ...], t: int) -> bool:
    if not hits_all_masks(edge_masks, t):
        return False
    needed = 0
    for e in edge_masks:
        et = e & t
        if et & (et - 1) == 0:  # exactly one bit: a private edge
            needed |= et
            if needed == t:
                return True
    return needed == t


def is_hitting_set(h: Hypergraph, t: VertexSet) -> bool:
    """True iff ``t`` intersects every edge (an empty edge defeats any t)."""
    return hits_all_masks(h.edge_masks(), t.mask)


def is_minimal_hitting_set(h: Hypergraph, t: VertexSet) -> bool:
    """True iff ``t`` hits every edge and each of its vertices has a private edge."""
    return is_minimal_mask(h.edge_masks(), t.mask)


def minimize(
    h: Hypergraph, s: VertexSet, *, counters: Counter | None = None
) -> VertexSet:
    """Shrink the hitting set ``s`` to a minimal hitting set ``T ⊆ s``.

    Two-phase sweep over the bipartite incidence graph between ``s`` and
    the edges: a vertex joins ``T`` only when it is the unique live
    neighbor of some live edge, which forces a private edge for it.
    Tie-breaks are fixed (edges in input order, then lowest-index live
    edge and its lowest-index live vertex) so the result is
    deterministic.  Total adjacency work is O(m * |s|); when ``counters``
    is given, every adjacency-entry visit bumps ``adjacency_touches``.
    """
    masks = h.edge_masks()
    if not hits_all_masks(masks, s.mask):
        raise ValueError("input is not a hitting set")
    n = h.n
    m = len(masks)

    def bump(amount: int = 1) -> None:
        if counters is not None:
            counters["adjacency_touches"] += amount

    # Incidence lists restricted to s, plus live flags and degree counts.
    edge_vertices: list[list[int]] = []
    vertex_edges: dict[int, list[int]] = {v: [] for v in iter_bits(s.mask)}
    degree = [0] * m
    for idx, e in enumerate(masks):
        inc = list(iter_bits(e & s.mask))
        bump(len(inc))
        edge_vertices.append(inc)
        degree[idx] = len(inc)
        for v in inc:
            vertex_edges[v].append(idx)

    edge_alive = [True] * m
    vertex_alive = {v: True for v in vertex_edges}
    cursor = [0] * m  # per-edge scan position; removed vertices never revive
    t_mask = 0

    def first_alive_vertex(idx: int) -> int:
        inc = edge_vertices[idx]
        pos = cursor[idx]
        while not vertex_alive[inc[pos]]:
            bump()
            pos += 1
        bump()
        cursor[idx] = pos
        return inc[pos]

    def take(v: int) -> None:
        # v gets a private edge: put it in T, drop v and every edge it hits.
        nonlocal t_mask
        t_mask |= 1 << v
        vertex_alive[v] = False
        for idx in vertex_edges[v]:
            bump()
            edge_alive[idx] = False

    pending: deque[int] = deque()

    def drop_vertex(v: int) -> None:
        vertex_alive[v] = False
        for idx in vertex_edges[v]:
            bump()
            if edge_alive[idx]:
                degree[idx] -= 1
                if degree[idx] == 1:
                    pending.append(idx)

    def flush_pending() -> None:
        while pending:
            idx = pending.popleft()
            if edge_alive[idx]:
                take(first_alive_vertex(idx))

    # Phase 1: edges already owned by a single vertex of s.
    for idx in range(m):
        if edge_alive[idx] and degree[idx] == 1:
            take(first_alive_vertex(idx))

    # Phase 2: peel an arbitrary (lowest-index) vertex off the lowest live
    # edge until the degree-1 rule covers everything.
    scan = 0
    while True:
        while scan < m and not edge_alive[scan]:
            scan += 1
        if scan == m:
            break
        drop_vertex(first_alive_vertex(scan))
        flush_pending()

    return VertexSet(n, t_mask)
