"""Hitting-set predicates and minimization of a hitting set, on edge masks."""

from __future__ import annotations

from collections import Counter

from .core import Hypergraph, VertexSet

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

    A two-phase sweep over the edge masks.  Phase 1 puts into ``T`` every
    vertex that is the only one of ``s`` in some edge.  Phase 2 takes the
    edges in input order; while ``T`` misses the edge, it drops the edge's
    lowest live vertex (in ``s``, not yet taken or dropped), then scans
    the edges containing the dropped vertex in input order, and each one
    that ``T`` still misses and that now holds a single live vertex gives
    that vertex to ``T``.  A vertex thus joins ``T`` only with a private
    edge, so the result is minimal, and every tie-break is fixed.

    The work is O(m * |s|) edge-mask reads: m for phase 1, m for the
    phase-2 scan and m per dropped vertex.  When ``counters`` is given,
    they are tallied under ``adjacency_touches``.
    """
    masks = h.edge_masks()
    if not hits_all_masks(masks, s.mask):
        raise ValueError("input is not a hitting set")
    m = len(masks)
    t = 0
    for e in masks:
        es = e & s.mask
        if es & (es - 1) == 0:  # s meets e in one vertex: a private edge
            t |= es
    live = s.mask & ~t
    # from here on every edge that T misses holds two or more live
    # vertices between drops, so ``low`` and ``rest`` are never 0
    drops = 0
    for e in masks:
        while not e & t:
            low = e & live
            low &= -low
            live ^= low
            drops += 1
            for f in masks:
                if f & low and not f & t:
                    rest = f & live
                    if rest & (rest - 1) == 0:
                        t |= rest
                        live ^= rest
    if counters is not None:
        counters["adjacency_touches"] += m * (2 + drops)
    return VertexSet(h.n, t)
