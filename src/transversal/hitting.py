"""Hitting-set predicates and minimization of a hitting set, on edge masks.

The package's one minimality test, ``_first_not_minimal``, packs H's
edges in lanes (``core._pack_lanes``), as ``minimize_edges`` and the
edge-family rank decider do, and tests each candidate t against all of
them at once: lane i of ``packed & (t * ones)`` holds e_i & t.  An empty
lane is an edge of H that t misses, and a lane with one vertex a private
edge, so t is minimal when it leaves no lane empty and its one-vertex
lanes cover it.  ``is_minimal_hitting_set`` asks it about one set, and
``verify_tr`` about every edge of G against one packing of H.
"""

from __future__ import annotations

from collections import Counter

from .core import Hypergraph, VertexSet, _pack_lanes

__all__ = [
    "is_hitting_set",
    "is_minimal_hitting_set",
    "minimize",
]


def hits_all_masks(edge_masks: tuple[int, ...], t: int) -> bool:
    return all(e & t for e in edge_masks)


def _first_not_minimal(g_masks: tuple[int, ...], h_masks: tuple[int, ...], n: int) -> int | None:
    """The first of ``g_masks`` that is no minimal hitting set of the edges
    ``h_masks``, or None: the packed-lane test of the module docstring.
    ``x & (x - 1)`` per lane finds the lanes with two or more vertices,
    and the rest are folded onto the lowest lane."""
    packed, ones, low, top = _pack_lanes(h_masks, n)
    lane = (1 << n) - 1
    # the shifts that fold every lane onto the lowest one
    folds = []
    lanes = len(h_masks)
    while lanes > 1:
        lanes = (lanes + 1) // 2
        folds.append(lanes * (n + 1))
    for ge in g_masks:
        meet = packed & (ge * ones)
        if (meet + low) & top != top:
            return ge  # an edge of H misses ge
        # x & (x - 1) per lane: adding each lane's top bit first keeps
        # the subtraction inside the lane
        multi = meet & ((meet | top) - ones)
        singles = meet & ~((((multi + low) & top) >> n) * lane)
        for shift in folds:
            singles |= singles >> shift
        if singles & lane != ge:
            return ge  # a vertex of ge has no private edge
    return None


def is_hitting_set(h: Hypergraph, t: VertexSet) -> bool:
    """True iff ``t`` intersects every edge (an empty edge defeats any t)."""
    return hits_all_masks(h.edge_masks(), t.mask)


def is_minimal_hitting_set(h: Hypergraph, t: VertexSet) -> bool:
    """True iff ``t`` hits every edge and each of its vertices has a private edge."""
    return _first_not_minimal((t.mask,), h.edge_masks(), h.n) is None


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
