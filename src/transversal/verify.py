"""Decide whether a candidate hypergraph G is exactly the family of
minimal hitting sets of H, and on failure extract a counter-witness the
incremental enumerator can turn into a fresh solution.

Two checks: every edge of G must be a minimal hitting set of H, and
every minimal hitting set of G must be an edge of H (the dual check of
Eiter and Gottlob).  The first packs H's edges in lanes
(``core._pack_lanes``), as ``minimize_edges`` and the edge-family rank
decider do, and tests each edge g of G against all of them at once: an
empty lane of ``packed & (g * ones)`` is an edge of H that g misses, and
a lane with one vertex a private edge, so g passes when it leaves no
lane empty and its one-vertex lanes cover it.  The lanes are packed
only when G has an edge, and released before the dual check.  The
second enumerates G's minimal hitting sets with the tree search and
stops at the first that is no edge of H; the ones it passes are
distinct edges of H, so at most m+1 are ever seen.  That first miss S
is the counter-witness: the complement of S is a hitting set of H none
of whose minimal subsets is already in G.  The check's sink records S
and raises ``StopEnumeration``, which ends that inner enumeration only:
an enumerator calling ``verify_tr`` keeps running.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Hypergraph, VertexSet, _pack_lanes
from .hitting import minimize
from . import enumeration

__all__ = ["VerifyOutcome", "Equal", "NotSubset", "MissingSolution", "verify_tr"]


class VerifyOutcome:
    """Base of Equal / NotSubset / MissingSolution."""

    __slots__ = ()

    @property
    def equal(self) -> bool:
        return isinstance(self, Equal)


@dataclass(frozen=True, slots=True)
class Equal(VerifyOutcome):
    """G is exactly the transversal hypergraph of H."""


@dataclass(frozen=True, slots=True)
class NotSubset(VerifyOutcome):
    """Some edge ``g`` of G is not a minimal hitting set of H."""

    g: VertexSet


@dataclass(frozen=True, slots=True)
class MissingSolution(VerifyOutcome):
    """``s`` is a minimal hitting set of G absent from H's edges, and
    ``t`` the fresh minimal hitting set of H extracted from it."""

    s: VertexSet
    t: VertexSet


def _first_not_minimal(g_masks: tuple[int, ...], h_masks: tuple[int, ...], n: int) -> int | None:
    """The first of ``g_masks`` that is no minimal hitting set of the edges
    ``h_masks``, or None.

    H's edges are packed in lanes (``core._pack_lanes``), so each edge g
    of G meets all of them at once: lane i of ``packed & (g * ones)``
    holds e_i & g.  An empty lane is an edge g misses.  Otherwise g is
    minimal when the lanes holding one vertex (private edges) cover g;
    ``x & (x - 1)`` per lane finds the lanes with two or more, and the
    rest are folded onto the lowest lane.
    """
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


def verify_tr(
    g: Hypergraph, h: Hypergraph, *, counters: Counter | None = None
) -> VerifyOutcome:
    """``Equal`` when G is exactly the transversal hypergraph of H, else the
    first failing check's witness.  ``counters`` tallies the minimal
    hitting sets of G examined under ``verify_g_outputs``, plus the work
    of the tree search that found them (``product_iterations``)."""
    if g.n != h.n:
        raise ValueError("both hypergraphs must share the universe")
    # 1: G contains only minimal hitting sets of H.
    if g.m:
        bad = _first_not_minimal(g.edge_masks(), h.edge_masks(), h.n)
        if bad is not None:
            return NotSubset(VertexSet(g.n, bad))

    # 2: every minimal hitting set of G is an edge of H.  An empty edge in
    # G leaves G without hitting sets, which passes trivially.
    h_mask_set = h.edge_mask_set()
    misses: list[VertexSet] = []

    def check(s: VertexSet) -> None:
        if counters is not None:
            counters["verify_g_outputs"] += 1
        if s.mask not in h_mask_set:
            misses.append(s)
            raise enumeration.StopEnumeration

    run = enumeration.enumerate_tr(g, check)
    if counters is not None:
        counters.update(run.work)
    if not misses:
        return Equal()
    return MissingSolution(misses[0], minimize(h, misses[0].complement()))
