"""Decide whether a candidate hypergraph G is exactly the family of
minimal hitting sets of H, and on failure extract a counter-witness the
incremental enumerator can turn into a fresh solution.

Two checks: every edge of G must be a minimal hitting set of H, and
every minimal hitting set of G must be an edge of H (the dual check of
Eiter and Gottlob).  The second enumerates G's minimal hitting sets with
the tree search and stops at the first that is no edge of H; the ones it
passes are distinct edges of H, so at most m+1 are ever seen.  That
first miss S is the counter-witness: the complement of S is a hitting
set of H none of whose minimal subsets is already in G.  The check's sink
records S and raises ``StopEnumeration``, which ends that inner
enumeration only: an enumerator calling ``verify_tr`` keeps running.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Hypergraph, VertexSet
from .hitting import is_minimal_mask, minimize
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


def verify_tr(
    g: Hypergraph, h: Hypergraph, *, counters: Counter | None = None
) -> VerifyOutcome:
    """``Equal`` when G is exactly the transversal hypergraph of H, else the
    first failing check's witness.  ``counters`` tallies the minimal
    hitting sets of G examined under ``verify_g_outputs``, plus the work
    of the tree search that found them (``product_iterations``)."""
    if g.n != h.n:
        raise ValueError("both hypergraphs must share the universe")
    h_masks = h.edge_masks()
    h_mask_set = h.edge_mask_set()

    # 1: G contains only minimal hitting sets of H.
    for ge in g.edge_masks():
        if not is_minimal_mask(h_masks, ge):
            return NotSubset(VertexSet(g.n, ge))

    # 2: every minimal hitting set of G is an edge of H.  An empty edge in
    # G leaves G without hitting sets, which passes trivially.
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
