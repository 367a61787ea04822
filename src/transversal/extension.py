"""Look-ahead extension search: emit the 0- and 1-extensions of a partial
solution X avoiding Y, then decide whether any minimal hitting set with at
least two more vertices remains, and if so grow the forbidden set.

That decision searches the product of per-x candidate private edges
depth-first in ``itertools.product`` order, cutting a prefix as soon as
some unhit reduced edge has no unblocked vertex left (the pruning rule of
Murakami and Uno's MMCS), so it returns the same first witness as the full
product walk while visiting only a fraction of it.

Everything here is pure over an immutable hypergraph; scratch state lives
per call, so concurrent calls on a shared hypergraph are fine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .core import Hypergraph, VertexSet, iter_bits

__all__ = [
    "ExtensionOutcome",
    "ReducedFamilies",
    "HigherOrderWitness",
    "build_reduced_families",
    "extend",
    "find_higher_order",
    "has_higher_order_extension",
]

Sink = Callable[[VertexSet], None]


@dataclass(frozen=True)
class ExtensionOutcome:
    """HALT, or CONTINUE WITH a grown forbidden set ``y_plus``.

    CONTINUE guarantees that a minimal extension with >= 2 extra vertices
    exists and that every such extension avoids ``y_plus`` entirely.
    """

    y_plus: VertexSet | None = None

    @property
    def halted(self) -> bool:
        return self.y_plus is None

    @property
    def continues(self) -> bool:
        return self.y_plus is not None

    @classmethod
    def halt(cls) -> "ExtensionOutcome":
        return cls(None)

    @classmethod
    def continue_with(cls, y_plus: VertexSet) -> "ExtensionOutcome":
        return cls(y_plus)

    def __repr__(self) -> str:
        if self.y_plus is None:
            return "ExtensionOutcome.halt()"
        return f"ExtensionOutcome.continue_with({self.y_plus!r})"


@dataclass
class ReducedFamilies:
    """Scratch families for one (X, Y) query, edges reduced by Y.

    ``per_x[i]`` holds the candidate private edges of the i-th vertex of X
    (ascending) as ``(edge_index, reduced_mask)`` pairs; every candidate
    contains its vertex.  ``unhit`` holds the reduced edges disjoint from
    X.  ``forced_mask`` is the intersection of the unhit reduced edges
    (vertices any one of which completes X to a hitting set; None when
    nothing is unhit).  ``veto_mask`` collects the vertices lying in every
    candidate private edge of some member of X, whose inclusion would
    leave that member redundant (None when some family is empty).
    ``dead_edge`` flags an edge fully inside Y, which rules out any
    extension at all.
    """

    x_vertices: tuple[int, ...]
    per_x: list[list[tuple[int, int]]]
    unhit: list[tuple[int, int]]
    dead_edge: int | None
    missing_private: int | None
    forced_mask: int | None
    veto_mask: int | None


def _validate(h: Hypergraph, x: VertexSet, y: VertexSet) -> None:
    if h.m == 0:
        raise ValueError("hypergraph has no edges; every vertex set extends trivially")
    if x.n != h.n or y.n != h.n:
        raise ValueError("X and Y must live in the hypergraph's universe")
    if x.mask & y.mask:
        raise ValueError("X and Y must be disjoint")


def build_reduced_families(h: Hypergraph, x: VertexSet, y: VertexSet) -> ReducedFamilies:
    xm, ym = x.mask, y.mask
    xs = tuple(iter_bits(xm))
    position = {v: i for i, v in enumerate(xs)}
    per_x: list[list[tuple[int, int]]] = [[] for _ in xs]
    unhit: list[tuple[int, int]] = []
    for idx, e in enumerate(h.edge_masks()):
        if e & ~ym == 0:
            return ReducedFamilies(xs, per_x, unhit, idx, None, None, None)
        ex = e & xm
        if ex == 0:
            unhit.append((idx, e & ~ym))
        elif ex & (ex - 1) == 0:
            per_x[position[ex.bit_length() - 1]].append((idx, e & ~ym))
        # edges meeting X in >= 2 vertices can never be private: drop them
    missing = None
    for i, fam in enumerate(per_x):
        if not fam:
            missing = xs[i]
            break
    forced_mask: int | None = None
    if unhit:
        forced_mask = unhit[0][1]
        for _, em in unhit:
            forced_mask &= em
    veto_mask: int | None = None
    if missing is None:
        veto_mask = 0
        for fam in per_x:
            core = fam[0][1]
            for _, em in fam:
                core &= em
            veto_mask |= core
    return ReducedFamilies(xs, per_x, unhit, None, missing, forced_mask, veto_mask)


def _higher_order_combo(
    fam: ReducedFamilies, counters: Counter | None
) -> tuple[tuple[int, int], ...] | None:
    """Search the Cartesian product of candidate private edges for a
    combination proving a higher-order extension; None if there is none.

    The walk is a depth-first odometer over ``per_x`` in x-ascending
    order, trying each family's candidates as they come, so the product
    is visited in ``itertools.product`` order.  A prefix is cut as soon as
    some unhit reduced edge lies inside ``forced`` plus the chosen edges:
    blocking only grows, so no completion of that prefix can succeed, and
    the first combination returned is the first one of the full product.

    ``product_iterations`` counts the cut prefixes plus the accepted
    combination.  These are disjoint blocks of the product, so the count
    stays within the product size and hence within Delta^|X|.  The empty
    product (X = empty) contributes exactly one combination.
    """
    forced = fam.forced_mask or 0
    unhit_masks = [em for _, em in fam.unhit]
    if forced in unhit_masks:
        # that unhit reduced edge is their intersection: nothing avoids it
        return None
    per_x = fam.per_x
    depth = len(per_x)
    pos = [0] * (depth + 1)
    # blocked[i]: forced plus the edges chosen at depths < i
    blocked = [forced] * (depth + 1)
    cuts = 0
    i = 0
    while i < depth:
        if pos[i] == len(per_x[i]):
            if i == 0:
                if counters is not None:
                    counters["product_iterations"] += cuts
                return None
            i -= 1
            pos[i] += 1
            continue
        free = ~(blocked[i] | per_x[i][pos[i]][1])
        for em in unhit_masks:
            if not em & free:
                cuts += 1
                pos[i] += 1
                break
        else:
            i += 1
            blocked[i] = ~free
            pos[i] = 0
    if counters is not None:
        counters["product_iterations"] += cuts + 1
    return tuple([per_x[j][pos[j]] for j in range(depth)])


def extend(
    h: Hypergraph,
    x: VertexSet,
    y: VertexSet,
    sink: Sink | None = None,
    *,
    counters: Counter | None = None,
) -> ExtensionOutcome:
    """Send every minimal extension of ``x`` avoiding ``y`` that has at
    most one extra vertex to ``sink`` (x itself first if minimal, then
    x+{v} for eligible v ascending), and report whether larger extensions
    remain.

    On CONTINUE the forbidden set grows by the vertices that would
    complete x in a single step and by those that would strip a member of
    x of its last candidate private edge; no remaining extension can use
    either kind.
    """
    _validate(h, x, y)
    n = h.n
    emit = sink if sink is not None else (lambda _t: None)
    fam = build_reduced_families(h, x, y)
    if fam.dead_edge is not None or fam.missing_private is not None:
        return ExtensionOutcome.halt()
    if not fam.unhit:
        # x hits everything and each of its vertices kept a private edge
        emit(x)
        return ExtensionOutcome.halt()
    forced = fam.forced_mask or 0
    veto = fam.veto_mask or 0
    for b in iter_bits(forced & ~veto):
        emit(VertexSet(n, x.mask | (1 << b)))
    combo = _higher_order_combo(fam, counters)
    if combo is None:
        return ExtensionOutcome.halt()
    y_plus = (y.mask | forced | veto) & ~x.mask
    return ExtensionOutcome.continue_with(VertexSet(n, y_plus))


@dataclass(frozen=True)
class HigherOrderWitness:
    """Certificate that X has a minimal extension with >= 2 extra vertices."""

    forced: VertexSet  # vertices lying in every unhit reduced edge
    veto: VertexSet  # vertices whose inclusion would make some x redundant
    edge_indices: tuple[int, ...]  # chosen candidate private edge per x, ascending x


def find_higher_order(
    h: Hypergraph,
    x: VertexSet,
    y: VertexSet | None = None,
    *,
    counters: Counter | None = None,
) -> HigherOrderWitness | None:
    """Decide higher-order extendability without emitting solutions."""
    if y is None:
        y = VertexSet(h.n)
    _validate(h, x, y)
    fam = build_reduced_families(h, x, y)
    if fam.dead_edge is not None or fam.missing_private is not None or not fam.unhit:
        return None
    combo = _higher_order_combo(fam, counters)
    if combo is None:
        return None
    return HigherOrderWitness(
        forced=VertexSet(h.n, fam.forced_mask or 0),
        veto=VertexSet(h.n, fam.veto_mask or 0),
        edge_indices=tuple(idx for idx, _ in combo),
    )


def has_higher_order_extension(
    h: Hypergraph,
    x: VertexSet,
    y: VertexSet | None = None,
    *,
    counters: Counter | None = None,
) -> bool:
    return find_higher_order(h, x, y, counters=counters) is not None
