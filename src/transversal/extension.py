"""Look-ahead extension search: emit the 0- and 1-extensions of a partial
solution X avoiding Y, then decide whether any minimal hitting set with at
least two more vertices remains, and if so grow the forbidden set.

That decision searches the product of per-x candidate private edges
depth-first in ``itertools.product`` order, cutting a prefix as soon as
some unhit reduced edge has no unblocked vertex left (the pruning rule of
Murakami and Uno's MMCS), so it returns the same first witness as the full
product walk while visiting only a fraction of it.

Both queries, ``extend`` and ``find_higher_order``, start from one head,
``build_reduced_families``, read from this module's globals at every
call.  It takes an edge classification of X: the edges disjoint from X
(``uncov``) and, per member of X, the edges meeting X only there
(``crit``), both as edge-index bitmasks, as in MMCS.  The classification
has one construction, ``include_vertex``, which adds one vertex to it: a
tree search carries it down its include path and passes each node's to
``extend`` as ``state``, the look-ahead rank decider carries each seed's
to ``find_higher_order`` the same way, and without ``state`` it is folded
from the root over X's members.  The head then reduces only the edges
the classification names by Y.  Everything here is pure over an
immutable hypergraph and only reads ``state``, so concurrent calls on a
shared hypergraph are fine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .core import Hypergraph, VertexSet, iter_bits

__all__ = [
    "ExtensionOutcome",
    "HigherOrderWitness",
    "build_reduced_families",
    "extend",
    "find_higher_order",
    "incidence_masks",
    "include_vertex",
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
        return _HALT

    @classmethod
    def continue_with(cls, y_plus: VertexSet) -> "ExtensionOutcome":
        return cls(y_plus)

    def __repr__(self) -> str:
        if self.y_plus is None:
            return "ExtensionOutcome.halt()"
        return f"ExtensionOutcome.continue_with({self.y_plus!r})"


# Immutable, so every halted call returns this one instance.
_HALT = ExtensionOutcome(None)


def _validate(h: Hypergraph, x: VertexSet, y: VertexSet) -> None:
    if h.m == 0:
        raise ValueError("hypergraph has no edges; every vertex set extends trivially")
    if x.n != h.n or y.n != h.n:
        raise ValueError("X and Y must live in the hypergraph's universe")
    if x.mask & y.mask:
        raise ValueError("X and Y must be disjoint")


def incidence_masks(h: Hypergraph) -> list[int]:
    """``E_v`` for every vertex v: the edge-index mask of the edges
    containing v, in O(sum of edge sizes)."""
    incidence = [0] * h.n
    bit = 1
    for e in h.edge_masks():
        while e:
            low = e & -e
            incidence[low.bit_length() - 1] |= bit
            e ^= low
        bit <<= 1
    return incidence


def include_vertex(uncov: int, crit: list[int], ev: int) -> tuple[int, list[int]]:
    """The edge classification of X + v from X's and v's incidence mask
    ``ev``, in O(|X|) integer operations: v's critical edges are the
    uncovered ones it meets, appended last, and its edges leave ``uncov``
    and every other member's mask."""
    child = [c & ~ev for c in crit]
    child.append(uncov & ev)
    return uncov & ~ev, child


def _classify(h: Hypergraph, xm: int) -> tuple[int, list[int]]:
    """The edge classification of X, folded from the root's (every edge
    uncovered, no members) by ``include_vertex`` over X's members in
    ascending order, exactly as a tree search carries it down."""
    incidence = incidence_masks(h)
    state: tuple[int, list[int]] = ((1 << h.m) - 1, [])
    for v in iter_bits(xm):
        state = include_vertex(*state, incidence[v])
    return state


def _reduce_unhit(
    edges: tuple[int, ...], keep: int, uncov: int
) -> tuple[int | None, list[int], int]:
    """Reduce the edges disjoint from X to ``keep`` (the complement of Y).

    Returns ``(dead, unhit, forced)``: the reduced masks in edge-index
    order (their indices are the bits of ``uncov``) and their intersection
    (-1 when there are none); or, when one of them lies inside Y, its
    index as ``dead`` with nothing else.  Only an edge disjoint from X can
    lie inside Y, so this is the whole dead-edge check.
    """
    # the bit loops here and below are inlined: they run at every node
    unhit: list[int] = []
    forced = -1
    while uncov:
        low = uncov & -uncov
        em = edges[low.bit_length() - 1] & keep
        if em == 0:
            return low.bit_length() - 1, [], -1
        unhit.append(em)
        forced &= em
        uncov ^= low
    return None, unhit, forced


def _reduce_private(
    edges: tuple[int, ...], keep: int, crit: list[int]
) -> tuple[list[list[int]], int]:
    """Reduce each member of X's candidate private edges to ``keep``;
    every member must have one.

    Returns ``(per_x, veto)``: per member, the reduced masks in edge-index
    order (their indices are the bits of its ``crit`` mask), and the union
    over members of their intersections.
    """
    per_x: list[list[int]] = []
    veto = 0
    for c in crit:
        fam = []
        core = -1
        while c:
            low = c & -c
            em = edges[low.bit_length() - 1] & keep
            fam.append(em)
            core &= em
            c ^= low
        per_x.append(fam)
        veto |= core
    return per_x, veto


def build_reduced_families(
    h: Hypergraph, x: VertexSet, y: VertexSet, state: tuple[int, list[int]] | None = None
) -> tuple[list[int], list[int], int, list[list[int]], int] | None:
    """The head of ``extend`` and ``find_higher_order``: validate, take
    X's edge classification ``state`` (or fold it from the root) and
    reduce its families by Y.

    Returns ``(crit, unhit, forced, per_x, veto)``: X's critical masks;
    the unhit reduced edges (edge-index order, their indices the bits of
    ``uncov``) and their intersection ``forced`` (-1 when there are
    none); per member of X its candidate private edges reduced by Y (in
    the order of the bits of its ``crit`` mask), and ``veto``, the union
    over members of those edges' intersections.  An empty ``unhit`` means
    that X is itself a minimal hitting set; ``per_x`` is then left empty
    and ``veto`` 0.  None means that X has no extension avoiding Y at
    all: a member of X has no candidate private edge, or an edge lies
    inside Y.
    """
    _validate(h, x, y)
    uncov, crit = _classify(h, x.mask) if state is None else state
    if 0 in crit:
        return None
    edges = h.edge_masks()
    keep = ~y.mask
    dead, unhit, forced = _reduce_unhit(edges, keep, uncov)
    if dead is not None:
        return None
    if not unhit:
        return crit, unhit, forced, [], 0
    per_x, veto = _reduce_private(edges, keep, crit)
    return crit, unhit, forced, per_x, veto


def _higher_order_combo(
    per_x: list[list[int]], unhit: list[int], forced: int, counters: Counter | None
) -> list[int] | None:
    """Search the Cartesian product of candidate private edges for a
    combination proving a higher-order extension; return the chosen
    position in each family, or None if there is none.

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
    if forced in unhit:
        # that unhit reduced edge is their intersection: nothing avoids it
        return None
    depth = len(per_x)
    pos = [0] * (depth + 1)
    # blocked[i]: forced plus the edges chosen at depths < i
    blocked = [forced] * (depth + 1)
    cuts = 0
    i = 0
    while i < depth:
        fam = per_x[i]
        if pos[i] == len(fam):
            if i == 0:
                if counters is not None:
                    counters["product_iterations"] += cuts
                return None
            i -= 1
            pos[i] += 1
            continue
        free = ~(blocked[i] | fam[pos[i]])
        for em in unhit:
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
    del pos[depth]
    return pos


def extend(
    h: Hypergraph,
    x: VertexSet,
    y: VertexSet,
    sink: Sink | None = None,
    *,
    counters: Counter | None = None,
    state: tuple[int, list[int]] | None = None,
) -> ExtensionOutcome:
    """Send every minimal extension of ``x`` avoiding ``y`` that has at
    most one extra vertex to ``sink`` (x itself first if minimal, then
    x+{v} for eligible v ascending), and report whether larger extensions
    remain.

    On CONTINUE the forbidden set grows by the vertices that would
    complete x in a single step and by those that would strip a member of
    x of its last candidate private edge; no remaining extension can use
    either kind.

    ``state`` is the edge classification of ``x`` as ``(uncov, crit)``:
    the edge-index mask of the edges disjoint from x, and one edge-index
    mask per member of x (ascending) of the edges meeting x only there.
    ``enumerate_tr`` carries it down its search tree and passes it at
    every node, so the node touches only the edges it names; it is only
    read.  When it is None (the CLI and direct callers) it is carried
    from the root, one member of x at a time.  Y does not enter it.
    """
    reduced = build_reduced_families(h, x, y, state)
    if reduced is None:
        return _HALT
    _crit, unhit, forced, per_x, veto = reduced
    if not unhit:
        # x hits everything and each of its vertices kept a private edge
        if sink is not None:
            sink(x)
        return _HALT
    if sink is not None:
        n, xm = h.n, x.mask
        for b in iter_bits(forced & ~veto):
            sink(VertexSet(n, xm | (1 << b)))
    if _higher_order_combo(per_x, unhit, forced, counters) is None:
        return _HALT
    y_plus = (y.mask | forced | veto) & ~x.mask
    return ExtensionOutcome.continue_with(VertexSet(h.n, y_plus))


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
    state: tuple[int, list[int]] | None = None,
) -> HigherOrderWitness | None:
    """Decide higher-order extendability without emitting solutions.

    ``state`` is x's edge classification, as for ``extend``; when it is
    None it is carried from the root.
    """
    if y is None:
        y = VertexSet(h.n)
    reduced = build_reduced_families(h, x, y, state)
    if reduced is None or not reduced[1]:
        return None
    crit, unhit, forced, per_x, veto = reduced
    pos = _higher_order_combo(per_x, unhit, forced, counters)
    if pos is None:
        return None
    # each member's chosen edge index is the p-th lowest bit of its crit mask
    chosen = []
    for c, p in zip(crit, pos):
        for _ in range(p):
            c &= c - 1
        chosen.append((c & -c).bit_length() - 1)
    return HigherOrderWitness(
        forced=VertexSet(h.n, forced),
        veto=VertexSet(h.n, veto),
        edge_indices=tuple(chosen),
    )
