"""Look-ahead extension search: emit the 0- and 1-extensions of a partial
solution X avoiding Y, then decide whether any minimal hitting set with at
least two more vertices remains, and if so grow the forbidden set.

That decision searches the product of per-x candidate private edges
depth-first in ``itertools.product`` order, cutting a prefix as soon as
some unhit reduced edge has no unblocked vertex left (the pruning rule of
Murakami and Uno's MMCS), so it returns the same first witness as the full
product walk while visiting only a fraction of it.  Before that walk it
tests the product's first combination as a whole: one that passes is the
first witness, and one that fails where every family has one candidate
ends the search.  Both give the walk's answer and its count of product
iterations, since blocking only grows along a combination.

Both queries, ``extend`` and ``find_higher_order``, start from one head,
``build_reduced_families``, read from this module's globals at every
call.  It takes an edge classification of X: the edges disjoint from X
(``uncov``) and, per member of X, the edges meeting X only there
(``crit``), both as edge-index bitmasks, as in MMCS.  The classification
has one construction, ``include_vertex``, which adds one vertex to it: a
tree search carries it down its include path and passes each node's to
``extend`` as ``state``, the look-ahead rank decider's seed walk makes
the same update inline, after its cheaper cuts, and passes each seed's
to ``find_higher_order``, and without ``state`` it is folded from the
root over X's members.  The head then reduces only the edges
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
    "include_vertex",
]

Sink = Callable[[VertexSet], None]


@dataclass(frozen=True)
class ExtensionOutcome:
    """HALT (``y_plus`` None), or CONTINUE WITH a grown forbidden set
    ``y_plus``.

    CONTINUE guarantees that a minimal extension with >= 2 extra vertices
    exists and that every such extension avoids ``y_plus`` entirely.
    """

    y_plus: VertexSet | None = None

    @property
    def continues(self) -> bool:
        return self.y_plus is not None


# Immutable, so every halting call returns this one instance.
_HALT = ExtensionOutcome(None)


def include_vertex(uncov: int, crit: list[int], ev: int) -> tuple[int, list[int]]:
    """The edge classification of X + v from X's and v's incidence mask
    ``ev``, in O(|X|) integer operations: v's critical edges are the
    uncovered ones it meets, appended last, and its edges leave ``uncov``
    and every other member's mask."""
    child = [c & ~ev for c in crit]
    child.append(uncov & ev)
    return uncov & ~ev, child


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
    inside Y.  Only an edge disjoint from X can lie inside Y, so the
    unhit pass is the whole dead-edge check.  On an edgeless hypergraph
    X = {} is the one minimal hitting set and any other X has a member
    without a private edge.
    """
    if x.n != h.n or y.n != h.n:
        raise ValueError("X and Y must live in the hypergraph's universe")
    if x.mask & y.mask:
        raise ValueError("X and Y must be disjoint")
    if state is None:
        # fold X's classification from the root's (every edge uncovered,
        # no members) over its members ascending, as a tree search does
        state = ((1 << h.m) - 1, [])
        for v in iter_bits(x.mask):
            state = include_vertex(*state, h.incidence[v])
    uncov, crit = state
    if 0 in crit:
        return None
    edges = h.edge_masks()
    keep = ~y.mask
    # the bit loops here are inlined: they run at every node
    unhit: list[int] = []
    forced = -1
    while uncov:
        low = uncov & -uncov
        em = edges[low.bit_length() - 1] & keep
        if em == 0:
            return None
        unhit.append(em)
        forced &= em
        uncov ^= low
    per_x: list[list[int]] = []
    veto = 0
    if unhit:
        for c in crit:
            if c & (c - 1) == 0:
                # one candidate: it is the family and its own core
                em = edges[c.bit_length() - 1] & keep
                per_x.append([em])
                veto |= em
                continue
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

    Two shortcuts settle a product before the odometer starts, by testing
    its first combination (each family's first candidate) as a whole.  If
    it leaves every unhit edge a free vertex, it is returned: each of its
    prefixes blocks less, so the odometer would accept it with no cut.  If
    it fails and every family has one candidate, the product is that one
    combination and the answer is None after one cut prefix.  Either way
    the answer and the count are the odometer's.

    ``product_iterations`` counts the cut prefixes plus the accepted
    combination.  These are disjoint blocks of the product, so the count
    stays within the product size and hence within Delta^|X|.  The empty
    product (X = empty) contributes exactly one combination.
    """
    if forced in unhit:
        # that unhit reduced edge is their intersection: nothing avoids it
        return None
    depth = len(per_x)
    # the product's first combination, tested as a whole
    taken = forced
    for fam in per_x:
        taken |= fam[0]
    free = ~taken
    for em in unhit:
        if not em & free:
            break
    else:
        # its prefixes block less, so each passes: the odometer accepts
        # it with no cut
        if counters is not None:
            counters["product_iterations"] += 1
        return [0] * depth
    for fam in per_x:
        if len(fam) > 1:
            break
    else:
        # the product is this one combination: one cut prefix
        if counters is not None:
            counters["product_iterations"] += 1
        return None
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
    ones = forced & ~veto
    if ones and sink is not None:
        n, xm = h.n, x.mask
        for b in iter_bits(ones):
            sink(VertexSet(n, xm | (1 << b)))
    if _higher_order_combo(per_x, unhit, forced, counters) is None:
        return _HALT
    y_plus = (y.mask | forced | veto) & ~x.mask
    return ExtensionOutcome(VertexSet(h.n, y_plus))


@dataclass(frozen=True)
class HigherOrderWitness:
    """Certificate that X has a minimal extension with >= 2 extra vertices."""

    forced: VertexSet  # vertices lying in every unhit reduced edge
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
    crit, unhit, forced, per_x, _veto = reduced
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
        edge_indices=tuple(chosen),
    )
