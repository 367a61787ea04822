"""Look-ahead extension search: emit the 0- and 1-extensions of a partial
solution X avoiding Y, then decide whether any minimal hitting set with at
least two more vertices remains, and if so grow the forbidden set.

The queries read X's edge classification, as in MMCS: the edges disjoint
from X (``uncov``) and, per member of X, the edges meeting X only there
(``crit``), both as edge-index bitmasks, plus two unions: the veto
that ``extend`` adds to the forbidden set and the ``crit`` masks'
(``cand``).  ``include_vertex`` adds one vertex to these four fields,
refolding only the members whose candidates the vertex removes.  A tree
search carries them down its include path and passes each node's to
``extend`` as ``state``.  The look-ahead rank decider's seed walk makes
the ``(uncov, crit)`` update inline and passes each seed's to
``find_higher_order``, which needs no veto.  Without ``state`` it is
folded from the root over X's members.

Both queries start from one head, ``build_reduced_families``, read from
this module's globals at every call.  It reduces the unhit edges by Y and
leaves the candidate private edges as the ``crit`` bits name them.

The decision searches the product of the members' candidate private
edges depth-first, in ``itertools.product`` order.  It cuts a prefix as
soon as some unhit edge has no unblocked vertex left (the pruning rule of
Murakami and Uno's MMCS).  So it returns the same first witness as the
full product walk while visiting only a fraction of it.  Before the walk
it tests the product's first combination as a whole.  One that passes is
the first witness; one that fails where every member has one candidate
ends the search.  Both give the walk's answer and its count.

A candidate matters to the walk only through its trace on the unhit
edges, and when m >> n most candidates repeat or hold an earlier one's
trace.  So the first time a member below the top runs out, the walk
sifts its candidates once for every later prefix (``_sift``, as in
MMCS's candidate pruning): it drops one that blocks an unhit edge by
itself and one whose trace holds an earlier kept candidate's.  Neither
lies in the first witness, so answers and witnesses stay the full
product's, and ``product_iterations`` can only fall; the dropped
candidates count in ``candidates_dropped``.  A walk that never backtracks
never sifts.  Each time a member runs out, the walk also records the
prefix's trace on the unhit edges as failed for that depth (nogood
recording), and a later prefix that reaches the depth with a recorded
trace is cut, so no (depth, trace) is walked twice.

Both queries call one decision, ``_higher_order_combo``, with the veto
as its argument.  Between the first-combination test and the walk it
checks a "no" certificate: an unhit edge inside ``forced`` plus the veto.
Every candidate of a member contains the member's core, so every
combination blocks the veto, and the walk could only cut each prefix.  A
certified "no" counts one cut prefix, the empty one, in
``product_iterations``, and one in ``veto_certified``.
``find_higher_order`` reads no veto and passes 0, where the certificate
never fires.

Everything here is pure over an immutable hypergraph and only reads
``state``, so concurrent calls on a shared hypergraph are fine.
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
_from_mask = VertexSet._from_mask


def _core(c: int, edges: tuple[int, ...]) -> int:
    """The intersection of the edges named by the bits of ``c``, 0 when
    there are none.  A member lies in each of its candidates, so a core
    down to one vertex is that member alone and no later candidate
    changes it."""
    if not c:
        return 0
    after = c & (c - 1)
    core = edges[(c ^ after).bit_length() - 1]
    while after and core & (core - 1):
        c = after
        after = c & (c - 1)
        core &= edges[(c ^ after).bit_length() - 1]
    return core


def include_vertex(
    state: tuple[int, list[int], int, int], ev: int, edges: tuple[int, ...]
) -> tuple[int, list[int], int, int]:
    """The edge classification ``(uncov, crit, veto, cand)`` of X + v from
    X's ``state`` and v's incidence mask ``ev``: v's critical edges are
    the uncovered ones it meets, appended last, and its edges leave
    ``uncov`` and every other member's mask.

    The veto is the union over the members of the intersection of their
    candidate private edges (their core), and ``cand`` the union of the
    ``crit`` masks.  When v meets no edge of ``cand`` no member's
    candidates change, so the child extends each field by v's own part
    alone.  Otherwise a core only grows as candidates leave, so the
    child's veto is X's ORed with the refolded cores of the members whose
    mask v met."""
    uncov, crit, veto, cand = state
    own = uncov & ev
    veto |= _core(own, edges)
    if not cand & ev:
        # on sparse inputs most include steps change no member's candidates
        return uncov ^ own, crit + [own], veto, cand | own
    nev = ~ev
    child = [c & nev for c in crit]
    for c, d in zip(crit, child):
        if c != d:
            veto |= _core(d, edges)
    child.append(own)
    return uncov ^ own, child, veto, cand & nev | own


def _classify(h: Hypergraph, x: VertexSet) -> tuple[int, list[int], int, int]:
    """X's edge classification folded from the root's (every edge
    uncovered, no members, no veto, no candidates) over its members
    ascending, as a tree search does."""
    if x.n != h.n:
        raise ValueError("X and Y must live in the hypergraph's universe")
    edges = h.edge_masks()
    state = ((1 << h.m) - 1, [], 0, 0)
    for v in iter_bits(x.mask):
        state = include_vertex(state, h.incidence[v], edges)
    return state


def build_reduced_families(
    h: Hypergraph, x: VertexSet, y: VertexSet, state: tuple | None = None
) -> tuple[list[int], list[int], int] | None:
    """The head of ``extend`` and ``find_higher_order``: validate, take
    X's edge classification ``state`` (or fold it from the root) and
    reduce its unhit edges by Y.  Only ``state``'s first two fields,
    ``uncov`` and ``crit``, are read, so the pair and the tree search's
    four fields both serve.

    Returns ``(crit, unhit, forced)``: X's critical masks, whose bits
    index X's candidate private edges; the unhit edges reduced by Y, in
    edge-index order (their indices are the bits of ``uncov``); and their
    intersection ``forced``, -1 when there are none.  An empty ``unhit``
    means that X is itself a minimal hitting set.  None means that X has
    no extension avoiding Y: a member of X has no candidate private edge,
    or an edge lies inside Y.  Only an edge disjoint from X can lie
    inside Y, so the unhit pass is the whole dead-edge check.  On an
    edgeless hypergraph X = {} is the one minimal hitting set, and any
    other X has a member without a private edge.

    The candidates are not reduced: every test made on them asks whether
    an unhit reduced edge keeps a vertex outside them, and those edges
    miss Y already.
    """
    if x.n != h.n or y.n != h.n:
        raise ValueError("X and Y must live in the hypergraph's universe")
    if x.mask & y.mask:
        raise ValueError("X and Y must be disjoint")
    if state is None:
        state = _classify(h, x)
    uncov = state[0]
    crit = state[1]
    if 0 in crit:
        return None
    edges = h.edge_masks()
    keep = ~y.mask
    # the bit loop is inlined: it runs at every node
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
    return crit, unhit, forced


def _higher_order_combo(
    crit: list[int],
    edges: tuple[int, ...],
    unhit: list[int],
    forced: int,
    veto: int,
    counters: dict[str, int] | None,
) -> list[int] | None:
    """The product decision of both queries: search the product of X's
    candidate private edges for a combination proving a higher-order
    extension, or return None if there is none.  The combination comes
    as one candidate mask per member of X whose lowest bit names the
    chosen edge, so a first combination that passes is ``crit`` itself
    and nothing is built for ``extend``, which needs only the answer.

    Member i's candidates are the edges named by the bits of ``crit[i]``,
    read from ``edges``.  The product is searched in ``itertools.product``
    order, and a prefix is cut as soon as some unhit edge lies inside
    ``forced`` plus the chosen edges (``_odometer``).

    Three tests come before the walk.  ``forced`` as an unhit edge is
    their intersection, so nothing avoids it.  The first combination
    (each member's lowest bit) is tested as a whole, over the union of
    its edges, folded here from ``crit``: if it leaves every unhit edge a
    free vertex, it is returned, since each of its prefixes blocks less
    and the odometer would accept it with no cut.  Then the veto
    certificate answers "no" when some unhit edge lies inside ``forced``
    plus ``veto``: each candidate contains its member's core, so every
    combination blocks that edge.  It counts one cut prefix, the empty
    one, and one ``veto_certified``.  ``extend`` passes X's veto;
    ``find_higher_order`` passes 0, where the certificate cannot fire:
    every unhit edge holds ``forced``, so one inside it would be
    ``forced`` itself, which the first test answered.

    ``product_iterations`` counts the cut prefixes plus the accepted
    combination.  These are disjoint blocks of the product, so the count
    stays within the product size and hence within Delta^|X|.  The empty
    product (X = empty) counts one combination.  ``candidates_dropped``
    counts the candidates the walk's sift dropped.
    """
    if forced in unhit:
        # that unhit edge is their intersection: nothing avoids it
        return None
    # every member has a candidate: build_reduced_families returned
    first = forced
    for c in crit:
        first |= edges[(c & -c).bit_length() - 1]
    free = ~first
    for em in unhit:
        if not em & free:
            break
    else:
        if counters is not None:
            counters["product_iterations"] += 1
        return crit
    if veto:
        # every combination blocks forced and each member's core
        free = ~(forced | veto)
        for em in unhit:
            if not em & free:
                if counters is not None:
                    counters["product_iterations"] += 1
                    counters["veto_certified"] += 1
                return None
    chosen, cuts, dropped = _odometer(crit, edges, unhit, forced)
    if counters is not None:
        counters["product_iterations"] += cuts + (chosen is not None)
        counters["candidates_dropped"] += dropped
    return chosen


def _sift(c: int, edges: tuple[int, ...], unhit: list[int], forced: int, span: int) -> int:
    """The bits of ``c`` left once the candidates that no first witness
    needs are dropped: one that blocks an unhit edge by itself, with
    ``forced`` (rule a), and one whose trace on ``span``, the span of the
    unhit edges outside ``forced``, holds the trace of an earlier kept
    candidate (rule b).  Such a candidate blocks, on the span, all that
    the earlier one blocks, so any completion it takes the earlier one
    takes first."""
    kept = 0
    traces: list[int] = []
    while c:
        low = c & -c
        c ^= low
        e = edges[low.bit_length() - 1]
        p = e & span
        for t in traces:
            if not t & ~p:
                break
        else:
            free = ~(forced | e)
            for em in unhit:
                if not em & free:
                    break
            else:
                traces.append(p)
                kept |= low
    return kept


def _odometer(
    crit: list[int], edges: tuple[int, ...], unhit: list[int], forced: int
) -> tuple[list[int] | None, int, int]:
    """The depth-first walk of the product: the first combination that
    leaves every unhit edge a free vertex, as masks whose lowest bits
    name its edges (or None), the number of prefixes cut on the way, and
    the number of candidates ``_sift`` dropped.

    It tries each member's ``crit`` bits from the lowest up.  Blocking
    only grows along a combination, so no completion of a cut prefix can
    succeed, and the combination returned is the first one of the full
    product.  When every member has one candidate, the product is that
    one combination, which the caller saw fail: one cut prefix.

    The first time a member below the top runs out of candidates, it is
    sifted (``_sift``) before it is walked again for the next prefix, and
    each later prefix walks the kept bits only; a member left with none
    ends the walk with "no".  No dropped candidate lies in the first
    witness, so the answer stays the full product's.  Each cut of the
    sifted walk is a cut of the plain one, so the count can only fall.

    Whether depth i can be completed depends only on the prefix's trace
    on the span of the unhit edges, ``blocked[i] & span``: every test
    below it reads only that.  So each time depth i runs out, its trace
    joins ``failed[i]`` (nogood recording), and a prefix that would enter
    depth i with a recorded trace is cut instead.  The memo cuts only
    prefixes whose every completion fails, so the answer and the witness
    stay the same, and each memo cut stands for a subtree that held at
    least one cut, so the count can only fall.  Each (depth, trace) is
    expanded at most once, so a call makes at most |X|·2^|span| member
    expansions however large Delta^|X| is.  The sets are allocated at the
    first run-out, so a walk that never backtracks pays nothing.
    """
    for c in crit:
        if c & (c - 1):
            break
    else:
        return None, 1, 0
    depth = len(crit)
    # rest[i]: member i's untried candidates, the current one lowest
    rest = list(crit)
    # sifted[i]: member i's kept candidates from its first run-out on, 0
    # until then
    sifted = [0] * depth
    # blocked[i]: forced plus the edges chosen at depths < i
    blocked = [forced] * (depth + 1)
    # failed[i]: the traces on span under which depth i ran out; None
    # until some depth has
    failed: list[set[int]] | None = None
    span = 0
    cuts = dropped = 0
    i = 0
    while i < depth:
        r = rest[i]
        b = blocked[i]
        while r:
            after = r & (r - 1)
            free = ~(b | edges[(r ^ after).bit_length() - 1])
            for em in unhit:
                if not em & free:
                    break
            else:
                if failed is None or ~free & span not in failed[i + 1]:
                    break
            cuts += 1
            r = after
        if r:
            rest[i] = r
            i += 1
            blocked[i] = ~free
        elif i == 0:
            return None, cuts, dropped
        else:
            if failed is None:
                for em in unhit:
                    span |= em
                span &= ~forced
                failed = [set() for _ in range(depth + 1)]
            failed[i].add(b & span)
            kept = sifted[i]
            if not kept:
                kept = sifted[i] = _sift(crit[i], edges, unhit, forced, span)
                dropped += (crit[i] ^ kept).bit_count()
                if not kept:
                    return None, cuts, dropped
            rest[i] = kept
            i -= 1
            rest[i] &= rest[i] - 1
    return rest, cuts, dropped


def extend(
    h: Hypergraph,
    x: VertexSet,
    y: VertexSet,
    sink: Sink | None = None,
    *,
    counters: Counter | None = None,
    state: tuple[int, list[int], int, int] | None = None,
) -> ExtensionOutcome:
    """Send every minimal extension of ``x`` avoiding ``y`` that has at
    most one extra vertex to ``sink`` (x itself first if minimal, then
    x+{v} for eligible v ascending), and report whether larger extensions
    remain.

    On CONTINUE the forbidden set grows by the vertices that would
    complete x in a single step (``forced``) and by the veto: the
    vertices that lie in every candidate private edge of some member, so
    that adding one would strip that member of its last private edge.
    No remaining extension can use either kind.

    The decision is ``_higher_order_combo``'s, the one that
    ``find_higher_order`` makes too, called with x's veto, so that its
    certificate can answer "no" before the product walk.

    ``state`` is the edge classification of ``x`` as ``(uncov, crit,
    veto, cand)``: the edge-index mask of the edges disjoint from x, one
    edge-index mask per member of x (ascending) of the edges meeting x
    only there, the veto as a vertex mask, and the union of the ``crit``
    masks (``include_vertex``).  ``enumerate_tr`` carries it down its
    search tree and passes it at every node, so the node touches only
    the edges it names; it is only read.  When it is None (the CLI and
    direct callers) it is folded from the root by ``include_vertex``, one
    member of x at a time.  Y does not enter it.
    """
    if state is None:
        state = _classify(h, x)
    reduced = build_reduced_families(h, x, y, state)
    if reduced is None:
        return _HALT
    crit, unhit, forced = reduced
    if not unhit:
        # x hits everything and each of its vertices kept a private edge
        if sink is not None:
            sink(x)
        return _HALT
    # Y is not removed from the veto: forced misses Y, and y_plus holds it.
    veto = state[2]
    ones = forced & ~veto
    if ones and sink is not None:
        n, xm = h.n, x.mask
        while ones:
            low = ones & -ones
            sink(_from_mask(n, xm | low))
            ones ^= low
    if _higher_order_combo(crit, h.edge_masks(), unhit, forced, veto, counters) is None:
        return _HALT
    # one CONTINUE per live node: the frozen dataclass's __init__ is skipped
    outcome = object.__new__(ExtensionOutcome)
    outcome.__dict__["y_plus"] = _from_mask(h.n, (y.mask | forced | veto) & ~x.mask)
    return outcome


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

    The witness holds ``forced`` and the first combination of candidate
    private edges that the product search accepts, as one edge index per
    member of x.  None means no higher-order extension avoids ``y``.  It
    makes ``extend``'s decision, ``_higher_order_combo``, with veto 0: no
    veto is read, since only ``extend`` grows a forbidden set.

    ``state`` is x's edge classification ``(uncov, crit)``, as for
    ``extend`` but without the veto; when it is None it is folded from
    the root.
    """
    if y is None:
        y = VertexSet(h.n)
    reduced = build_reduced_families(h, x, y, state)
    if reduced is None or not reduced[1]:
        return None
    crit, unhit, forced = reduced
    chosen = _higher_order_combo(crit, h.edge_masks(), unhit, forced, 0, counters)
    if chosen is None:
        return None
    indices = tuple((r & -r).bit_length() - 1 for r in chosen)
    return HigherOrderWitness(forced=VertexSet(h.n, forced), edge_indices=indices)
