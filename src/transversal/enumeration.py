"""Streaming enumeration of all minimal hitting sets.

Two routes: a look-ahead tree search (works for any input, delay governed
by the maximum degree and the largest solution), and an incremental
verify-and-extract loop that shines when the edge rank is small.  Both
stream to a sink and collect delay instrumentation.

The sink protocol, shared by every enumerator in the package: each output
goes to ``sink`` as soon as it is found.  A sink may raise
``StopEnumeration`` to end the innermost enumerator feeding it, which
returns normally, counting the output the sink raised on as delivered.
``limit=N`` stops right after the N-th output; 0 produces nothing and a
negative limit is a ``ValueError``.  ``stream`` implements both rules,
and every enumerator's outputs pass through it once.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .core import Hypergraph, VertexSet, minimize_edges
from .extension import ExtensionOutcome, Sink, extend, include_vertex
from . import verify as _verify

__all__ = [
    "DelayStats", "Sink", "StopEnumeration",
    "enumerate_tr", "enumerate_incremental", "stream",
]


class StopEnumeration(Exception):
    """Raised by a sink to end the innermost enumerator feeding it."""


# The keys a tree walk and its extension calls write in ``DelayStats.work``.
WALK_KEYS = (
    "calls", "settled", "tree_pruned",
    "product_iterations", "veto_certified", "candidates_dropped",
)


@dataclass
class DelayStats:
    """Per-run instrumentation as running aggregates, in O(n) memory
    however many nodes the run visits: the outputs, the histogram of the
    partial solution's size at the extension calls (at most n+1 keys),
    the deepest stack, and the worst gap between outputs in ns, in calls,
    in nodes (calls plus settled nodes) and in product iterations,
    counting the lead-in before the first output and the tail until
    termination.  A tree walk adds its histogram and deepest stack when
    it ends.  ``work`` is the run's work counter, the one tally of its
    tree walks' nodes: each walk counts its completed extension calls
    under ``calls`` (which the ``calls`` property reads), the nodes it
    settled without a call under ``settled`` and the nodes its ``prune``
    dropped under ``tree_pruned``, and hands it to every extension call,
    which tallies ``product_iterations``, ``veto_certified`` and
    ``candidates_dropped``.  By default it is a plain dict seeded with
    those six keys (``WALK_KEYS``): CPython specializes ``d[k] += 1``
    only on an exact dict, and the walk increments it at every node."""

    started_ns: int = field(default_factory=time.perf_counter_ns)
    finished_ns: int = 0
    outputs: int = 0
    x_size_histogram: Counter = field(default_factory=Counter)
    work: dict[str, int] = field(default_factory=lambda: dict.fromkeys(WALK_KEYS, 0))
    max_stack_depth: int = 0
    max_delay_ns: int = 0
    max_gap_calls: int = 0
    max_gap_nodes: int = 0
    max_gap_product_iterations: int = 0

    @property
    def total_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def calls(self) -> int:
        return self.work["calls"]

    @property
    def product_iterations(self) -> int:
        return self.work["product_iterations"]

    def to_json(self) -> dict:
        return {
            "outputs": self.outputs,
            "calls": self.calls,
            "max_delay_ns": self.max_delay_ns,
            "max_gap_calls": self.max_gap_calls,
            "max_gap_nodes": self.max_gap_nodes,
            "max_gap_product_iterations": self.max_gap_product_iterations,
            "max_stack_depth": self.max_stack_depth,
            "total_ns": self.total_ns,
            "extend_call_histogram": {
                str(k): v for k, v in sorted(self.x_size_histogram.items())
            },
            "product_iterations": self.product_iterations,
            "veto_certified": self.work["veto_certified"],
            "candidates_dropped": self.work["candidates_dropped"],
            "settled": self.work["settled"],
        }


def _settles(ym: int, state: tuple, edges: tuple[int, ...]) -> bool:
    """Rule (c) of ``_walk_tree`` at an exclude child (X, Y) with X's
    ``state``: whether Y plus X's first combination, the union of each
    member's lowest candidate private edge, leaves every uncovered edge a
    vertex."""
    blocked = ym
    for c in state[1]:
        blocked |= edges[(c & -c).bit_length() - 1]
    free = ~blocked
    uncov = state[0]
    while uncov:
        low = uncov & -uncov
        if not edges[low.bit_length() - 1] & free:
            return False
        uncov ^= low
    return True


def _walk_tree(
    h: Hypergraph,
    deliver: Sink,
    stats: DelayStats,
    prune: Callable[[int, int, int], bool] | None = None,
) -> None:
    """Walk the look-ahead search tree of ``h`` from the root
    (X, Y) = ({}, {}), sending every solution to ``deliver``.

    At each node the extension call emits the small solutions and either
    halts the branch or returns a grown forbidden set Y+; the walk then
    branches on a free vertex (outside X and Y+), include branch first,
    and calls ``extend`` only on nodes that can still be extended and
    whose answer it cannot read off their parent's:

    (a) it branches on the lowest free vertex v that meets an uncovered
        edge, and the free vertices below v join Y+ in both children.  A
        member of a solution below the node needs a private edge, which
        is uncovered, so no solution there holds any of them: their
        include children die at once, and their exclude children emit
        nothing and return Y+ plus the vertex, so skipping that chain
        leaves the outputs and their order as they were;
    (b) it drops the exclude child when some uncovered edge through v
        lies inside Y+ + v: no solution avoids v there, and that child's
        call would halt with no output;
    (c) it settles an exclude child without a call when Y plus X's first
        combination (each member's lowest candidate private edge,
        ``_settles``) leaves every uncovered edge a vertex: the node
        emits nothing, continues with Y+ = Y and branches by (a) and
        (b).  That is the call's own answer.  The child shares X, and so
        the uncovered edges, the candidates and the veto, with a parent
        that continued, and its Y holds the parent's Y+, which holds the
        parent's ``forced`` and the veto outside X.  So the child's
        unhit edges meet in nothing (``forced`` is empty): X is no
        solution and has no 1-extension, its veto adds nothing to Y,
        and the call's first-combination test is the test made here.

    The include child is then live too: v lies outside the veto in Y+,
    so each member of X keeps a candidate private edge, and no uncovered
    edge lies inside Y+, which a solution avoids.  Only the root
    of an input holding the empty edge is dead when called.  A CONTINUE
    with no free vertex meeting an uncovered edge breaks ``extend``'s
    promise and raises ``RuntimeError``.

    Each stack entry is (X, Y, state, excluded): X and Y as vertex masks,
    X's edge classification ``(uncov, crit, veto, cand)`` (see
    ``extend``), and whether the entry is an exclude child, which rule
    (c) may settle.  The exclude child shares its parent's state; the
    include child of v updates it with v's incidence mask
    (``include_vertex``): in O(1) when v meets no member's candidate
    edge, and otherwise refolding the veto for only the members whose
    candidates v removes.  The recursion is an explicit stack, so live
    state is the root-to-leaf path of entries.

    ``prune(X, Y, uncov)``, when given, is asked at every node before
    rule (c) and the extension call; a node it answers True for is
    dropped with its whole subtree.  ``stats.work`` counts every node as
    it ends: each completed extension call under ``calls``, each settled
    node under ``settled`` and each dropped one under ``tree_pruned``,
    and it is the counter handed to every extension call.  The |X|
    histogram of the calls and the deepest stack are kept locally and
    folded into ``stats`` when the walk ends, a stop raised by
    ``deliver`` included.  ``extend`` is read from this module's globals
    at every call.
    """
    n = h.n
    edges = h.edge_masks()
    incidence = h.incidence
    full = (1 << n) - 1
    work = stats.work
    from_mask = VertexSet._from_mask
    sizes = [0] * (n + 1)  # the |X| histogram of this walk's calls
    deepest = 1
    stack: list[tuple[int, int, tuple, bool]] = [(0, 0, ((1 << h.m) - 1, [], 0, 0), False)]
    try:
        while stack:
            xm, ym, state, excluded = stack.pop()
            uncov = state[0]
            if prune is not None and prune(xm, ym, uncov):
                work["tree_pruned"] += 1
                continue
            if excluded and _settles(ym, state, edges):
                # rule (c): the call would emit nothing and return Y
                work["settled"] += 1
                ypm = ym
            else:
                outcome: ExtensionOutcome = extend(
                    h,
                    from_mask(n, xm),
                    from_mask(n, ym),
                    deliver,
                    counters=work,
                    state=state,
                )
                work["calls"] += 1
                sizes[xm.bit_count()] += 1
                y_plus = outcome.y_plus
                if y_plus is None:
                    continue
                ypm = y_plus.mask
            rest = full & ~(xm | ypm)
            # rule (a): v must meet an uncovered edge
            while rest:
                vbit = rest & -rest
                ev = incidence[vbit.bit_length() - 1]
                if ev & uncov:
                    break
                rest ^= vbit
            else:
                raise RuntimeError(
                    "higher-order extension promised but no vertex is left"
                )
            # the free vertices below v join Y+ in both children
            ypm |= (vbit - 1) & ~xm
            # rule (b): exclude branch, visited second, unless without v
            # some uncovered edge through v lies inside Y+
            through = uncov & ev
            while through:
                low = through & -through
                if edges[low.bit_length() - 1] & ~ypm == vbit:
                    break
                through ^= low
            else:
                stack.append((xm, ypm | vbit, state, True))
            # include branch, visited first: v is above every member of X,
            # so its critical edges go last
            stack.append((xm | vbit, ypm, include_vertex(state, ev, edges), False))
            if len(stack) > deepest:
                deepest = len(stack)
    finally:
        if deepest > stats.max_stack_depth:
            stats.max_stack_depth = deepest
        histogram = stats.x_size_histogram
        for size, calls in enumerate(sizes):
            if calls:
                histogram[size] += calls


def stream(
    stats: DelayStats, run: Callable[[Sink], object], sink: Sink | None, limit: int | None
) -> DelayStats:
    """Call ``run(out)``, where ``out`` counts each output in
    ``stats.outputs``, ends the open gap in ``stats``, forwards the output
    to ``sink`` (None discards it) and raises ``StopEnumeration`` right
    after the ``limit``-th.  A stop that reaches this call ends the run
    normally, and the tail gap ends with it; ``limit`` 0 runs nothing."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    work = stats.work
    gap_ns, gap_calls, gap_settled = stats.started_ns, work["calls"], work["settled"]
    gap_iterations = work["product_iterations"]

    def end_gap(now_ns: int) -> None:
        nonlocal gap_ns, gap_calls, gap_settled, gap_iterations
        total, settled, iterations = work["calls"], work["settled"], work["product_iterations"]
        delay, calls = now_ns - gap_ns, total - gap_calls
        if delay > stats.max_delay_ns:
            stats.max_delay_ns = delay
        if calls > stats.max_gap_calls:
            stats.max_gap_calls = calls
        if calls + settled - gap_settled > stats.max_gap_nodes:
            stats.max_gap_nodes = calls + settled - gap_settled
        if iterations - gap_iterations > stats.max_gap_product_iterations:
            stats.max_gap_product_iterations = iterations - gap_iterations
        gap_ns, gap_calls, gap_settled, gap_iterations = now_ns, total, settled, iterations

    def out(t: VertexSet) -> None:
        stats.outputs += 1
        end_gap(time.perf_counter_ns())
        if sink is not None:
            sink(t)
        if stats.outputs == limit:
            raise StopEnumeration

    if limit != 0:
        try:
            run(out)
        except StopEnumeration:
            pass
    stats.finished_ns = time.perf_counter_ns()
    end_gap(stats.finished_ns)
    return stats


def enumerate_tr(
    h: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> DelayStats:
    """Stream every minimal hitting set of ``h`` exactly once, by one
    unpruned walk of the look-ahead search tree (``_walk_tree``).  Each
    node carries its edge classification, veto and candidate unions, so
    it reduces only the edges that classification names instead of
    scanning all m, and refolds nothing that its include step left as it
    was.

    The walk calls ``extend`` only on nodes that can still be extended
    (``_walk_tree``'s rules (a) and (b)): each call it skips would emit
    nothing and change no later node's Y, so the outputs and their order
    are those of the walk branching on every free vertex.

    The walk runs on the inclusion-minimal edges (``minimize_edges``):
    Tr(H) = Tr(min H), and an edge containing another is unhit only
    while the edge inside it is, and private to a member of a solution
    only where that edge is too, so dropping it once up front changes
    neither the outputs nor their order.

    An edgeless hypergraph yields the single solution {}, at the root,
    and an empty edge yields nothing.
    """
    stats = DelayStats()
    return stream(stats, lambda out: _walk_tree(minimize_edges(h), out, stats), sink, limit)


def enumerate_incremental(
    h: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> DelayStats:
    """Enumerate by repeatedly verifying the solutions found so far.

    Stage i checks whether the hypergraph G of found solutions already
    equals the transversal hypergraph; if not, the failing condition
    hands back a minimal hitting set S of G that is no edge of the input,
    and shrinking the complement of S yields a fresh solution.  Intended
    for inputs of small edge rank, where the verification is cheap.

    ``stats.work`` sums the verifications' counters, so the calls,
    settled nodes and product iterations of their tree walks are this
    run's, gap by gap; the call histogram and the deepest stack stay
    empty, since those walks run on G, not on the input.  It is a
    ``Counter``, not the walk's plain dict: ``verify_tr`` adds into it
    with ``Counter.update``, which on a dict would replace, and writes a
    key no tree walk seeds (``verify_g_outputs``); and a key nobody
    writes reads 0 where a dict would raise ``KeyError``.
    """
    stats = DelayStats(work=Counter())

    def run(out: Sink) -> None:
        solutions: list[int] = []  # the masks of G's edges
        while True:
            g = Hypergraph._from_masks(h.n, h.names, solutions)
            outcome = _verify.verify_tr(g, h, counters=stats.work)
            if isinstance(outcome, _verify.Equal):
                return
            if isinstance(outcome, _verify.NotSubset):
                raise RuntimeError(
                    "found solutions stopped being minimal hitting sets"
                )
            if outcome.t.mask in solutions:
                raise RuntimeError(
                    "verification handed back a solution already found"
                )
            solutions.append(outcome.t.mask)
            out(outcome.t)

    return stream(stats, run, sink, limit)
