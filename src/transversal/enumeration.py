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


@dataclass
class DelayStats:
    """Per-run instrumentation as running aggregates, in O(n) memory
    however many nodes the run visits: the outputs, the completed
    extension calls, the histogram of the partial solution's size at
    those calls (at most n+1 keys), the deepest stack, and the worst gap
    between outputs in ns and in calls, counting the lead-in before the
    first output and the tail until termination.  ``work`` is the run's
    work counter, handed to every extension call."""

    started_ns: int = field(default_factory=time.perf_counter_ns)
    finished_ns: int = 0
    outputs: int = 0
    calls: int = 0
    x_size_histogram: Counter = field(default_factory=Counter)
    work: Counter = field(default_factory=Counter)
    max_stack_depth: int = 0
    max_delay_ns: int = 0
    max_gap_calls: int = 0

    @property
    def total_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def product_iterations(self) -> int:
        return self.work["product_iterations"]

    def to_json(self) -> dict:
        return {
            "outputs": self.outputs,
            "max_delay_ns": self.max_delay_ns,
            "total_ns": self.total_ns,
            "extend_call_histogram": {
                str(k): v for k, v in sorted(self.x_size_histogram.items())
            },
            "product_iterations": self.product_iterations,
        }


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
    and calls ``extend`` only on nodes that can still be extended:

    (a) it branches on the lowest free vertex v that meets an uncovered
        edge, and the free vertices below v join Y+ in both children.  A
        member of a solution below the node needs a private edge, which
        is uncovered, so no solution there holds any of them: their
        include children die at once, and their exclude children emit
        nothing and return Y+ plus the vertex, so skipping that chain
        leaves the outputs and their order as they were;
    (b) it drops the exclude child when some uncovered edge through v
        lies inside Y+ + v: no solution avoids v there, and that child's
        call would halt with no output.

    The include child is then live too: v lies outside the veto in Y+,
    so each member of X keeps a candidate private edge, and no uncovered
    edge lies inside Y+, which a solution avoids.  Only the root
    of an input holding the empty edge is dead when called.  A CONTINUE
    with no free vertex meeting an uncovered edge breaks ``extend``'s
    promise and raises ``RuntimeError``.

    Each stack entry is (X, Y, uncov, crit): X and Y as vertex masks,
    then X's edge classification (see ``extend``).  The exclude child
    shares its parent's classification; the include child of v updates
    it with v's incidence mask in O(|X|) integer operations.  The
    recursion is an explicit stack, so live state is the root-to-leaf
    path of entries.

    ``prune(X, Y, uncov)``, when given, is asked at every node before its
    extension call; a node it answers True for is dropped with its whole
    subtree.  ``stats`` records the stack depth and, after each completed
    extension call, the call and |X| in its histogram; its ``work`` is
    the counter handed to every extension call.  ``extend`` is read from
    this module's globals at every call.
    """
    n = h.n
    edges = h.edge_masks()
    incidence = h.incidence
    full = (1 << n) - 1
    stack: list[tuple[int, int, int, list[int]]] = [(0, 0, (1 << h.m) - 1, [])]
    while stack:
        if len(stack) > stats.max_stack_depth:
            stats.max_stack_depth = len(stack)
        xm, ym, uncov, crit = stack.pop()
        if prune is not None and prune(xm, ym, uncov):
            continue
        outcome: ExtensionOutcome = extend(
            h,
            VertexSet(n, xm),
            VertexSet(n, ym),
            deliver,
            counters=stats.work,
            state=(uncov, crit),
        )
        stats.calls += 1
        stats.x_size_histogram[xm.bit_count()] += 1
        if outcome.continues:
            ypm = outcome.y_plus.mask
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
                stack.append((xm, ypm | vbit, uncov, crit))
            # include branch, visited first: v is above every member of X,
            # so its critical edges go last
            child_uncov, child_crit = include_vertex(uncov, crit, ev)
            stack.append((xm | vbit, ypm, child_uncov, child_crit))


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
    gap_ns, gap_calls = stats.started_ns, 0

    def end_gap(now_ns: int) -> None:
        nonlocal gap_ns, gap_calls
        stats.max_delay_ns = max(stats.max_delay_ns, now_ns - gap_ns)
        stats.max_gap_calls = max(stats.max_gap_calls, stats.calls - gap_calls)
        gap_ns, gap_calls = now_ns, stats.calls

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
    node carries its edge classification, so it reduces only the edges
    that classification names instead of scanning all m.

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

    ``stats.work`` sums the verifications' counters, the product
    iterations of their tree searches included; the call histogram stays
    empty, since those searches run on G, not on the input.
    """
    stats = DelayStats()

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
