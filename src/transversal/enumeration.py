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
negative limit is a ``ValueError``.  ``stream`` implements both rules.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .core import Hypergraph, VertexSet
from .extension import ExtensionOutcome, Sink, extend, incidence_masks, include_vertex
from . import verify as _verify

__all__ = [
    "DelayStats", "ExtendCallRecord", "Sink", "StopEnumeration",
    "enumerate_tr", "enumerate_incremental", "stream",
]


class StopEnumeration(Exception):
    """Raised by a sink to end the innermost enumerator feeding it."""


def stream(run: Callable[[Sink], object], sink: Sink | None, limit: int | None) -> int:
    """Call ``run(out)`` and return how many outputs it handed to ``out``,
    which forwards each to ``sink`` (None discards it) and raises
    ``StopEnumeration`` right after the ``limit``-th.  A stop that reaches
    this call ends the run normally; ``limit`` 0 runs nothing."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    count = 0

    def out(t: VertexSet) -> None:
        nonlocal count
        count += 1
        if sink is not None:
            sink(t)
        if count == limit:
            raise StopEnumeration

    if limit != 0:
        try:
            run(out)
        except StopEnumeration:
            pass
    return count


@dataclass(frozen=True)
class ExtendCallRecord:
    x_size: int
    product_iterations: int


@dataclass
class DelayStats:
    """Per-run instrumentation: output timestamps, the size of the partial
    solution at every extension call, and product-loop totals."""

    n: int
    m: int
    started_ns: int
    finished_ns: int = 0
    output_ns: list[int] = field(default_factory=list)
    calls: list[ExtendCallRecord] = field(default_factory=list)
    output_call_index: list[int] = field(default_factory=list)
    max_stack_depth: int = 0

    @property
    def outputs(self) -> int:
        return len(self.output_ns)

    @property
    def total_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def max_delay_ns(self) -> int:
        """Largest gap, counting lead-in before the first output and the
        tail until termination."""
        if not self.output_ns:
            return self.total_ns
        gaps = [self.output_ns[0] - self.started_ns]
        gaps.extend(b - a for a, b in zip(self.output_ns, self.output_ns[1:]))
        gaps.append(self.finished_ns - self.output_ns[-1])
        return max(gaps)

    @property
    def x_size_histogram(self) -> Counter:
        hist: Counter = Counter()
        for rec in self.calls:
            hist[rec.x_size] += 1
        return hist

    @property
    def product_iterations(self) -> int:
        return sum(rec.product_iterations for rec in self.calls)

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
    counters: Counter,
    *,
    stats: DelayStats | None = None,
    prune: Callable[[int, int, int], bool] | None = None,
) -> None:
    """Walk the look-ahead search tree of ``h`` (at least one edge) from
    the root (X, Y) = ({}, {}), sending every solution to ``deliver``.

    At each node the extension call emits the small solutions and either
    halts the branch or returns a grown forbidden set Y+; the walk then
    branches on the lowest vertex outside X and Y+, include branch first.
    Each stack entry is (X, Y, uncov, crit): X and Y as vertex masks,
    then X's edge classification (see ``extend``).  The exclude child
    shares its parent's classification; the include child of v updates
    it with v's incidence mask in O(|X|) integer operations.  The
    recursion is an explicit stack, so live state is the root-to-leaf
    path of entries.

    ``prune(X, Y, uncov)``, when given, is asked at every node before its
    extension call; a node it answers True for is dropped with its whole
    subtree.  ``stats``, when given, records the stack depth and one
    ``ExtendCallRecord`` per extension call.  ``extend`` is read from this
    module's globals at every call.
    """
    n = h.n
    incidence = incidence_masks(h)
    full = (1 << n) - 1
    stack: list[tuple[int, int, int, list[int]]] = [(0, 0, (1 << h.m) - 1, [])]
    while stack:
        if stats is not None and len(stack) > stats.max_stack_depth:
            stats.max_stack_depth = len(stack)
        xm, ym, uncov, crit = stack.pop()
        if prune is not None and prune(xm, ym, uncov):
            continue
        before = counters["product_iterations"]
        outcome: ExtensionOutcome = extend(
            h,
            VertexSet(n, xm),
            VertexSet(n, ym),
            deliver,
            counters=counters,
            state=(uncov, crit),
        )
        if stats is not None:
            stats.calls.append(
                ExtendCallRecord(
                    xm.bit_count(), counters["product_iterations"] - before
                )
            )
        if outcome.continues:
            ypm = outcome.y_plus.mask
            rest = full & ~(xm | ypm)
            if not rest:
                raise RuntimeError(
                    "higher-order extension promised but no vertex is left"
                )
            vbit = rest & -rest
            # exclude branch, visited second: X and so its state unchanged
            stack.append((xm, ypm | vbit, uncov, crit))
            # include branch, visited first: v is above every member of X,
            # so its critical edges go last
            child_uncov, child_crit = include_vertex(
                uncov, crit, incidence[vbit.bit_length() - 1]
            )
            stack.append((xm | vbit, ypm, child_uncov, child_crit))


def _stamped(stats: DelayStats, sink: Sink | None) -> Sink:
    """``sink`` behind a stamp of each output's time and call index."""

    def deliver(t: VertexSet) -> None:
        stats.output_ns.append(time.perf_counter_ns())
        stats.output_call_index.append(len(stats.calls))
        if sink is not None:
            sink(t)

    return deliver


def enumerate_tr(
    h: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> DelayStats:
    """Stream every minimal hitting set of ``h`` exactly once, by one
    unpruned walk of the look-ahead search tree (``_walk_tree``).  Each
    node carries its edge classification, so it reduces only the edges
    that classification names instead of scanning all m.

    An edgeless hypergraph yields the single solution {} and an empty
    edge yields nothing.
    """
    n = h.n
    stats = DelayStats(n=n, m=h.m, started_ns=time.perf_counter_ns())

    def run(out: Sink) -> None:
        if h.m == 0:
            out(VertexSet(n))
        else:
            # one Counter for the run; each call's share is its increment
            _walk_tree(h, out, Counter(), stats=stats)

    stream(run, _stamped(stats, sink), limit)
    stats.finished_ns = time.perf_counter_ns()
    return stats


def enumerate_incremental(
    h: Hypergraph, sink: Sink | None = None, *, limit: int | None = None
) -> DelayStats:
    """Enumerate by repeatedly verifying the solutions found so far.

    Stage i checks whether the hypergraph G of found solutions already
    equals the transversal hypergraph; if not, the failing condition
    hands back a minimal hitting set S of G that is no edge of the input,
    and shrinking the complement of S yields a fresh solution.  Intended
    for inputs of small edge rank, where the verification is cheap.
    """
    stats = DelayStats(n=h.n, m=h.m, started_ns=time.perf_counter_ns())

    def run(out: Sink) -> None:
        solutions: list[VertexSet] = []
        while True:
            g = Hypergraph(h.n, solutions, names=h.names)
            outcome = _verify.verify_tr(g, h)
            if isinstance(outcome, _verify.Equal):
                return
            if isinstance(outcome, _verify.NotSubset):
                raise RuntimeError(
                    "found solutions stopped being minimal hitting sets"
                )
            solutions.append(outcome.t)
            out(outcome.t)

    stream(run, _stamped(stats, sink), limit)
    stats.finished_ns = time.perf_counter_ns()
    return stats
