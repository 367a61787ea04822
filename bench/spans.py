"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the module globals through which the layers
call each other (``transversal.enumeration.extend``,
``transversal.extension.build_reduced_families``, ...) with wrappers that
record a span per call and inject ``counters=`` where a function takes
it.  A layer's self time is its spans' time minus the time of the spans
nested inside them.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span).  One span name may be reached through
# several modules' globals; each is wrapped separately.
PATCHES = [
    ("core", "parse", "parse"),
    ("cli", "parse", "parse"),
    ("cliques", "uniform_complement", "complement"),
    ("conformal", "k_section", "section"),
    ("rank", "minimize_edges", "minimize_edges"),
    ("extension", "build_reduced_families", "reduced_families"),
    ("enumeration", "extend", "extend"),
    ("rank", "find_higher_order", "find_higher_order"),
    ("enumeration", "enumerate_tr", "tree"),
    ("cli", "enumerate_tr", "tree"),
    ("cliques", "enumerate_tr", "tree"),
    ("enumeration", "enumerate_incremental", "incremental"),
    ("cli", "enumerate_incremental", "incremental"),
    ("rank", "minimize", "minimize"),
    ("verify", "minimize", "minimize"),
    ("cli", "minimize", "minimize"),
    ("rank", "rank_at_least_lookahead", "lookahead"),
    ("rank", "rank_at_least_bd", "bd"),
    ("verify", "verify_tr", "verify"),
    ("cli", "verify_tr", "verify"),
    ("conformal", "conformal_degree", "conformal"),
    ("cli", "conformal_degree", "conformal"),
    ("conformal", "is_k_conformal", "k_test"),
    ("conformal", "enumerate_maximal_cliques", "graph_cliques"),
    ("conformal", "enumerate_maximal_hypercliques", "hypercliques"),
    ("cliques", "enumerate_maximal_hypercliques", "hypercliques"),
    ("cliques", "enumerate_maximal_independent_sets", "hypercliques"),
    ("cli", "enumerate_maximal_hypercliques", "hypercliques"),
    ("cli", "enumerate_maximal_independent_sets", "hypercliques"),
    ("cli", "dispatch", "cli"),
]

# The counter each span tallies from the ``counters=`` it was given.  Only
# the span that does the work tallies a key, so nothing counts twice.
COUNTER_OF = {
    "extend": "product_iterations",
    "find_higher_order": "product_iterations",
    "minimize": "adjacency_touches",
    "bd": "bd_entries_touched",
    "verify": "verify_subset_candidates",
}

# Per-layer metrics: name -> (unit, how to compute it from a Tracer).
_MS = 1e-6
METRICS = {
    "core.parse_ms": ("ms", lambda t: t.self_ms("parse")),
    "core.complement_ms": ("ms", lambda t: t.self_ms("complement")),
    "core.section_ms": ("ms", lambda t: t.self_ms("section")),
    "core.minimize_edges_ms": ("ms", lambda t: t.self_ms("minimize_edges")),
    "extension.reduced_families_ms": ("ms", lambda t: t.self_ms("reduced_families")),
    "extension.product_ms": ("ms", lambda t: t.self_ms("extend", "find_higher_order")),
    "extension.product_iterations": ("count", lambda t: t.counts["product_iterations"]),
    "extension.extend_calls": ("count", lambda t: t.calls["extend"]),
    "extension.find_higher_order_calls": ("count", lambda t: t.calls["find_higher_order"]),
    "extension.continue_ratio": ("ratio", lambda t: _ratio(
        t.counts["continues"], t.calls["extend"] + t.calls["find_higher_order"])),
    "enumeration.tree_ms": ("ms", lambda t: t.self_ms("tree")),
    "enumeration.extend_calls_per_output": ("ratio", lambda t: _ratio(
        t.counts["tree_extend_calls"], t.counts["tree_outputs"])),
    "enumeration.max_gap_extend_calls": ("count", lambda t: t.counts["max_gap_extend_calls"]),
    "enumeration.max_gap_product_iterations": ("count", lambda t: t.counts["max_gap_product_iterations"]),
    "enumeration.incremental_ms": ("ms", lambda t: t.self_ms("incremental")),
    "enumeration.incremental_stages": ("count", lambda t: t.counts["incremental_stages"]),
    "hitting.minimize_calls": ("count", lambda t: t.calls["minimize"]),
    "hitting.adjacency_touches": ("count", lambda t: t.counts["adjacency_touches"]),
    "hitting.minimize_ms": ("ms", lambda t: t.self_ms("minimize")),
    "rank.decider_calls": ("count", lambda t: t.calls["lookahead"] + t.calls["bd"]),
    "rank.lookahead_seeds": ("count", lambda t: t.counts["lookahead_seeds"]),
    "rank.lookahead_ms": ("ms", lambda t: t.self_ms("lookahead")),
    "rank.bd_entries_touched": ("count", lambda t: t.counts["bd_entries_touched"]),
    "rank.bd_ms": ("ms", lambda t: t.self_ms("bd")),
    "verify.subset_candidates": ("count", lambda t: t.counts["verify_subset_candidates"]),
    "verify.verify_ms": ("ms", lambda t: t.self_ms("verify")),
    "conformal.k_tests": ("count", lambda t: t.calls["k_test"]),
    "conformal.self_ms": ("ms", lambda t: t.self_ms("conformal", "k_test")),
    "cliques.graph_ms": ("ms", lambda t: t.self_ms("graph_cliques")),
    "cliques.hyper_ms": ("ms", lambda t: t.self_ms("hypercliques")),
    "cliques.kept_ratio": ("ratio", lambda t: _ratio(t.counts["cliques_kept"], t.counts["cliques_seen"])),
    "cli.self_ms": ("ms", lambda t: t.self_ms("cli")),
}
# Counts and ratios of counts: the same on every run of one seed.
EXACT_METRICS = [name for name, (unit, _) in METRICS.items() if unit != "ms"]


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


class Tracer:
    """Spans and work counts of the calls made while installed."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Open spans: [name, start_ns, child_ns].
        self.stack: list[list] = []
        # Work since the last output of the innermost tree enumeration.
        self.gaps: list[list[int]] = []

    def metrics(self) -> dict[str, float]:
        return {name: fn(self) for name, (_unit, fn) in METRICS.items()}

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) * _MS

    # ---------------------------------------------------------- install

    def install(self) -> None:
        for module, attr, span in PATCHES:
            mod = getattr(self.lib, module)
            original = getattr(mod, attr)
            self.saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)

    # ---------------------------------------------------------- spans

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        self.stack.append([name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        name, start, child = self.stack.pop()
        took = time.perf_counter_ns() - start
        self.self_ns[name] += took - child
        if self.stack:
            self.stack[-1][2] += took

    def _wrap(self, fn, span: str):
        tracer = self
        key = COUNTER_OF.get(span)

        def traced(*args, **kwargs):
            if key is not None:
                if kwargs.get("counters") is None:
                    kwargs["counters"] = Counter()
                before = kwargs["counters"][key]
            if span == "tree":
                args, kwargs = tracer._open_tree(args, kwargs)
            mark = tracer.counts["tree_outputs"]
            tracer._on_call(span)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
                if key is not None:
                    tracer._tally(span, key, kwargs["counters"][key] - before)
                if span == "tree":
                    tracer._close_gap()
            tracer._on_return(span, result, mark)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- hooks

    def _tally(self, span: str, key: str, amount: int) -> None:
        self.counts[key] += amount
        if span == "extend" and self.gaps:
            self.gaps[-1][1] += amount

    def _on_call(self, span: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        if span == "extend" and self.gaps:
            self.counts["tree_extend_calls"] += 1
            self.gaps[-1][0] += 1
        elif span == "find_higher_order" and parent == "lookahead":
            self.counts["lookahead_seeds"] += 1
        elif span == "verify" and parent == "incremental":
            self.counts["incremental_stages"] += 1

    def _on_return(self, span: str, result, mark: int) -> None:
        if span == "extend":
            self.counts["continues"] += result.continues
        elif span == "find_higher_order":
            self.counts["continues"] += result is not None
        elif span == "hypercliques":
            self.counts["cliques_kept"] += result
            self.counts["cliques_seen"] += self.counts["tree_outputs"] - mark

    def _open_tree(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Route the tree's outputs through a hook that closes the current
        gap; the caller's sink still gets every output."""
        self.gaps.append([0, 0])
        if len(args) > 1:
            return (args[0], self._output_hook(args[1])) + args[2:], kwargs
        kwargs["sink"] = self._output_hook(kwargs.get("sink"))
        return args, kwargs

    def _output_hook(self, sink):
        tracer = self

        def on_output(t):
            tracer._close_gap()
            tracer.gaps.append([0, 0])
            tracer.counts["tree_outputs"] += 1
            if sink is not None:
                tracer._enter("sink")
                try:
                    sink(t)
                finally:
                    tracer._exit()

        return on_output

    def _close_gap(self) -> None:
        calls, iters = self.gaps.pop()
        self._max("max_gap_extend_calls", calls)
        self._max("max_gap_product_iterations", iters)

    def _max(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value
