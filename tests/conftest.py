from __future__ import annotations

import random
from collections import Counter

import pytest

from transversal import Hypergraph, VertexSet, enumeration, extension
from transversal.oracle import brute_tr

CORPUS_SEED = 0x5E7C0DE


def random_hypergraph(
    rng: random.Random,
    n_max: int = 8,
    m_max: int = 12,
    empty_edge_p: float = 0.03,
) -> Hypergraph:
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for _ in range(m):
        if rng.random() < empty_edge_p:
            edges.append(())
        else:
            edges.append(rng.sample(range(n), rng.randint(1, n)))
    return Hypergraph(n, edges)


def build_corpus(count: int = 500, seed: int = CORPUS_SEED) -> list[Hypergraph]:
    """Mixed random instances, front-loaded with the degenerate shapes."""
    rng = random.Random(seed)
    corpus: list[Hypergraph] = [
        Hypergraph(0, []),  # empty universe, edgeless
        Hypergraph(0, [()]),  # empty universe, empty edge
        Hypergraph(3, []),  # edgeless
        Hypergraph(3, [()]),  # empty edge alone
        Hypergraph(3, [(), (0, 1)]),  # empty edge among others
        Hypergraph(1, [(0,)]),
    ]
    while len(corpus) < count:
        corpus.append(random_hypergraph(rng))
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[Hypergraph]:
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_tr(corpus) -> list[list]:
    """Brute-force transversal hypergraph for every corpus instance."""
    return [brute_tr(h) for h in corpus]


def masks(sets) -> set[int]:
    return {s.mask for s in sets}


def unsift(monkeypatch) -> None:
    """Make the product search keep every candidate while ``monkeypatch``
    is active, so it walks as the plain odometer does: the same answers,
    and the count before the sift."""
    monkeypatch.setattr(extension, "_sift", lambda c, *_: c)


def log_extend_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """Wrap ``enumeration.extend`` while ``monkeypatch`` is active.  Each
    completed call appends ``(X mask, Y mask, product iterations it
    added)`` to the returned log, so ``len(log)`` read at an output is
    the number of calls completed before it."""
    real = enumeration.extend
    log: list[tuple[int, int, int]] = []

    def logged(h, x, y, sink=None, *, counters=None, state=None):
        if counters is None:
            counters = Counter()
        before = counters["product_iterations"]
        outcome = real(h, x, y, sink, counters=counters, state=state)
        log.append((x.mask, y.mask, counters["product_iterations"] - before))
        return outcome

    monkeypatch.setattr(enumeration, "extend", logged)
    return log


def log_settled_nodes(monkeypatch, log: list) -> None:
    """Append None to ``log`` at every node that ``enumeration._walk_tree``
    settles without an extension call (its rule (c)) while ``monkeypatch``
    is active, so that a ``log_extend_calls`` log cut at the outputs
    holds each gap's nodes, and its entries that are not None its calls."""
    real = enumeration._settles

    def logged(*args):
        settled = real(*args)
        if settled:
            log.append(None)
        return settled

    monkeypatch.setattr(enumeration, "_settles", logged)


def walk_raw_edges(h: Hypergraph, sink=None) -> enumeration.DelayStats:
    """``enumerate_tr(h, sink)`` without its minimal-edge pass: the same
    tree walk and the same ``DelayStats``, but over every edge of ``h``
    (at least one), so edges containing others still reach ``extend``."""
    stats = enumeration.DelayStats()

    def run(out) -> None:
        enumeration._walk_tree(h, out, stats)

    return enumeration.stream(stats, run, sink, None)


def logged_run(log: list, h: Hypergraph, run=None, **kw):
    """``enumerate_tr(h, **kw)`` (or ``run(h, sink, **kw)``) under a
    ``log_extend_calls`` log, which it clears first.  Returns the outputs,
    the stats and the gap windows: the log cut at every output, lead-in
    and tail included.  An output made inside call i closes its gap at i,
    and call i belongs to the next gap."""
    log.clear()
    got: list[VertexSet] = []
    cuts = [0]

    def sink(t: VertexSet) -> None:
        got.append(t)
        cuts.append(len(log))

    stats = (run or enumeration.enumerate_tr)(h, sink, **kw)
    cuts.append(len(log))
    return got, stats, [log[a:b] for a, b in zip(cuts, cuts[1:])]
