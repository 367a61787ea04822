"""Random and structured instance families for benchmarking.

All generators are driven by an explicit ``random.Random`` so a seed pins
the instance exactly.  The random ones make at most 50·m attempts, each
drawing one edge and dropping a duplicate, and stop as soon as no edge
they can still draw would be new: they return the edges the whole budget
would give, and only the rng has made fewer draws.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .core import Hypergraph

__all__ = [
    "bounded_degree_instance",
    "bounded_rank_instance",
    "uniform_instance",
    "block_family",
    "delay_trend_instance",
]

_ATTEMPT_FACTOR = 50


def _edge_space(size: int, top: int) -> int:
    """How many subsets of a ``size``-set have between 1 and ``top`` members."""
    if size <= top:
        return (1 << size) - 1
    return sum(math.comb(size, s) for s in range(1, top + 1))


def bounded_degree_instance(
    rng: random.Random, n: int, m: int, delta: int
) -> Hypergraph:
    """Up to ``m`` distinct edges with every vertex degree <= ``delta``.

    Each attempt draws a size between 1 and min(|pool|, max(1, n//2)) and
    that many vertices from the pool, the vertices still below degree
    ``delta``; a duplicate is dropped, and there are ``50·m`` attempts.
    The realized edge count may therefore fall short of the request.  The
    pool only changes when an edge is added, so once every subset it
    allows has been drawn, every later attempt would be a duplicate and
    the loop stops: the edges are those the whole attempt budget gives,
    only the rng has made fewer draws.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if n < 1 or delta < 1:
        raise ValueError("need n >= 1 and delta >= 1")
    capacity = [delta] * n
    pool = list(range(n))
    top = max(1, n // 2)
    space = _edge_space(n, top)
    # drawn edges holding a vertex outside the pool, counted once the
    # pool's edge space is no larger than the drawn edges
    outside: int | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = m * _ATTEMPT_FACTOR
    while len(edges) < m and attempts > 0:
        attempts -= 1
        size = rng.randint(1, min(len(pool), top))
        edge = tuple(sorted(rng.sample(pool, size)))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
        full = False
        for v in edge:
            capacity[v] -= 1
            full = full or not capacity[v]
        if full:
            pool = [v for v in pool if capacity[v]]
            space = _edge_space(len(pool), top)
            outside = None
        if space <= len(edges):
            if outside is None:
                outside = sum(1 for e in edges if not all(capacity[v] for v in e))
            if len(edges) - outside == space:
                break  # every subset of the pool is drawn (or the pool is empty)
    return Hypergraph(n, edges)


def _distinct_edges(
    rng: random.Random, n: int, m: int, space: int, size: Callable[[], int]
) -> Hypergraph:
    """Up to ``m`` distinct edges, each ``size()`` vertices of the universe
    drawn at random, in at most ``50·m`` attempts; stops once all
    ``space`` edges the draws can give are drawn."""
    goal = min(m, space)
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = m * _ATTEMPT_FACTOR
    while len(edges) < goal and attempts > 0:
        attempts -= 1
        edge = tuple(sorted(rng.sample(range(n), size())))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    return Hypergraph(n, edges)


def bounded_rank_instance(rng: random.Random, n: int, m: int, r: int) -> Hypergraph:
    """Up to ``m`` distinct edges of size between 1 and ``r``.

    Stops once all Σ_{s<=min(r, n)} C(n, s) possible edges are drawn:
    the edges are those the whole ``50·m`` attempt budget gives, only the
    rng has made fewer draws.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    top = min(r, n)
    return _distinct_edges(rng, n, m, _edge_space(n, r), lambda: rng.randint(1, top))


def uniform_instance(rng: random.Random, n: int, m: int, r: int) -> Hypergraph:
    """Up to ``m`` distinct random ``r``-subsets of the universe.

    Stops once all C(n, r) of them are drawn: the edges are those the
    whole ``50·m`` attempt budget gives, only the rng has made fewer
    draws.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return _distinct_edges(rng, n, m, math.comb(n, r), lambda: r)


def _pad_sequence(
    fillers: list[int], count: int, offset: int
) -> list[tuple[int, ...]]:
    """``count`` distinct filler subsets, spreading usage evenly: rotated
    singletons first, then pairs at growing stride (each filler lands in
    at most two pads per stride)."""
    nf = len(fillers)
    if count == 0:
        return []
    if nf == 0:
        raise ValueError("no filler vertices available")
    pads = [(fillers[(offset + i) % nf],) for i in range(min(count, nf))]
    stride = 1
    while len(pads) < count and stride < nf:
        for i in range(nf - stride):
            if len(pads) == count:
                break
            pads.append((fillers[i], fillers[i + stride]))
        stride += 1
    if len(pads) < count:
        raise ValueError("not enough filler subsets for the requested block size")
    return pads


def block_family(block_sizes: tuple[int, ...], n: int) -> Hypergraph:
    """Disjoint two-vertex cores, each wrapped in supersets.

    Block i consists of the core pair {2i, 2i+1} plus ``block_sizes[i]-1``
    supersets of it, each padded with a filler subset drawn from the
    vertices after the cores (distinct within the block, usage spread so
    filler degrees stay below the core degrees).  The inclusion-minimal
    edges are exactly the cores, so every minimal hitting set picks one
    vertex per core: the largest has ``len(block_sizes)`` vertices.
    """
    blocks = len(block_sizes)
    if any(size < 1 for size in block_sizes):
        raise ValueError("every block needs at least its core edge")
    first_filler = 2 * blocks
    if n < first_filler:
        raise ValueError("universe too small for the cores")
    fillers = list(range(first_filler, n))
    edges: list[tuple[int, ...]] = []
    for i, size in enumerate(block_sizes):
        core = (2 * i, 2 * i + 1)
        edges.append(core)
        for pad in _pad_sequence(fillers, size - 1, offset=i * max(1, size - 1)):
            edges.append(core + pad)
    return Hypergraph(n, edges)


def delay_trend_instance(n: int, m: int, kstar: int, delta: int) -> Hypergraph:
    """A hypergraph with exactly ``n`` vertices, ``m`` edges, maximum
    degree ``delta`` and transversal rank ``kstar``, as blocks of core
    pairs under supersets.

    Such an instance only exists when ``kstar * delta >= m``: one minimal
    hitting set has at most ``kstar`` vertices, and those must jointly
    touch all ``m`` edges, forcing some vertex into at least ``m / kstar``
    of them.  Infeasible parameter combinations raise.
    """
    if kstar * delta < m:
        raise ValueError(
            f"no hypergraph has m={m} edges and transversal rank {kstar} "
            f"with maximum degree {delta}: a minimal hitting set of at most "
            f"{kstar} vertices must cover all edges, so the maximum degree "
            f"is at least ceil(m/kstar) = {-(-m // kstar)}"
        )
    if delta > m - (kstar - 1):
        raise ValueError("delta too large: the other blocks still need one edge each")
    sizes = [1] * kstar
    sizes[0] = delta
    remaining = m - delta - (kstar - 1)
    i = 1
    while remaining > 0:
        room = delta - sizes[i]
        grab = min(room, remaining)
        sizes[i] += grab
        remaining -= grab
        i = i + 1 if i + 1 < kstar else 1
    h = block_family(tuple(sizes), n)
    if h.m != m or h.max_degree != delta:
        raise ValueError("parameters not realizable as a block family")
    return h
