from __future__ import annotations

import random

import pytest

from transversal.enumeration import enumerate_tr
from transversal.generators import (
    block_family,
    bounded_degree_instance,
    bounded_rank_instance,
    delay_trend_instance,
    uniform_instance,
)


def kstar_of(h):
    sizes = []
    enumerate_tr(h, lambda t: sizes.append(len(t)))
    return max(sizes, default=0)


def test_bounded_degree_respects_delta():
    rng = random.Random(1)
    for delta in (1, 2, 4):
        h = bounded_degree_instance(rng, 10, 18, delta)
        assert h.max_degree <= delta
        assert h.m <= 18


def test_bounded_rank_respects_rank():
    rng = random.Random(2)
    h = bounded_rank_instance(rng, 10, 15, 3)
    assert h.rank <= 3


def test_uniform_is_uniform():
    rng = random.Random(3)
    h = uniform_instance(rng, 8, 12, 3)
    assert all(len(e) == 3 for e in h.edges)
    assert h.m <= 12


def test_generators_are_seed_deterministic():
    a = bounded_degree_instance(random.Random(42), 9, 12, 3)
    b = bounded_degree_instance(random.Random(42), 9, 12, 3)
    assert a == b


def test_block_family_structure():
    for delta in (2, 4, 8, 16):
        h = block_family((delta,) * 3, 18)
        assert h.n == 18
        assert h.m == 3 * delta
        assert h.max_degree == delta
        assert kstar_of(h) == 3


def test_delay_trend_instance_feasible_point():
    h = delay_trend_instance(18, 40, 3, 14)
    assert (h.n, h.m, h.max_degree) == (18, 40, 14)
    assert kstar_of(h) == 3


def test_delay_trend_instance_infeasible_raises():
    # a minimal hitting set of <= kstar vertices covers all m edges, so
    # the maximum degree is at least m / kstar
    for delta in (2, 4, 8, 13):
        with pytest.raises(ValueError):
            delay_trend_instance(18, 40, 3, delta)


def test_delay_trend_supplementary_monotone_in_degree():
    """With the universe and the solution structure fixed (three blocks,
    largest solution 3), growing every core's degree grows the measured
    worst gap, which is the lead-in before the first output.  What grows
    is m = 3 * degree, through two costs.  The lead-in builds the
    per-vertex incidence masks once, over all 33 / 69 / 150 edge-vertex
    incidences.  And each node reduces the edges its carried
    classification names (those disjoint from X or private to one member
    of X); here no edge ever holds two members of X, so that is all m
    edges at every one of the 13 extend calls.  The product search does
    not grow: the prefix cut settles it in 6 iterations per run whatever
    the degree (the 13 extend calls and 8 outputs are the same too)."""
    best: dict[int, int] = {}
    for delta in (4, 8, 16):
        h = block_family((delta,) * 3, 18)
        for _ in range(5):
            stats = enumerate_tr(h)
            best[delta] = min(best.get(delta, 1 << 62), stats.max_delay_ns)
    assert best[4] <= best[8] <= best[16]
