from __future__ import annotations

import random
from collections import Counter

import pytest

from transversal import enumeration
from transversal.enumeration import enumerate_tr
from transversal.generators import (
    block_family,
    bounded_degree_instance,
    bounded_rank_instance,
    delay_trend_instance,
    uniform_instance,
)

from conftest import walk_raw_edges


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


@pytest.mark.parametrize("make", [bounded_degree_instance, bounded_rank_instance, uniform_instance])
def test_negative_edge_count_raises_before_drawing(make):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="need m >= 0"):
        make(rng, 6, -1, 2)
    assert rng.getstate() == state


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


def test_delay_trend_supplementary_monotone_in_degree(monkeypatch):
    """With the universe and the solution structure fixed (three blocks,
    largest solution 3), growing every core's degree grows the work
    between outputs only through m = 3 * degree.  The search itself does
    not change: 10 extend calls, 8 outputs and 6 product iterations (the
    prefix cut settles it) at every degree.  What grows is the edges each
    node reduces, those its carried classification names (disjoint from
    X or private to one member of X): no edge here ever holds two members
    of X, so that is all m edges at every call, 10 * m in all.  Wall time
    (the worst gap, which is the lead-in before the first output) is
    printed only.

    Every padding edge contains its core pair, so the sweep walks the raw
    family (``walk_raw_edges``): ``enumerate_tr`` drops those edges first
    and must give the same outputs in the same order."""
    real = enumeration.extend
    work: Counter = Counter()

    def counted(h, x, y, sink=None, *, counters=None, state=None):
        uncov, crit = state
        work["calls"] += 1
        work["edges_reduced"] += uncov.bit_count() + sum(c.bit_count() for c in crit)
        return real(h, x, y, sink, counters=counters, state=state)

    monkeypatch.setattr(enumeration, "extend", counted)
    for delta in (4, 8, 16):
        h = block_family((delta,) * 3, 18)
        work.clear()
        outputs: list = []
        stats = walk_raw_edges(h, outputs.append)
        assert h.m == 3 * delta
        assert (work["calls"], len(outputs), stats.product_iterations) == (10, 8, 6)
        assert work["edges_reduced"] == 10 * h.m
        in_order: list = []
        enumerate_tr(h, in_order.append)
        assert [t.mask for t in in_order] == [t.mask for t in outputs]
        print(f"\n[delay trend] degree {delta}: max delay {stats.max_delay_ns} ns")
