from __future__ import annotations

import hashlib
import random
from collections import Counter
from math import comb

import pytest

from transversal import enumeration
from transversal.core import Hypergraph, serialize
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


# Reference loops: the three random generators without the stop on an
# exhausted edge space, so they spend the whole 50·m attempt budget.


def _reference_bounded_degree(rng, n, m, delta):
    capacity = [delta] * n
    edges, seen = [], set()
    attempts = m * 50
    while len(edges) < m and attempts > 0:
        attempts -= 1
        pool = [v for v in range(n) if capacity[v] > 0]
        if not pool:
            break
        size = rng.randint(1, min(len(pool), max(1, n // 2)))
        edge = tuple(sorted(rng.sample(pool, size)))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
        for v in edge:
            capacity[v] -= 1
    return Hypergraph(n, edges)


def _reference_bounded_rank(rng, n, m, r):
    edges, seen = [], set()
    attempts = m * 50
    while len(edges) < m and attempts > 0:
        attempts -= 1
        size = rng.randint(1, min(r, n))
        edge = tuple(sorted(rng.sample(range(n), size)))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    return Hypergraph(n, edges)


def _reference_uniform(rng, n, m, r):
    edges, seen = [], set()
    attempts = m * 50
    while len(edges) < m and attempts > 0:
        attempts -= 1
        edge = tuple(sorted(rng.sample(range(n), r)))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    return Hypergraph(n, edges)


REFERENCE_OF = {
    bounded_degree_instance: _reference_bounded_degree,
    bounded_rank_instance: _reference_bounded_rank,
    uniform_instance: _reference_uniform,
}


def _parameter_sets(count: int):
    """Seeded (generator, n, m, parameter) sets, the three generators in
    turn.  Every bounded-degree set and a third of the others draw on at
    most 5 vertices with m up to 40, which often exceeds the distinct
    edges allowed, so the edge space runs out; half the bounded-degree
    sets have degree 1.  The rest draw on up to 14 vertices."""
    rng = random.Random(22)
    makers = list(REFERENCE_OF)
    for i in range(count):
        make = makers[i % 3]
        if i % 3 == 0 or (i // 3) % 3 == 0:
            n = rng.randint(1, 5)
            m = rng.randint(0, 40)
        else:
            n = rng.randint(1, 14)
            m = rng.randint(0, 30)
        if make is uniform_instance:
            param = rng.randint(1, n)
        elif make is bounded_degree_instance and i % 6 == 0:
            param = 1
        else:
            param = rng.randint(1, 4)
        yield make, n, m, param


def test_edges_match_the_full_attempt_budget():
    """Every generator returns the edges, in order, that spending the
    whole attempt budget gives, exhausted edge spaces included."""
    exhausted = 0
    sets = list(_parameter_sets(1_800))
    for seed, (make, n, m, param) in enumerate(sets):
        got = make(random.Random(seed), n, m, param)
        want = REFERENCE_OF[make](random.Random(seed), n, m, param)
        assert got.edge_masks() == want.edge_masks(), (make.__name__, seed, n, m, param)
        exhausted += got.m < m
    assert len(sets) >= 1_500 and exhausted >= 300


# The bench recipes' raw generator outputs: instance i of a class is the
# generator's output for ``random.Random("<class>:<i>")``, the sentinels
# use their integer seeds.  Each sha256 is over the concatenated
# ``serialize`` texts, as the loops above produce them.
RECIPE_DIGESTS = {
    "deg40": (bounded_degree_instance, (40, 80, 4), 60, "f661ec7b861205532c310a8e1f0e4624538584a87d9dbe1399ca81f86ea8f4a7"),
    "deg50": (bounded_degree_instance, (50, 100, 3), 60, "218bfc5aeb6511a6719eed9d5299f4eb4eec38471bf188d45f4af363fa8ec07a"),
    "coc12": (bounded_degree_instance, (12, 20, 3), 15, "3bec8c1b3b1fef81c5d0fcbe8ca81395fdb8589c584d4edd537e4ca5ced8587d"),
    "rank20": (bounded_rank_instance, (20, 40, 3), 60, "82337a27edcec9bec165cba4fc5a59cef390a687cc539eb0f67fe6c6c40af2c5"),
    "uni16": (uniform_instance, (16, 40, 3), 8, "75c3fd134ed2e23d02891b53f192a261292a416ec46606450f363f60b2d49592"),
    "uni14": (uniform_instance, (14, 40, 3), 20, "2f4bb02bece817cfa0ff74451dbf1da5cc2579b3febc2a91ba0bcbc9c6fb9ee2"),
    "uni9x40": (uniform_instance, (9, 40, 3), 60, "b02dd1de29dc0aef440176f9f5b81df067c5d41806fadd818883e2329e10e6ec"),
    "uni9x60": (uniform_instance, (9, 60, 3), 40, "11cc5a5bf7a479ae226341e82efb66d1f6d05d23b46df329771c30ab109c3b49"),
    "uni9x24x4": (uniform_instance, (9, 24, 4), 8, "d00adea51e55ede4c86a45f256407efd008ffe4a5951835fe4fc8c7e305b78ec"),
}
SENTINEL_DIGESTS = {
    "bd40": (bounded_degree_instance, 1, (40, 80, 4), "5e1b352cc8f6e949f83c08496dcb1c4f2e3d3ff22aad38917741f4a85bebc54c"),
    "br30": (bounded_rank_instance, 2, (30, 60, 3), "d34217535909ccb0e7be85fdaef83dd5df94c369eda0c90735b9a70aabbcda43"),
    "conf16": (bounded_degree_instance, 3, (16, 30, 3), "f3658cbccad6a7953084215db9f76a99cfa44ce13c18644cb2ed451870e47531"),
}


@pytest.mark.parametrize("cls", list(RECIPE_DIGESTS))
def test_bench_recipes_are_unchanged(cls):
    make, args, count, want = RECIPE_DIGESTS[cls]
    text = "".join(serialize(make(random.Random(f"{cls}:{i}"), *args)) for i in range(count))
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("name", list(SENTINEL_DIGESTS))
def test_sentinel_recipes_are_unchanged(name):
    make, seed, args, want = SENTINEL_DIGESTS[name]
    text = serialize(make(random.Random(seed), *args))
    assert hashlib.sha256(text.encode()).hexdigest() == want


class CountingRandom(random.Random):
    """Records the result of every ``sample`` call, sorted."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws: list[tuple[int, ...]] = []

    def sample(self, population, k, **kw):
        drawn = super().sample(population, k, **kw)
        self.draws.append(tuple(sorted(drawn)))
        return drawn


@pytest.mark.parametrize(
    "make, n, m, param, space",
    [
        (uniform_instance, 5, 100, 2, comb(5, 2)),
        (uniform_instance, 6, 30, 6, 1),
        (bounded_rank_instance, 4, 60, 2, 10),
        (bounded_rank_instance, 3, 30, 5, 7),
        (bounded_degree_instance, 4, 60, 100, 10),  # the pool never shrinks
        (bounded_degree_instance, 1, 30, 3, 1),
        (bounded_degree_instance, 5, 40, 1, None),
        (bounded_degree_instance, 5, 40, 2, None),
        (bounded_degree_instance, 8, 60, 3, None),
    ],
)
def test_no_draw_follows_the_last_new_edge(make, n, m, param, space):
    """Once no edge the generator can still draw would be new, it stops:
    its last ``sample`` call drew its last edge."""
    for seed in range(10):
        rng = CountingRandom(seed)
        h = make(rng, n, m, param)
        want = REFERENCE_OF[make](random.Random(seed), n, m, param)
        assert h.edge_masks() == want.edge_masks()
        assert h.m < m and (space is None or h.m == space)
        last = tuple(sorted(h.edges[-1]))
        assert rng.draws.index(last) == len(rng.draws) - 1, (seed, len(rng.draws))


def test_uniform_returns_every_pair_of_an_exhausted_universe():
    h = uniform_instance(random.Random(0), 5, 100, 2)
    assert sorted(h.edge_masks()) == sorted((1 << a) | (1 << b) for a in range(5) for b in range(a))


def test_block_family_structure():
    for delta in (2, 4, 8, 16):
        h = block_family((delta,) * 3, 18)
        assert h.n == 18
        assert h.m == 3 * delta
        assert h.max_degree == delta
        assert kstar_of(h) == 3
    # a block of one edge is its core alone: no pad, so no filler needed
    assert block_family((1,), 2).edge_masks() == (0b11,)


@pytest.mark.parametrize("make, args, message", [
    (bounded_degree_instance, (random.Random(0), 0, 3, 2), r"need n >= 1 and delta >= 1"),
    (bounded_degree_instance, (random.Random(0), 4, 3, 0), r"need n >= 1 and delta >= 1"),
    (bounded_rank_instance, (random.Random(0), 0, 3, 2), r"need n >= 1 and r >= 1"),
    (bounded_rank_instance, (random.Random(0), 4, 3, 0), r"need n >= 1 and r >= 1"),
    (block_family, ((1, 0), 6), "every block needs at least its core edge"),
    (block_family, ((1, 1), 3), "universe too small for the cores"),
    # a second edge in the block needs a filler vertex, and there is none
    (block_family, ((2,), 2), "no filler vertices available"),
    # one filler vertex gives one pad, and the block needs four
    (block_family, ((5,), 3), "not enough filler subsets for the requested block size"),
    # two blocks, so the second still needs one of the three edges
    (delay_trend_instance, (8, 3, 2, 3), "delta too large: the other blocks still need one edge each"),
    # three blocks of two edges share the one filler vertex, whose degree
    # 3 then exceeds delta = 2
    (delay_trend_instance, (7, 6, 3, 2), "parameters not realizable as a block family"),
])
def test_generator_refusals(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


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
    not change: 7 extend calls, 3 nodes settled without one, 8 outputs
    and 3 product iterations (the prefix cut settles it) at every degree.
    What grows is the edges each call reduces, those its carried
    classification names (disjoint from X or private to one member of
    X): no edge here ever holds two members of X, so that is all m edges
    at every call, 7 * m in all.  Wall time
    (the worst gap, which is the lead-in before the first output) is
    printed only.

    Every padding edge contains its core pair, so the sweep walks the raw
    family (``walk_raw_edges``): ``enumerate_tr`` drops those edges first
    and must give the same outputs in the same order."""
    real = enumeration.extend
    work: Counter = Counter()

    def counted(h, x, y, sink=None, *, counters=None, state=None):
        uncov, crit = state[:2]
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
        assert (work["calls"], len(outputs), stats.product_iterations) == (7, 8, 3)
        assert stats.work["settled"] == 3
        assert work["edges_reduced"] == 7 * h.m
        in_order: list = []
        enumerate_tr(h, in_order.append)
        assert [t.mask for t in in_order] == [t.mask for t in outputs]
        print(f"\n[delay trend] degree {delta}: max delay {stats.max_delay_ns} ns")
