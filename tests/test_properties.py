"""Seeded differential and metamorphic checks of the tree search.

A fixed seed draws ``COUNT`` random hypergraphs with n <= 10 and m <= 14,
some holding the empty edge or an edge drawn twice (``random_hypergraph``).
On each:

- ``enumerate_tr`` and ``enumerate_incremental`` each give
  ``brute_tr``'s sets, with no repeats;
- Tr(Tr(H)) = min H (Berge's duality);
- relabelling the vertices by a random permutation relabels Tr(H) the
  same way, a property the order-pinning digests cannot see;
- the transversal rank by the tree, look-ahead and edge-family routes is
  ``brute_rank``'s, and each decider answers "yes" at k exactly when
  k <= rank, with a minimal hitting set of at least k vertices; an empty
  edge is refused.  The look-ahead's "yes" and "no" come from
  ``find_higher_order``, which makes ``extend``'s product decision;
- ``verify_tr`` finds G = Tr(H) (``brute_tr``) equal to H's transversal
  hypergraph, and on G minus one set gives a ``MissingSolution`` whose
  ``s`` is a minimal hitting set of that G holding no edge of H and
  whose ``t`` is the dropped set;
- the conformal degree is ``brute_conformal_degree``'s d, and for every
  k from 1 to n + 1 ``is_k_conformal`` answers "conformal" exactly when
  d <= k; each counterexample has more than k vertices, each of its
  k-subsets lies inside some edge, and it lies inside none.  The
  k-test asks the look-ahead decider about the edge complement, which
  is dense where H is sparse.

A failing instance is shrunk, by dropping edges and then vertices while
the check still fails, and the failure prints its ``.hg`` text.

A second fixed seed draws ``UNIFORM_COUNT`` 3-uniform hypergraphs
(``uniform_instance`` with n from 5 to 9 and m from 4 to the smaller of
40 and C(n, 3) - 1).  On each, ``enumerate_maximal_hypercliques`` gives
``brute_max_cliques``'s sets and ``enumerate_maximal_independent_sets``
the complements of ``brute_tr``'s, each with no repeats.  Both run the
tree search at high degree, on the draw's 3-uniform complement (never
empty, since each draw misses some triple; of degree up to 28) and on
the draw itself, so the product search's first-combination test and its
sift run on most calls.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Callable

import pytest

from transversal import Hypergraph, VertexSet
from transversal.cliques import (
    enumerate_maximal_hypercliques,
    enumerate_maximal_independent_sets,
)
from transversal.conformal import conformal_degree, is_k_conformal
from transversal.core import iter_bits, minimize_edges, serialize
from transversal.enumeration import enumerate_incremental, enumerate_tr
from transversal.generators import uniform_instance
from transversal.hitting import is_minimal_hitting_set
from transversal.oracle import (
    brute_conformal_degree,
    brute_max_cliques,
    brute_rank,
    brute_tr,
)
from transversal.rank import rank_at_least, transversal_rank
from transversal.verify import MissingSolution, verify_tr

from conftest import random_hypergraph

SEED = 0x7A2B
COUNT = 300
UNIFORM_SEED = 0x3C1D
UNIFORM_COUNT = 100

# a check maps (H, permutation seed) to a failure message, or None
Check = Callable[[Hypergraph, int], "str | None"]


def output_masks(h: Hypergraph, route: Callable = enumerate_tr) -> list[int]:
    got: list[int] = []
    route(h, lambda t: got.append(t.mask))
    return got


def _differs(name: str, got: list[int], want: set[int]) -> str | None:
    """A failure message unless ``got`` is ``want`` with no repeats."""
    if len(got) != len(set(got)):
        return f"{name} repeats outputs: {sorted(got)}"
    if set(got) != want:
        return f"{name} {sorted(got)} != oracle {sorted(want)}"
    return None


def matches_oracle(h: Hypergraph, _seed: int) -> str | None:
    return _differs("tree", output_masks(h), {t.mask for t in brute_tr(h)})


def incremental_route(h: Hypergraph, _seed: int) -> str | None:
    got = output_masks(h, enumerate_incremental)
    return _differs("incremental", got, {t.mask for t in brute_tr(h)})


def duality(h: Hypergraph, _seed: int) -> str | None:
    tr = Hypergraph(h.n, [VertexSet(h.n, t) for t in output_masks(h)])
    back = set(output_masks(tr))
    want = set(minimize_edges(h).edge_masks())
    if back != want:
        return f"Tr(Tr(H)) {sorted(back)} != min H {sorted(want)}"
    return None


def relabelling(h: Hypergraph, seed: int) -> str | None:
    perm = random.Random(seed).sample(range(h.n), h.n)

    def moved(mask: int) -> int:
        return sum(1 << perm[v] for v in iter_bits(mask))

    g = Hypergraph(h.n, [VertexSet(h.n, moved(e)) for e in h.edge_masks()])
    got = set(output_masks(g))
    want = {moved(t) for t in output_masks(h)}
    if got != want:
        return f"Tr(pi H) {sorted(got)} != pi Tr(H) {sorted(want)}, pi = {perm}"
    return None


def _refuses(call: Callable[[], object]) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


def rank_deciders(h: Hypergraph, _seed: int) -> str | None:
    if 0 in h.edge_masks():
        for method in ("tree", "lookahead", "bd"):
            if not _refuses(lambda: transversal_rank(h, method=method)):
                return f"transversal_rank by {method} accepts the empty edge"
        for method in ("lookahead", "bd"):
            if not _refuses(lambda: rank_at_least(h, 2, method=method)):
                return f"rank_at_least by {method} accepts the empty edge"
        return None
    want = brute_rank(h)
    for method in ("tree", "lookahead", "bd"):
        got = transversal_rank(h, method=method)
        if got != want:
            return f"transversal_rank by {method} {got} != oracle {want}"
    for method in ("lookahead", "bd"):
        for k in range(1, want + 2):
            witness = rank_at_least(h, k, method=method)
            if (witness is not None) != (k <= want):
                return f"rank_at_least({k}) by {method} is {witness}, rank {want}"
            if witness is not None and (
                len(witness.t) < k or not is_minimal_hitting_set(h, witness.t)
            ):
                return f"rank_at_least({k}) by {method} witness {witness.t.members()}"
    return None


def verify_route(h: Hypergraph, seed: int) -> str | None:
    tr = [t.mask for t in brute_tr(h)]
    g = Hypergraph(h.n, [VertexSet(h.n, t) for t in tr])
    got = verify_tr(g, h)
    if not got.equal:
        return f"verify_tr(Tr(H), H) is {got}"
    if not tr:
        return None
    drop = random.Random(seed).randrange(len(tr))
    g = Hypergraph(h.n, [VertexSet(h.n, t) for i, t in enumerate(tr) if i != drop])
    got = verify_tr(g, h)
    if not isinstance(got, MissingSolution) or got.t.mask != tr[drop]:
        return f"verify_tr(Tr(H) - {tr[drop]}, H) is {got}"
    s = got.s.mask
    if not is_minimal_hitting_set(g, got.s) or any(e & s == e for e in h.edge_masks()):
        return f"verify_tr(Tr(H) - {tr[drop]}, H) gives s = {got.s.members()}"
    return None


def conformality(h: Hypergraph, _seed: int) -> str | None:
    want = brute_conformal_degree(h)
    got = conformal_degree(h)
    if got != want:
        return f"conformal_degree {got} != oracle {want}"
    masks = h.edge_masks()

    def inside(s: int) -> bool:
        return any(s & ~e == 0 for e in masks)

    for k in range(1, h.n + 2):
        verdict = is_k_conformal(h, k)
        if verdict.ok != (want <= k):
            return f"is_k_conformal({k}) is {verdict}, degree {want}"
        c = verdict.counterexample
        if c is not None and (
            len(c) <= k
            or inside(c.mask)
            or not all(
                inside(sum(1 << v for v in sub))
                for sub in itertools.combinations(c.members(), k)
            )
        ):
            return f"is_k_conformal({k}) counterexample {c.members()}"
    return None


def _without_vertex(h: Hypergraph, v: int) -> Hypergraph:
    """H restricted to the other vertices, renumbered in order."""
    low = (1 << v) - 1
    return Hypergraph(
        h.n - 1,
        [VertexSet(h.n - 1, (e & low) | (e >> (v + 1) << v)) for e in h.edge_masks()],
    )


def shrink(h: Hypergraph, fails: Callable[[Hypergraph], bool]) -> Hypergraph:
    """Drop one edge, else one vertex, while ``fails`` still holds."""
    while True:
        masks = h.edge_masks()
        smaller = [
            Hypergraph(h.n, [VertexSet(h.n, e) for j, e in enumerate(masks) if j != i])
            for i in range(len(masks))
        ] + [_without_vertex(h, v) for v in range(h.n)]
        for g in smaller:
            if fails(g):
                h = g
                break
        else:
            return h


INSTANCES = [random_hypergraph(random.Random(SEED + i), 10, 14, 0.02) for i in range(COUNT)]


def test_the_draw_covers_the_degenerate_shapes():
    assert sum(0 in h.edge_masks() for h in INSTANCES) >= 30
    assert sum(h.duplicates_dropped > 0 for h in INSTANCES) >= 100
    assert sum(h.m == 0 for h in INSTANCES) >= 5
    assert sum(not h.is_sperner() for h in INSTANCES) >= 100


@pytest.mark.parametrize(
    "check",
    [
        matches_oracle,
        incremental_route,
        duality,
        relabelling,
        rank_deciders,
        verify_route,
        conformality,
    ],
)
def test_property_holds_on_random_hypergraphs(check: Check):
    for i, h in enumerate(INSTANCES):
        seed = SEED + i
        failure = check(h, seed)
        if failure is not None:
            small = shrink(h, lambda g: check(g, seed) is not None)
            pytest.fail(
                f"{check.__name__} fails on instance {i}: {failure}\n"
                f"shrunk to {check(small, seed)} on:\n{serialize(small)}"
            )


def test_clique_routes_match_the_oracles_on_uniform_hypergraphs():
    rng = random.Random(UNIFORM_SEED)
    for i in range(UNIFORM_COUNT):
        n = rng.randint(5, 9)
        # fewer than every triple, so the complement keeps an edge
        h = uniform_instance(rng, n, rng.randint(4, min(40, comb(n, 3) - 1)), 3)
        full = (1 << h.n) - 1
        failure = _differs(
            "hypercliques",
            output_masks(h, enumerate_maximal_hypercliques),
            {c.mask for c in brute_max_cliques(h)},
        ) or _differs(
            "independent sets",
            output_masks(h, enumerate_maximal_independent_sets),
            {full & ~t.mask for t in brute_tr(h)},
        )
        assert failure is None, f"draw {i}: {failure}\n{serialize(h)}"


def test_shrink_keeps_a_failing_core():
    # "some edge has two vertices" shrinks to one edge on a two-vertex
    # universe: the edges go first, then every vertex outside (0, 4),
    # and 4 is renumbered 1 as the vertices below it go
    h = Hypergraph(5, [(0, 1), (1, 2, 3), (3, 4), (0, 4)])
    small = shrink(h, lambda g: any(e.bit_count() >= 2 for e in g.edge_masks()))
    assert (small.n, small.edge_masks()) == (2, (0b11,))
