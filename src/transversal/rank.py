"""Transversal rank: does some minimal hitting set have at least k
vertices, and how large is the largest?

Two independent deciders produce certified witnesses: the look-ahead
route seeds the search with (k-2)-subsets of vertices in colex order and
asks for a higher-order extension, and the edge-family route scans
k-tuples of minimal edges whose pairwise overlaps trap no edge.  These
are the paper's algorithms and carry its bounds for fixed k.  Their
brute-force cross-check, ``oracle.brute_rank``, shares no code with them.

Both scans walk their subsets in colex order, each by its own flat
loop, top element first, and each keeps the full scan's first hit.  The
look-ahead tries only canonical seeds: a minimal hitting set T of k or
more vertices has one colex-smallest (k-2)-subset, its k-2 lowest
vertices L(T), and the full scan's first hit S is L(T) for its own
witness T: L(T) comes no later than S in colex order, and T extends it
too.  So the walk skips a seed that no such T can have as L(T):
- one below a prefix P in which some vertex has lost its last private
  edge: every vertex of T keeps one;
- one below a prefix P with fewer than k - |P| uncovered edges: each
  vertex T adds to P needs a private edge of its own, and that edge
  misses P;
- one below a prefix with an uncovered edge that meets no vertex above
  the top member nor, while members are still to come, below the last
  one chosen: T's vertices outside the seed lie above its top member.
It hands each surviving seed's edge classification (``uncov``/``crit``,
see ``extension.extend``) to ``find_higher_order``, which still forbids
no vertex, so the witness is the full scan's.
The edge-family route cuts a prefix whose overlap (the vertices in two
or more of its edges) already holds a minimal edge, since the overlap
only grows; it makes at most Σ_{i<=k} C(m', i) overlap tests, each
over all m' edges at once in packed lanes, the paper's O(m^{k+1}·n) for
a "no".

The exact rank defaults to a third route: one walk of ``enumerate_tr``'s
search tree, keeping the largest solution and pruning each node whose
private-edge bound cannot beat it.  It has no polynomial bound (in the
worst case it visits the whole tree), but it pays no "no" answer at a
failing k, which dominates the deciders' ascending scan.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

from .core import Hypergraph, VertexSet, _pack_lanes, minimize_edges
from .enumeration import DelayStats, _walk_tree
from .extension import find_higher_order
from .hitting import minimize

__all__ = [
    "RankWitness",
    "rank_at_least_lookahead",
    "rank_at_least_bd",
    "rank_at_least",
    "transversal_rank",
]


def _irredundant_seeds(
    h: Hypergraph, k: int, counters: Counter | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, list[int]]]]:
    """The (k-2)-subsets of the vertices that can be the k-2 lowest
    vertices of a minimal hitting set T of k or more vertices, in colex
    order, each with its edge classification ``(uncov, crit)`` (``crit``
    ascending by member, as ``extend`` takes it).

    One flat walk, top member first: a prefix is a set of high vertices
    and the next member is tried in ascending order below its lowest one.
    The walk carries the prefix's ``uncov``/``crit`` masks, updated as
    ``extension.include_vertex`` does, and skips a vertex v whose prefix
    P (v included) fails any of three tests:
    - every member keeps a private edge: v meets an uncovered edge, and
      no member's ``crit`` mask loses its last edge to v; the masks only
      shrink as vertices join, so the colex block below a dead prefix
      holds no seed;
    - P has at least k - |P| uncovered edges: each vertex T adds to P
      needs a private edge of its own, and that edge misses P;
    - each uncovered edge meets a vertex above the top member or, while
      members are still to come, a vertex below v: T's vertices outside
      the seed lie above its top member.  ``above`` and ``below`` hold,
      per vertex, the union of the edges meeting a vertex above or below
      it.
    Each prefix that passes every test (each seed included) is counted
    once, and the count is added to ``counters["lookahead_prefixes"]``
    when the walk ends or is closed.
    """
    n = h.n
    size = k - 2
    if size > n:
        return
    root = (1 << h.m) - 1
    if size == 0:
        yield (), (root, [])
        return
    incidence = h.incidence
    below = [0] * n
    above = [0] * n
    for v in range(1, n):
        below[v] = below[v - 1] | incidence[v - 1]
        above[n - 1 - v] = above[n - v] | incidence[n - v]
    last = size - 1
    # per depth j (members chosen so far): the prefix's classification,
    # and the vertex chosen there; members lie below ``bound``
    uncovs = [root] * size
    crits: list[list[int]] = [[]] * size
    chosen = [0] * size
    prefixes = 0
    j = 0
    v = last
    bound = n
    try:
        while True:
            if v == bound:
                if j == 0:
                    return
                j -= 1
                v = chosen[j] + 1
                bound = chosen[j - 1] if j else n
                continue
            uncov = uncovs[j]
            ev = incidence[v]
            cv = uncov & ev
            if not cv:
                v += 1  # v meets no uncovered edge, so it has no private one
                continue
            child_uncov = uncov ^ cv
            if child_uncov.bit_count() < k - j - 1:
                v += 1
                continue
            reach = above[chosen[0] if j else v]
            if j < last:
                reach |= below[v]
            if child_uncov & ~reach:
                v += 1  # no vertex that can still join meets some uncovered edge
                continue
            nev = ~ev
            child = [c & nev for c in crits[j]]
            if 0 in child:
                v += 1  # v takes every private edge of some member
                continue
            child.append(cv)
            prefixes += 1
            chosen[j] = v
            if j == last:
                # members joined top first, so their masks are descending
                yield tuple(chosen[::-1]), (child_uncov, child[::-1])
                v += 1
                continue
            j += 1
            uncovs[j] = child_uncov
            crits[j] = child
            bound = v
            v = last - j
    finally:
        if counters is not None:
            counters["lookahead_prefixes"] += prefixes


@dataclass(frozen=True)
class RankWitness:
    """A minimal hitting set of at least k vertices plus its certificate.

    The look-ahead route fills ``seed`` (its (k-2)-vertex partial
    solution), ``chosen_edges`` (one candidate private edge per seed
    vertex), ``forced`` (the vertices completing the seed in one step)
    and ``cover`` (the hitting superset that was shrunk to ``t``).  The
    edge-family route fills ``edge_family`` (the k certifying edges) and
    ``overlap`` (the vertices lying in at least two of them).  The tree
    search fills only ``t``.
    """

    t: VertexSet
    seed: VertexSet | None = None
    chosen_edges: tuple[VertexSet, ...] | None = None
    forced: VertexSet | None = None
    cover: VertexSet | None = None
    edge_family: tuple[VertexSet, ...] | None = None
    overlap: VertexSet | None = None


def _reject_empty_edge(h: Hypergraph) -> None:
    if any(e == 0 for e in h.edge_masks()):
        raise ValueError("an empty edge admits no hitting set; rank is undefined")


def _small_k(h: Hypergraph, k: int) -> RankWitness | None:
    """Conventions for k <= 1: the edgeless hypergraph has rank 0, and any
    minimal hitting set of a non-empty one witnesses k <= 1."""
    if h.m == 0:
        return RankWitness(t=VertexSet(h.n)) if k <= 0 else None
    return RankWitness(t=minimize(h, VertexSet.full(h.n)))


def rank_at_least_lookahead(
    h: Hypergraph, k: int, *, counters: Counter | None = None
) -> RankWitness | None:
    """Witness a minimal hitting set of size >= k, or None.

    For k >= 2, a set of k-2 vertices with a higher-order minimal
    extension is searched (colex order, first hit wins).  Only canonical
    seeds are tried: ones that pass ``_irredundant_seeds``'s three tests
    for being the k-2 lowest vertices of a minimal hitting set of k or
    more vertices.  The full colex scan's first hit is such a seed for
    its own witness, and every seed before it fails, so the first hit,
    asked with no vertex forbidden, is the full scan's.
    From the certifying combination, the union of the seed with
    everything outside the chosen edges and the forced vertices is a
    hitting superset whose minimization necessarily keeps the seed and at
    least two more vertices.  ``counters`` receives the product search's
    work and, under ``lookahead_prefixes``, the prefixes the seed walk
    built.
    """
    _reject_empty_edge(h)
    if k <= 1:
        return _small_k(h, k)
    n = h.n
    full = (1 << n) - 1
    masks = h.edge_masks()
    with closing(_irredundant_seeds(h, k, counters)) as seeds:
        for seed_tuple, state in seeds:
            seed = VertexSet.from_iterable(n, seed_tuple)
            witness = find_higher_order(h, seed, counters=counters, state=state)
            if witness is None:
                continue
            union = 0
            for i in witness.edge_indices:
                union |= masks[i]
            cover = VertexSet(n, seed.mask | (full & ~(witness.forced.mask | union)))
            return RankWitness(
                t=minimize(h, cover),
                seed=seed,
                chosen_edges=tuple(VertexSet(n, masks[i]) for i in witness.edge_indices),
                forced=witness.forced,
                cover=cover,
            )
    return None


def rank_at_least_bd(
    h: Hypergraph, k: int, *, counters: Counter | None = None
) -> RankWitness | None:
    """Edge-family decider: after reducing to the inclusion-minimal edges,
    look for k of them whose pairwise overlaps (the vertices in two or
    more of them) hold no edge; the complement of that overlap is then a
    hitting set whose minimization has at least k vertices.

    A vertex lies in the union of every k-1 members exactly when it lies
    in two or more, so this is the paper's test that no edge lies inside
    the union of any k-1 of them.  The k-families are walked in colex
    order, top member first, carrying the prefix's union ``once`` and
    overlap ``twice`` (a new member e adds ``once & e``).  A prefix is cut
    as soon as some minimal edge lies inside ``twice``: the overlap only
    grows as members join, so no completion certifies, and the first
    certifying family is the full colex scan's.

    Each prefix whose overlap grew tests the m' minimal edges at once, in
    packed lanes (``core._pack_lanes``); these overlap tests are tallied
    under ``bd_entries_touched``.  There is at most one per prefix of the
    unpruned walk, Σ_{i<=k} C(m', i) in all, so a "no" can still cost the
    paper's O(m^{k+1}·n).
    """
    _reject_empty_edge(h)
    if k <= 1:
        return _small_k(h, k)
    masks = minimize_edges(h).edge_masks()
    m = len(masks)
    if k > m:
        return None
    packed, ones, low, top = _pack_lanes(masks, h.n)
    last = k - 1
    # per depth j (members chosen so far): the prefix's union and overlap,
    # and the edge chosen there; members lie below ``bound``
    onces = [0] * k
    twices = [0] * k
    family = [0] * k
    tests = 0
    j = 0
    i = last
    bound = m
    witness = None
    while True:
        if i == bound:
            if j == 0:
                break
            j -= 1
            i = family[j] + 1
            bound = family[j - 1] if j else m
            continue
        once, twice = onces[j], twices[j]
        e = masks[i]
        grown = twice | (once & e)
        if grown != twice:
            tests += 1
            if ((packed & ~(grown * ones)) + low) & top != top:
                i += 1  # some minimal edge lies inside the overlap
                continue
        family[j] = i
        if j == last:
            overlap = VertexSet(h.n, grown)
            witness = RankWitness(
                t=minimize(h, overlap.complement()),
                edge_family=tuple(VertexSet(h.n, masks[f]) for f in reversed(family)),
                overlap=overlap,
            )
            break
        j += 1
        onces[j] = once | e
        twices[j] = grown
        bound = i
        i = last - j
    if counters is not None:
        counters["bd_entries_touched"] += tests
    return witness


def rank_at_least(
    h: Hypergraph,
    k: int,
    *,
    method: str = "lookahead",
    counters: Counter | None = None,
) -> RankWitness | None:
    if method == "lookahead":
        return rank_at_least_lookahead(h, k, counters=counters)
    if method == "bd":
        return rank_at_least_bd(h, k, counters=counters)
    raise ValueError(f"unknown rank method {method!r}")


def _largest_by_tree(h: Hypergraph, counters: Counter) -> RankWitness:
    """The largest minimal hitting set of ``h`` (no empty edge), by one
    walk of ``enumerate_tr``'s search tree that keeps the largest output
    and prunes every node whose subtree cannot beat it.

    Below a node (X, Y), each vertex a solution adds to X needs a private
    edge of its own, and that edge misses X, so it is one of the uncovered
    edges and contains the vertex.  Hence no solution below the node has
    more than |X| + min(r, u) vertices, where u counts the uncovered edges
    and r the free vertices (outside X and Y) meeting one of them; the
    node is pruned when that is at most the best size so far (an edgeless
    input's root, whose bound is 0, among them).  Extension calls are
    tallied under ``tree_nodes`` and pruned nodes under ``tree_pruned``.
    Like ``enumerate_tr``, the walk and the prune both run on the
    inclusion-minimal edges.
    """
    n = h.n
    best = VertexSet(n)
    best_size = 0
    h = minimize_edges(h)
    incidence = h.incidence
    full = (1 << n) - 1

    def keep(t: VertexSet) -> None:
        nonlocal best, best_size
        if len(t) > best_size:
            best, best_size = t, len(t)

    def prune(xm: int, ym: int, uncov: int) -> bool:
        room = best_size - xm.bit_count()
        if room >= 0:
            if uncov.bit_count() <= room:
                counters["tree_pruned"] += 1
                return True
            reach = 0
            free = full & ~(xm | ym)
            while free:
                low = free & -free
                if incidence[low.bit_length() - 1] & uncov:
                    reach += 1
                    if reach > room:
                        break
                free ^= low
            else:
                counters["tree_pruned"] += 1
                return True
        counters["tree_nodes"] += 1
        return False

    _walk_tree(h, keep, DelayStats(work=counters), prune=prune)
    return RankWitness(t=best)


def transversal_rank(
    h: Hypergraph, *, method: str = "tree", counters: Counter | None = None
) -> int:
    """Largest k admitting a minimal hitting set of size k (0 for an
    edgeless hypergraph).

    The default ``method="tree"`` walks the search tree once with a
    private-edge bound (``_largest_by_tree``).  It has no polynomial
    bound: in the worst case it visits the whole tree.  The deciders
    (``"lookahead"``, ``"bd"``), which carry the paper's bounds for fixed
    k, are instead asked for k = 1, 2, ...; after a witness t the next
    question is k = |t|+1, and the first "no" ends the scan.
    Any other method is a ``ValueError``.  ``counters`` receives the
    chosen route's work counts.
    """
    if method not in ("tree", "lookahead", "bd"):
        raise ValueError(f"unknown rank method {method!r}")
    _reject_empty_edge(h)
    if counters is None:
        counters = Counter()
    if method == "tree":
        return len(_largest_by_tree(h, counters).t)
    best = 0
    k = 1
    while k <= h.n:
        witness = rank_at_least(h, k, method=method, counters=counters)
        if witness is None:
            break
        best = len(witness.t)
        k = best + 1
    return best
