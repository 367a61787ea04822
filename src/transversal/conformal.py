"""Conformality: is every set whose small subsets all fit inside edges
itself inside an edge?

Both questions are answered on the dual side, on the edge complement
(the Berge–Duchet characterisation).  A minimal hitting set t of the
complement lies in no edge, while each t - v lies in some edge; so H is
k-conformal exactly when the complement has no minimal hitting set of
k+1 or more vertices, and such a t is itself the counterexample.  The
k-test asks the rank decider for k+1.  The conformal degree is the
complement's transversal rank (at least 1), from the pruned tree search
of ``transversal_rank``.  With no edges (the complement has rank 0), or
with an edge equal to the universe (checked first), every answer is
"conformal".
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph, VertexSet, edge_complement
from .rank import rank_at_least, transversal_rank

# Not called here.  The benchmark's tracer (bench/spans.py) wraps these
# module globals by name and fails when one is missing.
from .core import k_section  # noqa: F401
from .cliques import enumerate_maximal_cliques, enumerate_maximal_hypercliques  # noqa: F401

__all__ = ["ConformalityVerdict", "is_k_conformal", "conformal_degree"]


@dataclass(frozen=True)
class ConformalityVerdict:
    """Truthy when conformal; otherwise carries a counterexample set whose
    small subsets are all covered by edges while the set itself is not."""

    counterexample: VertexSet | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.ok


def _has_universe_edge(h: Hypergraph) -> bool:
    """Its complement is an empty edge, where rank is undefined."""
    return (1 << h.n) - 1 in h.edge_mask_set()


def is_k_conformal(h: Hypergraph, k: int) -> ConformalityVerdict:
    if k < 1:
        raise ValueError("conformality is defined for k >= 1")
    if _has_universe_edge(h):
        return ConformalityVerdict()
    witness = rank_at_least(edge_complement(h), k + 1)
    return ConformalityVerdict(None if witness is None else witness.t)


def conformal_degree(h: Hypergraph) -> int:
    """Smallest k for which the hypergraph is k-conformal."""
    if _has_universe_edge(h):
        return 1
    return max(1, transversal_rank(edge_complement(h)))
