"""Hypergraph transversal toolkit.

Minimal hitting set enumeration with a higher-order look-ahead,
transversal-rank and conformal-degree deciders with certified witnesses,
maximal (hyper)clique listing, and transversal-hypergraph verification —
everything cross-checkable against built-in brute-force oracles.
"""

from .core import (
    Hypergraph,
    HypergraphFormatError,
    VertexSet,
    edge_complement,
    k_section,
    minimize_edges,
    parse,
    serialize,
    uniform_complement,
)

__all__ = [
    "Hypergraph",
    "HypergraphFormatError",
    "VertexSet",
    "edge_complement",
    "k_section",
    "minimize_edges",
    "parse",
    "serialize",
    "uniform_complement",
]

__version__ = "0.1.0"
