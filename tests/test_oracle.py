from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from transversal import Hypergraph, VertexSet, edge_complement, oracle
from transversal.oracle import (
    OracleCapExceeded,
    brute_conformal_degree,
    brute_extensions,
    brute_max_cliques,
    brute_rank,
    brute_tr,
)

from conftest import masks, random_hypergraph


def test_brute_tr_examples():
    assert masks(brute_tr(Hypergraph(2, [(0, 1)]))) == {0b01, 0b10}
    assert [t.members() for t in brute_tr(Hypergraph(2, []))] == [()]
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert masks(brute_tr(tri)) == {0b011, 0b101, 0b110}


def test_brute_tr_hand_checkable_minimality():
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    for t in brute_tr(tri):
        assert len(t) == 2  # every pair hits all three edges and drops to none


def test_brute_rank_conventions():
    assert brute_rank(Hypergraph(3, [])) == 0
    assert brute_rank(Hypergraph(3, [()])) == 0  # no hitting sets at all
    assert brute_rank(Hypergraph(6, [(0, 1), (2, 3), (4, 5)])) == 3


def test_brute_conformal_degree_examples():
    assert brute_conformal_degree(Hypergraph(3, [(0, 1, 2)])) == 1
    assert brute_conformal_degree(Hypergraph(3, [(0, 1), (1, 2), (0, 2)])) == 3
    assert brute_conformal_degree(Hypergraph(3, [(2,), (0,), (1,)])) == 2


def test_brute_extensions_partition():
    h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    part = brute_extensions(h, VertexSet.of(6, 0), VertexSet(6))
    assert part.zero == () and part.one == ()
    assert masks(part.higher) == {
        VertexSet.of(6, 0, 2, 4).mask,
        VertexSet.of(6, 0, 2, 5).mask,
        VertexSet.of(6, 0, 3, 4).mask,
        VertexSet.of(6, 0, 3, 5).mask,
    }


def test_brute_extensions_rejects_overlap():
    h = Hypergraph(2, [(0,)])
    with pytest.raises(ValueError):
        brute_extensions(h, VertexSet.of(2, 0), VertexSet.of(2, 0))


def test_brute_max_cliques_needs_uniformity():
    with pytest.raises(ValueError):
        brute_max_cliques(Hypergraph(3, [(0,), (0, 1)]))
    with pytest.raises(ValueError):
        brute_max_cliques(Hypergraph(3, []))  # ambiguous without r
    assert brute_max_cliques(Hypergraph(3, []), 2) == []


def test_cap():
    big = Hypergraph(25, [])
    with pytest.raises(OracleCapExceeded):
        brute_tr(big)
    assert brute_tr(big, cap=25) == [VertexSet(25)]


def test_internal_consistency():
    rng = random.Random(111)
    for _ in range(40):
        h = random_hypergraph(rng, n_max=6, m_max=8, empty_edge_p=0)
        tr = brute_tr(h)
        assert brute_rank(h) == max((len(t) for t in tr), default=0)
        if h.m:
            # the two oracles certify each other through the complement
            assert brute_conformal_degree(edge_complement(h)) == brute_rank(h)


def test_oracles_share_no_code_with_the_fast_paths():
    """``oracle.py`` takes only the data types and ``iter_bits`` from the
    package, all from ``core``, so no oracle can come to lean on a helper
    of the code it checks."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    got = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            got |= {a.name for a in node.names if a.name.split(".")[0] == "transversal"}
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "transversal"
        ):
            module = "." * node.level + (node.module or "")
            got |= {f"{module}:{a.name}" for a in node.names}
    assert got == {".core:Hypergraph", ".core:VertexSet", ".core:iter_bits"}
