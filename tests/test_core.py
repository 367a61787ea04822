from __future__ import annotations

import random
from collections import Counter

import pytest

from transversal import (
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
from transversal import core, verify
from transversal.enumeration import enumerate_incremental
from transversal.generators import uniform_instance
from transversal.oracle import brute_tr

from conftest import masks, random_hypergraph


class TestVertexSet:
    def test_basic_algebra(self):
        a = VertexSet.of(5, 0, 2, 4)
        b = VertexSet.of(5, 2, 3)
        assert (a | b).members() == (0, 2, 3, 4)
        assert (a & b).members() == (2,)
        assert (a - b).members() == (0, 4)
        assert b <= (a | b) and b.issubset(a | b)
        assert not a <= b and not a.issubset(b)
        assert (a & b) < b and not b < b
        assert a.complement().members() == (1, 3)
        assert len(a) == 3 and 2 in a and 1 not in a
        assert list(a) == [0, 2, 4]

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, 0) | VertexSet.of(4, 0)

    def test_mask_out_of_range(self):
        for mask in (0b100, -1):
            with pytest.raises(ValueError, match="outside the universe"):
                VertexSet(2, mask)
        with pytest.raises(ValueError):
            VertexSet.of(2, 5)

    def test_negative_universe(self):
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            VertexSet(-1)

    def test_hash_and_eq(self):
        assert VertexSet.of(4, 1, 2) == VertexSet.of(4, 2, 1)
        assert len({VertexSet.of(4, 1), VertexSet.of(4, 1)}) == 1
        s = VertexSet.of(4, 1, 3)
        assert repr(s) == "VertexSet.of(4, 1, 3)" and eval(repr(s)) == s


class TestHypergraph:
    def test_dedup_counts(self):
        h = Hypergraph(2, [(0, 1), (1, 0)])
        assert h.m == 1
        assert h.duplicates_dropped == 1

    def test_hash_eq_and_repr(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert len({h, Hypergraph(3, [(1, 0), (2, 1)])}) == 1
        assert h != Hypergraph(3, [(1, 2), (0, 1)])  # edge order counts
        assert repr(h) == "Hypergraph(n=3, edges=[{0 1}, {1 2}])"

    def test_stats(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert h.rank == 2
        assert h.max_degree == 2  # vertex 1
        assert h.is_sperner()
        assert h.degrees == (1, 2, 1)
        assert sum(h.degrees) == sum(len(e) for e in h.edges)

    def test_incidence_transposes_the_edge_masks(self, corpus):
        # n = 0 and edgeless inputs lead the corpus; a minimize_edges
        # result renumbers the edges it keeps
        instances = list(corpus) + [minimize_edges(h) for h in corpus]
        assert any(minimize_edges(h) is not h for h in corpus)
        for h in instances:
            want = [0] * h.n
            for i, e in enumerate(h.edge_masks()):
                for v in range(h.n):
                    if e >> v & 1:
                        want[v] |= 1 << i
            assert h.incidence == tuple(want), h
            assert h.degrees == tuple(w.bit_count() for w in want), h
            assert [h.degree(v) for v in range(h.n)] == list(h.degrees)
            assert h.max_degree == max(h.degrees, default=0)

    def test_not_sperner(self):
        assert not Hypergraph(2, [(0,), (0, 1)]).is_sperner()

    def test_empty_conventions(self):
        h = Hypergraph(0, [])
        assert h.rank == 0 and h.max_degree == 0 and h.is_sperner()

    def test_edge_outside_universe(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [(0, 2)])

    @pytest.mark.parametrize("args, message", [
        ((-1,), "universe size must be non-negative"),
        ((2, [], ("a",)), "name table length must equal the universe size"),
        ((2, [], ("a", "a")), "vertex names must be unique"),
        ((2, [VertexSet.of(3, 0)]), "edge lives in a different universe"),
    ])
    def test_constructor_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            Hypergraph(*args)

    def test_names_are_always_a_tuple(self):
        assert Hypergraph(0, []).names == ()
        assert Hypergraph(3, [(0, 1)]).names == ("0", "1", "2")
        assert parse("").names == ()
        assert parse("b a\n").names == ("b", "a")

    def test_index_of_reads_names_only(self):
        h = Hypergraph(10, [(0, 7)])
        assert h.index_of("7") == 7 and h.token(7) == "7"
        assert [h.index_of(tok) for tok in reversed(h.names)] == list(range(9, -1, -1))
        # a token is a name, not a number: "07" names no vertex
        for tok in ("07", "10", "-1", "x"):
            with pytest.raises(KeyError):
                h.index_of(tok)

    def test_name_with_comment_mark_rejected(self):
        # parse cuts each line at "#", so such a name could not round-trip
        with pytest.raises(ValueError):
            Hypergraph(2, [(0,), (0, 1)], names=("a#b", "c"))

    @pytest.mark.parametrize("name", ["a b", "a\u00a0b", "", "!a", "{}"])
    def test_given_names_get_the_full_check(self, name):
        # parse checks a split token only for "!" and "{}"; a caller's
        # names never went through split(), so they are checked in full
        with pytest.raises(ValueError, match="invalid vertex name"):
            Hypergraph(2, [], names=(name, "c"))


class TestParse:
    def test_numbered_by_first_appearance(self):
        h = parse("1 2\n3 4\n")
        assert h.n == 4
        assert [h.set_tokens(e) for e in h.edges] == [["1", "2"], ["3", "4"]]

    def test_header_fixes_universe(self):
        h = parse("!vertices a b c\na b\n")
        assert h.n == 3
        assert h.names == ("a", "b", "c")
        assert [h.set_tokens(e) for e in h.edges] == [["a", "b"]]

    def test_duplicate_edges_dropped_with_count(self):
        h = parse("1 2\n1 2\n")
        assert h.m == 1
        assert h.duplicates_dropped == 1

    def test_empty_edge_and_comments(self):
        h = parse("# full file\n!vertices a b\n{}\na b  # an edge\n\n")
        assert [e.members() for e in h.edges] == [(), (0, 1)]

    def test_blank_line_is_not_an_empty_edge(self):
        assert parse("a b\n\nc\n").m == 2

    def test_errors(self):
        cases = [
            ("!vertices a\n!vertices b\na\n", "line 2: duplicate !vertices header"),
            ("!vertices a\nb\n", "line 2: vertex 'b' not listed in header"),
            ("a {} b\n", "line 1: malformed token '{}'"),
            ("a\nb !c\n", "line 2: malformed token '!c'"),
            ("!vertexes a\n", "line 1: unknown directive '!vertexes'"),
            ("a\n!vertices a\n", "line 2: !vertices header must come before the edges"),
            ("# c\n\n!vertices a {}\n", "line 3: malformed vertex token '{}'"),
            ("!vertices a b a\n", "line 1: duplicate vertex 'a' in header"),
            ("!vertices a !b\n", "line 1: malformed vertex token '!b'"),
        ]
        for text, message in cases:
            with pytest.raises(HypergraphFormatError) as err:
                parse(text)
            assert str(err.value) == message, text

    def test_roundtrip_preserves_isolated_vertices(self):
        text = "!vertices a b c\na b\n"
        assert serialize(parse(text)) == text

    def test_roundtrip_normalizes_idempotently(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_hypergraph(rng, n_max=6, m_max=8)
            once = serialize(h)
            assert serialize(parse(once)) == once


def reference_parse(text):
    """The ``.hg`` format read the plain way: every line's tokens are
    checked and kept, then the vertices are numbered and each edge's mask
    is built.  Returns (n, names, masks, duplicates dropped)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    def fail(lineno, what):
        raise HypergraphFormatError(f"line {lineno}: {what}")

    def valid(tok):
        return not tok.startswith("!") and tok != "{}"

    header = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#")[0].split()
        if not tokens:
            continue
        if tokens[0].startswith("!"):
            if tokens[0] != "!vertices":
                fail(lineno, f"unknown directive {tokens[0]!r}")
            if header is not None:
                fail(lineno, "duplicate !vertices header")
            if edges:
                fail(lineno, "!vertices header must come before the edges")
            header = []
            for tok in tokens[1:]:
                if not valid(tok):
                    fail(lineno, f"malformed vertex token {tok!r}")
                if tok in header:
                    fail(lineno, f"duplicate vertex {tok!r} in header")
                header.append(tok)
            continue
        if tokens == ["{}"]:
            edges.append([])
            continue
        for tok in tokens:
            if not valid(tok):
                fail(lineno, f"malformed token {tok!r}")
            if header is not None and tok not in header:
                fail(lineno, f"vertex {tok!r} not listed in header")
        edges.append(tokens)
    names = header
    if names is None:
        names = []
        for tok in (tok for e in edges for tok in e):
            if tok not in names:
                names.append(tok)
    kept = []
    for e in edges:
        mask = 0
        for tok in e:
            mask |= 1 << names.index(tok)
        if mask not in kept:
            kept.append(mask)
    return len(names), tuple(names), tuple(kept), len(edges) - len(kept)


def random_hg_text(rng: random.Random):
    """Seeded ``.hg`` text: an optional header, edges with repeated tokens,
    ``{}``, comments, blank lines, CRLF line ends and separators that
    ``str.split()`` reads as whitespace, now and then a malformed line or
    a ``!`` token in the header; half the time as bytes."""
    vocab = ["a", "b", "v1", "x_2", "0", "10", "\u00fc"]
    seps = [" ", "  ", "\t", "\u00a0", "\x1f", "\u2003"]
    header = rng.sample(vocab, rng.randint(0, len(vocab))) if rng.random() < 0.5 else None
    lines = []
    if header is not None:
        shown = header + ["!b"] if rng.random() < 0.05 else header
        lines.append(rng.choice(seps).join(["!vertices", *shown]))
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "   ", "# note", "\t# x y"]))
        elif roll < 0.2:
            lines.append(rng.choice(["{}", " {}  # empty"]))
        elif roll < 0.23:
            lines.append(rng.choice(["a {}", "a !b", "!vertexes a", "!vertices a a", "!vertices {}", "!vertices b"]))
        else:
            pool = header if header and rng.random() < 0.95 else vocab
            toks = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            comment = rng.choice(["", "", " # c", "#c d"])
            lines.append(rng.choice(["", " ", "\t"]) + rng.choice(seps).join(toks) + comment)
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])
    return text.encode("utf-8") if rng.random() < 0.5 else text


def test_parse_matches_the_reference_parser():
    rng = random.Random(2024)
    outcomes = Counter()
    for _ in range(3000):
        text = random_hg_text(rng)
        try:
            want = reference_parse(text)
        except HypergraphFormatError as err:
            with pytest.raises(HypergraphFormatError) as got:
                parse(text)
            assert str(got.value) == str(err), text
            outcomes["error"] += 1
            continue
        h = parse(text)
        assert (h.n, h.names, h.edge_masks(), h.duplicates_dropped) == want, text
        outcomes["parsed"] += 1
        outcomes["dropped"] += h.duplicates_dropped > 0
    # both sides of the comparison are exercised
    assert min(outcomes.values()) > 100, outcomes


def test_edges_are_built_on_first_read(monkeypatch):
    """Parsing, the complements, sections, ``minimize_edges`` and the
    incremental stages build no ``VertexSet`` until ``.edges`` is read."""
    text = serialize(uniform_instance(random.Random(1), 9, 20, 3))
    built = []
    vertex_set_init = VertexSet.__init__

    def counted_init(self, n, mask=0):
        built.append(mask)
        vertex_set_init(self, n, mask)

    monkeypatch.setattr(VertexSet, "__init__", counted_init)

    def first_read(h):
        built.clear()
        edges = h.edges
        assert built == list(h.edge_masks())  # built here, so not before
        assert edges == tuple(VertexSet(h.n, m) for m in h.edge_masks())
        built.clear()
        assert h.edges is edges and built == []

    made = []
    for make in (
        lambda: parse(text),
        lambda: edge_complement(made[0]),
        lambda: uniform_complement(made[0], 3),
        lambda: k_section(made[0], 2),
        lambda: minimize_edges(Hypergraph(4, [(0, 1), (0, 1, 2), (3,)])),
    ):
        built.clear()
        made.append(make())
        assert built == []
    for h in made:
        first_read(h)

    stages = []
    verify_tr = verify.verify_tr

    def spy(g, h, **kw):
        first_read(g)
        stages.append(g.m)
        return verify_tr(g, h, **kw)

    monkeypatch.setattr(verify, "verify_tr", spy)
    h = parse(text)
    assert enumerate_incremental(h).outputs == len(stages) - 1
    assert stages == list(range(len(stages))) and len(stages) > 2


class TestMinimizeEdges:
    def test_subset_dominance(self):
        assert minimize_edges(Hypergraph(2, [(0,), (0, 1)])).edges == (
            VertexSet.of(2, 0),
        )

    def test_already_sperner(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert minimize_edges(h) == h

    def test_drops_dominated_edge(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 1, 2)])
        assert masks(minimize_edges(h).edges) == masks(
            [VertexSet.of(3, 0, 1), VertexSet.of(3, 1, 2)]
        )

    @staticmethod
    def quadratic(h):
        """The definition: every edge no other edge lies inside."""
        es = h.edge_masks()
        return [e for e in es if not any(f != e and f & ~e == 0 for f in es)]

    def test_lane_pass_matches_the_definition(self, corpus):
        rng = random.Random(12)
        extra = [
            Hypergraph(0, []),
            Hypergraph(0, [()]),
            Hypergraph(5, [(), (0, 1), (2,)]),  # the empty edge is inside all
            Hypergraph(5, [(0, 1, 2, 3, 4), (0,), (4,)]),
            uniform_complement(Hypergraph(6, [(0, 1, 2)]), 3),
        ] + [random_hypergraph(rng, n_max=20, m_max=40) for _ in range(200)]
        for h in list(corpus) + extra:
            got = minimize_edges(h)
            keep = self.quadratic(h)
            assert list(got.edge_masks()) == keep, h
            assert got.names == h.names
            # nothing dropped (Sperner inputs, uniform ones among them)
            # hands back the input itself
            assert (got is h) == (len(keep) == h.m) == h.is_sperner(), h

    def test_uniform_input_is_returned_itself(self):
        h = uniform_complement(Hypergraph(7, [(0, 1, 2), (3, 4, 5)]), 3)
        assert minimize_edges(h) is h

    def test_idempotent_sperner_and_tr_preserving(self):
        rng = random.Random(17)
        for _ in range(40):
            h = random_hypergraph(rng)
            m1 = minimize_edges(h)
            assert m1.is_sperner()
            assert minimize_edges(m1) == m1
            assert masks(brute_tr(h)) == masks(brute_tr(m1))


class TestComplements:
    def test_edge_complement_examples(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        assert [e.members() for e in edge_complement(h).edges] == [(2,), (0,), (1,)]
        assert edge_complement(Hypergraph(2, [(0, 1)])).edges[0].members() == ()
        assert edge_complement(Hypergraph(4, [(0, 1)])).edges[0].members() == (2, 3)

    def test_involution(self):
        rng = random.Random(23)
        for _ in range(30):
            h = random_hypergraph(rng)
            assert edge_complement(edge_complement(h)) == h

    def test_uniform_complement_examples(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert masks(uniform_complement(h, 2).edges) == {VertexSet.of(3, 0, 2).mask}
        full = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        assert uniform_complement(full, 2).m == 0
        h = Hypergraph(4, [(0, 1, 2)])
        assert masks(uniform_complement(h, 3).edges) == masks(
            [VertexSet.of(4, 0, 1, 3), VertexSet.of(4, 0, 2, 3), VertexSet.of(4, 1, 2, 3)]
        )

    def test_uniform_complement_rejects_negative_size(self):
        with pytest.raises(ValueError, match="r must be non-negative"):
            uniform_complement(Hypergraph(3, []), -1)

    def test_uniform_complement_rejects_mixed(self):
        with pytest.raises(ValueError):
            uniform_complement(Hypergraph(3, [(0,), (0, 1)]), 2)
        with pytest.raises(ValueError, match="3-uniform, not 2-uniform"):
            uniform_complement(Hypergraph(4, [(0, 1, 2)]), 2)
        # an edgeless hypergraph is r-uniform for the r it is given
        assert uniform_complement(Hypergraph(3, []), 2).m == 3

    def test_uniform_complement_refuses_oversize(self, monkeypatch):
        # C(50, 6) - 30 six-subsets: refused by count, before any is built
        h = uniform_instance(random.Random(0), 50, 30, 6)
        assert h.m == 30
        with pytest.raises(ValueError, match="15,890,670 edges"):
            uniform_complement(h, 6)
        # the limit itself is allowed: C(4, 2) - 3 = 3 edges
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(core, "MAX_UNIFORM_COMPLEMENT_EDGES", 3)
        assert uniform_complement(g, 2).m == 3
        monkeypatch.setattr(core, "MAX_UNIFORM_COMPLEMENT_EDGES", 2)
        with pytest.raises(ValueError, match="has 3 edges"):
            uniform_complement(g, 2)

    def test_k_section_refuses_oversize(self, monkeypatch):
        # one 40-vertex edge: C(40, 10) ten-subsets, refused by count
        # before any is built
        h = Hypergraph(40, [range(40)])
        with pytest.raises(ValueError, match="847,660,528 subsets"):
            k_section(h, 10)
        # the count is summed over the edges, so {1, 2} counts twice, and
        # the limit itself is allowed: C(3, 2) + C(3, 2) = 6 pairs, 5 kept
        g = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        monkeypatch.setattr(core, "MAX_UNIFORM_COMPLEMENT_EDGES", 6)
        assert k_section(g, 2).m == 5
        monkeypatch.setattr(core, "MAX_UNIFORM_COMPLEMENT_EDGES", 5)
        with pytest.raises(ValueError, match="generate 6 subsets"):
            k_section(g, 2)

    def test_uniform_complement_partitions(self):
        import itertools

        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            everything = list(itertools.combinations(range(n), r))
            chosen = rng.sample(everything, rng.randint(0, len(everything)))
            h = Hypergraph(n, chosen)
            comp = uniform_complement(h, r)
            union = masks(h.edges) | masks(comp.edges)
            assert len(union) == len(everything)
            assert masks(h.edges) & masks(comp.edges) == set()


class TestSection:
    def test_examples(self):
        h = Hypergraph(4, [(0, 1, 2), (2, 3)])
        assert masks(k_section(h, 2).edges) == masks(
            [
                VertexSet.of(4, 0, 1),
                VertexSet.of(4, 0, 2),
                VertexSet.of(4, 1, 2),
                VertexSet.of(4, 2, 3),
            ]
        )
        g = Hypergraph(2, [(0, 1)])
        assert k_section(g, 2) == g
        assert k_section(Hypergraph(4, [(0, 1), (2, 3)]), 3).m == 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            k_section(Hypergraph(2, [(0,)]), 0)

    def test_every_k_subset_appears(self):
        import itertools

        rng = random.Random(41)
        for _ in range(25):
            h = random_hypergraph(rng, n_max=7, m_max=8, empty_edge_p=0)
            k = rng.randint(1, 4)
            sec = k_section(h, k)
            assert all(len(e) == k for e in sec.edges)
            expected = set()
            for e in h.edges:
                for combo in itertools.combinations(e.members(), k):
                    expected.add(VertexSet.from_iterable(h.n, combo).mask)
            assert masks(sec.edges) == expected
