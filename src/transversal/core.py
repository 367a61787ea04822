"""Bit-packed hypergraphs: vertex sets, the ``.hg`` text format, and
structural transforms (edge minimization, complements, sections).

Vertices are integers ``0..n-1`` over a fixed universe.  Every set of
vertices is stored as an int bitmask, so the hot operations (union,
intersection, containment tests) are plain integer arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

__all__ = [
    "VertexSet",
    "Hypergraph",
    "HypergraphFormatError",
    "parse",
    "serialize",
    "minimize_edges",
    "edge_complement",
    "uniform_complement",
    "k_section",
    "iter_bits",
]


class HypergraphFormatError(ValueError):
    """Malformed ``.hg`` input."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(members: Iterable[int], n: int) -> int:
    mask = 0
    for v in members:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside universe of size {n}")
        mask |= 1 << v
    return mask


class VertexSet:
    """Immutable subset of the universe ``{0, ..., n-1}``.

    All operations return fresh values; instances are safe to share.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside the universe")
        self.n = n
        self.mask = mask

    @classmethod
    def of(cls, n: int, *members: int) -> "VertexSet":
        return cls(n, _mask_of(members, n))

    @classmethod
    def from_iterable(cls, n: int, members: Iterable[int]) -> "VertexSet":
        return cls(n, _mask_of(members, n))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "VertexSet") -> bool:
        return self <= other and self.mask != other.mask

    def issubset(self, other: "VertexSet") -> bool:
        return self <= other

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) & ~self.mask)

    def with_vertex(self, v: int) -> "VertexSet":
        return VertexSet(self.n, self.mask | _mask_of((v,), self.n))

    def without_vertex(self, v: int) -> "VertexSet":
        return VertexSet(self.n, self.mask & ~_mask_of((v,), self.n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet.of({self.n}, {', '.join(map(str, self))})"


def _valid_token(tok: str) -> bool:
    # "#" would start a comment in the .hg format, so a name holding it
    # could not be read back
    return (
        bool(tok)
        and not tok.startswith("!")
        and tok != "{}"
        and "#" not in tok
        and not any(c.isspace() for c in tok)
    )


class Hypergraph:
    """Finite vertex universe plus an ordered, duplicate-free edge list.

    Edge order is the construction order with duplicates dropped (the
    number dropped is recorded in ``duplicates_dropped``).  Instances are
    immutable after construction and safe to share across workers.
    """

    __slots__ = (
        "n",
        "edges",
        "names",
        "duplicates_dropped",
        "_masks",
        "_degrees",
        "_rank",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[VertexSet | Iterable[int]] = (),
        names: tuple[str, ...] | None = None,
    ):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("name table length must equal the universe size")
            if len(set(names)) != n:
                raise ValueError("vertex names must be unique")
            for tok in names:
                if not _valid_token(tok):
                    raise ValueError(f"invalid vertex name {tok!r}")
        masks: list[int] = []
        seen: set[int] = set()
        dropped = 0
        for e in edges:
            mask = e.mask if isinstance(e, VertexSet) else _mask_of(e, n)
            if isinstance(e, VertexSet) and e.n != n:
                raise ValueError("edge lives in a different universe")
            if mask >> n:
                raise ValueError("edge has vertices outside the universe")
            if mask in seen:
                dropped += 1
                continue
            seen.add(mask)
            masks.append(mask)
        self._fill(n, names, masks, dropped)

    def _fill(self, n: int, names, masks: list[int], dropped: int) -> None:
        self.n = n
        self.names = names
        self.duplicates_dropped = dropped
        self._masks = tuple(masks)
        self.edges = tuple(VertexSet(n, m) for m in masks)
        self._degrees: tuple[int, ...] | None = None  # counted on first use
        self._rank = max((m.bit_count() for m in masks), default=0)

    def _with_edges(self, masks: list[int]) -> "Hypergraph":
        """This universe and name table with some of this hypergraph's
        edges, which need no second check."""
        h = Hypergraph.__new__(Hypergraph)
        h._fill(self.n, self.names, masks, 0)
        return h

    @property
    def m(self) -> int:
        return len(self._masks)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            degrees = [0] * self.n
            for m in self._masks:
                for v in iter_bits(m):
                    degrees[v] += 1
            self._degrees = tuple(degrees)
        return self._degrees

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def edge_masks(self) -> tuple[int, ...]:
        return self._masks

    def edge_mask_set(self) -> frozenset[int]:
        return frozenset(self._masks)

    def is_sperner(self) -> bool:
        """True when no edge contains another (duplicates cannot occur)."""
        return minimize_edges(self) is self

    def token(self, v: int) -> str:
        if self.names is not None:
            return self.names[v]
        return str(v)

    def index_of(self, token: str) -> int:
        if self.names is not None:
            try:
                return self.names.index(token)
            except ValueError:
                raise KeyError(token) from None
        try:
            v = int(token)
        except ValueError:
            raise KeyError(token) from None
        if not 0 <= v < self.n:
            raise KeyError(token)
        return v

    def set_tokens(self, s: VertexSet) -> list[str]:
        return [self.token(v) for v in s]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + " ".join(map(str, e)) + "}" for e in self.edges)
        return f"Hypergraph(n={self.n}, edges=[{inner}])"


def parse(text: str | bytes) -> Hypergraph:
    """Parse the ``.hg`` text format.

    An optional first line ``!vertices a b c`` pins the universe and its
    order; otherwise vertices are numbered by first appearance.  Each
    following non-comment line is one edge of whitespace-separated
    tokens, ``#`` starts a comment, and a literal ``{}`` alone on a line
    is the empty edge.  Blank lines are skipped.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header: list[str] | None = None
    order: dict[str, int] = {}
    raw_edges: list[list[str]] = []
    saw_content = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if tokens[0].startswith("!"):
            if tokens[0] != "!vertices":
                raise HypergraphFormatError(
                    f"line {lineno}: unknown directive {tokens[0]!r}"
                )
            if header is not None:
                raise HypergraphFormatError(f"line {lineno}: duplicate !vertices header")
            if saw_content:
                raise HypergraphFormatError(
                    f"line {lineno}: !vertices header must come before the edges"
                )
            header = tokens[1:]
            for tok in header:
                if not _valid_token(tok):
                    raise HypergraphFormatError(
                        f"line {lineno}: malformed vertex token {tok!r}"
                    )
                if tok in order:
                    raise HypergraphFormatError(
                        f"line {lineno}: duplicate vertex {tok!r} in header"
                    )
                order[tok] = len(order)
            saw_content = True
            continue
        saw_content = True
        if tokens == ["{}"]:
            raw_edges.append([])
            continue
        for tok in tokens:
            if not _valid_token(tok):
                raise HypergraphFormatError(f"line {lineno}: malformed token {tok!r}")
            if header is not None and tok not in order:
                raise HypergraphFormatError(
                    f"line {lineno}: vertex {tok!r} not listed in header"
                )
            if header is None and tok not in order:
                order[tok] = len(order)
        raw_edges.append(tokens)
    n = len(order)
    names = tuple(sorted(order, key=order.get))
    edges = [[order[t] for t in toks] for toks in raw_edges]
    return Hypergraph(n, edges, names=names if n else None)


def serialize(h: Hypergraph) -> str:
    """Inverse of :func:`parse`; vertices within an edge sorted ascending."""
    lines = ["!vertices " + " ".join(h.token(v) for v in range(h.n)) if h.n else "!vertices"]
    for e in h.edges:
        lines.append(" ".join(h.token(v) for v in e) if e else "{}")
    return "\n".join(lines) + "\n"


def minimize_edges(h: Hypergraph) -> Hypergraph:
    """Keep only the inclusion-wise minimal edges, in their input order;
    ``h`` itself when every edge is minimal.

    The edges are packed into one integer, edge i in the (n+1)-bit lane
    starting at bit i(n+1).  For an edge e, ``packed & ~(e * ones)``
    leaves in each lane the part of that edge outside e, and adding
    2^n - 1 to every lane sets a lane's top bit exactly when that part is
    nonempty.  Edges are distinct, so e is minimal exactly when its own
    lane is the only one left without its top bit: a few whole-integer
    operations per edge.
    """
    masks = h.edge_masks()
    if len({e.bit_count() for e in masks}) <= 1:
        return h  # distinct edges of one size contain no other
    width = h.n + 1
    packed = ones = 0
    for i, e in enumerate(masks):
        packed |= e << (i * width)
        ones |= 1 << (i * width)
    low = ones * ((1 << h.n) - 1)
    top = ones << h.n
    keep = [
        e
        for i, e in enumerate(masks)
        if (((packed & ~(e * ones)) + low) & top) | (1 << (i * width + h.n)) == top
    ]
    return h if len(keep) == len(masks) else h._with_edges(keep)


def edge_complement(h: Hypergraph) -> Hypergraph:
    """Replace every edge by its complement within the universe."""
    full = (1 << h.n) - 1
    return Hypergraph(
        h.n, (VertexSet(h.n, full & ~m) for m in h.edge_masks()), names=h.names
    )


def uniform_complement(h: Hypergraph, r: int) -> Hypergraph:
    """All ``r``-subsets of the universe that are not edges of ``h``.

    ``h`` must be ``r``-uniform.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    for e in h.edge_masks():
        if e.bit_count() != r:
            raise ValueError("hypergraph is not r-uniform")
    present = h.edge_mask_set()
    edges = []
    for combo in itertools.combinations(range(h.n), r):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if mask not in present:
            edges.append(VertexSet(h.n, mask))
    return Hypergraph(h.n, edges, names=h.names)


def k_section(h: Hypergraph, k: int) -> Hypergraph:
    """The ``k``-uniform hypergraph of all k-sets co-occurring in an edge."""
    if k < 1:
        raise ValueError("k must be at least 1")
    seen: set[int] = set()
    out: list[VertexSet] = []
    for e in h.edge_masks():
        if e.bit_count() < k:
            continue
        vs = tuple(iter_bits(e))
        for combo in itertools.combinations(vs, k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if mask not in seen:
                seen.add(mask)
                out.append(VertexSet(h.n, mask))
    return Hypergraph(h.n, out, names=h.names)
