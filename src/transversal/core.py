"""Bit-packed hypergraphs: vertex sets, the ``.hg`` text format, and
structural transforms (edge minimization, complements, sections).

Vertices are integers ``0..n-1`` over a fixed universe.  Every set of
vertices is stored as an int bitmask, so the hot operations (union,
intersection, containment tests) are plain integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
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
    def _from_mask(cls, n: int, mask: int) -> "VertexSet":
        """Trusted construction: ``mask`` must be a subset of range(n), and
        it is not checked again."""
        s = cls.__new__(cls)
        s.n = n
        s.mask = mask
        return s

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
    immutable after construction and safe to share across workers.  The
    edges are stored as int masks (``edge_masks``); the ``VertexSet``
    tuple ``edges`` is built on first read.  ``names`` holds each vertex's
    token, ``str(v)`` unless a name table is given.
    """

    __slots__ = (
        "n",
        "names",
        "duplicates_dropped",
        "_masks",
        "_edges",
        "_incidence",
        "_index",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[VertexSet | Iterable[int]] = (),
        names: tuple[str, ...] | None = None,
    ):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if names is None:
            names = tuple(map(str, range(n)))
        else:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("name table length must equal the universe size")
            if len(set(names)) != n:
                raise ValueError("vertex names must be unique")
            for tok in names:
                if not _valid_token(tok):
                    raise ValueError(f"invalid vertex name {tok!r}")
        masks: list[int] = []
        for e in edges:
            if isinstance(e, VertexSet):
                if e.n != n:
                    raise ValueError("edge lives in a different universe")
                masks.append(e.mask)
            else:
                masks.append(_mask_of(e, n))
        self._fill(n, names, masks)

    @classmethod
    def _from_masks(cls, n: int, names: tuple[str, ...], masks: list[int]) -> "Hypergraph":
        """Trusted construction: ``masks`` must be subsets of range(n) and
        ``names`` a valid name table, and neither is checked again.
        Duplicates are dropped and counted, as by the public constructor."""
        h = cls.__new__(cls)
        h._fill(n, names, masks)
        return h

    def _fill(self, n: int, names: tuple[str, ...], masks: list[int]) -> None:
        kept = tuple(dict.fromkeys(masks))
        self.n = n
        self.names = names
        self.duplicates_dropped = len(masks) - len(kept)
        self._masks = kept
        self._edges: tuple[VertexSet, ...] | None = None  # built on first read
        self._incidence: tuple[int, ...] | None = None  # built on first use
        self._index: dict[str, int] | None = None  # name -> vertex, built on first use

    @property
    def edges(self) -> tuple[VertexSet, ...]:
        if self._edges is None:
            self._edges = tuple(VertexSet(self.n, m) for m in self._masks)
        return self._edges

    @property
    def m(self) -> int:
        return len(self._masks)

    @property
    def rank(self) -> int:
        return max(map(int.bit_count, self._masks), default=0)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def incidence(self) -> tuple[int, ...]:
        """Per vertex v, the edge-index mask of the edges containing v."""
        if self._incidence is None:
            incidence = [0] * self.n
            bit = 1
            for e in self._masks:
                while e:
                    low = e & -e
                    incidence[low.bit_length() - 1] |= bit
                    e ^= low
                bit <<= 1
            self._incidence = tuple(incidence)
        return self._incidence

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.incidence))

    def degree(self, v: int) -> int:
        return self.incidence[v].bit_count()

    def edge_masks(self) -> tuple[int, ...]:
        return self._masks

    def edge_mask_set(self) -> frozenset[int]:
        return frozenset(self._masks)

    def is_sperner(self) -> bool:
        """True when no edge contains another (duplicates cannot occur)."""
        return minimize_edges(self) is self

    def token(self, v: int) -> str:
        return self.names[v]

    def index_of(self, token: str) -> int:
        """The vertex named ``token``; a ``KeyError`` when there is none."""
        if self._index is None:
            self._index = {tok: v for v, tok in enumerate(self.names)}
        return self._index[token]

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
        inner = ", ".join(
            "{" + " ".join(map(str, iter_bits(e))) + "}" for e in self._masks
        )
        return f"Hypergraph(n={self.n}, edges=[{inner}])"


def parse(text: str | bytes) -> Hypergraph:
    """Parse the ``.hg`` text format.

    An optional first line ``!vertices a b c`` pins the universe and its
    order; otherwise vertices are numbered by first appearance.  Each
    following non-comment line is one edge of whitespace-separated
    tokens, ``#`` starts a comment, and a literal ``{}`` alone on a line
    is the empty edge.  Blank lines are skipped.

    One pass reads each edge straight into its mask.  A token is checked
    only the first time it appears, when it gets its vertex's bit, and
    only for a leading ``!`` and for ``{}``: ``split()`` on a line cut at
    ``#`` yields no empty token and none holding whitespace or ``#``.
    Names given to ``Hypergraph`` get the full check.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    bit: dict[str, int] = {}  # token -> the bit of its vertex
    header = False
    saw_content = False
    masks: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0].startswith("!"):
            if tokens[0] != "!vertices":
                raise HypergraphFormatError(
                    f"line {lineno}: unknown directive {tokens[0]!r}"
                )
            if header:
                raise HypergraphFormatError(f"line {lineno}: duplicate !vertices header")
            if saw_content:
                raise HypergraphFormatError(
                    f"line {lineno}: !vertices header must come before the edges"
                )
            header = saw_content = True
            for tok in tokens[1:]:
                if tok[0] == "!" or tok == "{}":
                    raise HypergraphFormatError(
                        f"line {lineno}: malformed vertex token {tok!r}"
                    )
                if tok in bit:
                    raise HypergraphFormatError(
                        f"line {lineno}: duplicate vertex {tok!r} in header"
                    )
                bit[tok] = 1 << len(bit)
            continue
        saw_content = True
        mask = 0
        if tokens != ["{}"]:
            for tok in tokens:
                b = bit.get(tok)
                if b is None:
                    if tok[0] == "!" or tok == "{}":
                        raise HypergraphFormatError(
                            f"line {lineno}: malformed token {tok!r}"
                        )
                    if header:
                        raise HypergraphFormatError(
                            f"line {lineno}: vertex {tok!r} not listed in header"
                        )
                    b = bit[tok] = 1 << len(bit)
                mask |= b
        masks.append(mask)
    return Hypergraph._from_masks(len(bit), tuple(bit), masks)


def serialize(h: Hypergraph) -> str:
    """Inverse of :func:`parse`; vertices within an edge sorted ascending."""
    names = h.names
    lines = [" ".join(("!vertices", *names))]
    for e in h.edge_masks():
        lines.append(" ".join(names[v] for v in iter_bits(e)) if e else "{}")
    return "\n".join(lines) + "\n"


def _pack_lanes(masks: Iterable[int], n: int) -> tuple[int, int, int, int]:
    """Pack ``masks`` (subsets of range(n)) into one integer, mask i in the
    (n+1)-bit lane starting at bit i(n+1), and return ``(packed, ones,
    low, top)``: ``ones`` holds bit 0 of every lane, ``low`` the value
    2^n - 1 in every lane and ``top`` every lane's top bit.

    For a set y, ``((packed & ~(y * ones)) + low) & top`` then has the top
    bit of exactly the lanes whose mask has a vertex outside y: each lane
    keeps its mask's part outside y, and adding 2^n - 1 carries into the
    top bit exactly when that part is nonempty, never into the next lane.
    """
    width = n + 1
    packed = ones = 0
    for i, e in enumerate(masks):
        packed |= e << (i * width)
        ones |= 1 << (i * width)
    return packed, ones, ones * ((1 << n) - 1), ones << n


def minimize_edges(h: Hypergraph) -> Hypergraph:
    """Keep only the inclusion-wise minimal edges, in their input order;
    ``h`` itself when every edge is minimal.

    The edges are packed in lanes (``_pack_lanes``).  Edges are distinct,
    so an edge e is minimal exactly when its own lane is the only one
    whose edge lies inside e: a few whole-integer operations per edge.
    """
    masks = h.edge_masks()
    if len({e.bit_count() for e in masks}) <= 1:
        return h  # distinct edges of one size contain no other
    packed, ones, low, top = _pack_lanes(masks, h.n)
    width = h.n + 1
    keep = [
        e
        for i, e in enumerate(masks)
        if (((packed & ~(e * ones)) + low) & top) | (1 << (i * width + h.n)) == top
    ]
    return h if len(keep) == len(masks) else Hypergraph._from_masks(h.n, h.names, keep)


def edge_complement(h: Hypergraph) -> Hypergraph:
    """Replace every edge by its complement within the universe."""
    full = (1 << h.n) - 1
    return Hypergraph._from_masks(h.n, h.names, [full & ~m for m in h.edge_masks()])


def _subset_masks(vertices: Iterable[int], r: int) -> Iterator[int]:
    """The masks of the r-subsets of ``vertices``, in lexicographic order."""
    return map(sum, itertools.combinations([1 << v for v in vertices], r))


# The most edge masks ``uniform_complement`` and ``k_section`` build:
# about 100 MB of masks at the peak.  A tree search over a larger
# hypergraph would need at least as much memory, so either builder
# refuses a larger one before building any of it.
MAX_UNIFORM_COMPLEMENT_EDGES = 1 << 20


def _refuse_above_cap(size: int, what: str) -> None:
    """A ``ValueError`` when a construction would build ``size`` masks,
    more than ``MAX_UNIFORM_COMPLEMENT_EDGES``; ``what`` opens its
    message and names the size."""
    if size > MAX_UNIFORM_COMPLEMENT_EDGES:
        raise ValueError(f"{what}, more than the {MAX_UNIFORM_COMPLEMENT_EDGES:,} it may build")


def _uniform_rank(h: Hypergraph, r: int | None) -> int:
    """The size every edge of ``h`` has, checked against ``r`` when given;
    an edgeless ``h`` needs ``r``.  A ``ValueError`` otherwise."""
    sizes = {e.bit_count() for e in h.edge_masks()}
    if len(sizes) > 1:
        raise ValueError("hypergraph is not uniform")
    if sizes:
        found = sizes.pop()
        if r is not None and r != found:
            raise ValueError(f"hypergraph is {found}-uniform, not {r}-uniform")
        return found
    if r is None:
        raise ValueError("edge size is ambiguous for an edgeless hypergraph; pass r")
    return r


def uniform_complement(h: Hypergraph, r: int) -> Hypergraph:
    """All ``r``-subsets of the universe that are not edges of ``h``.

    ``h`` must be ``r``-uniform.  A complement of more than
    ``MAX_UNIFORM_COMPLEMENT_EDGES`` edges is a ``ValueError`` naming its
    size, raised before any of it is built.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    _uniform_rank(h, r)
    size = math.comb(h.n, r) - h.m
    _refuse_above_cap(size, f"the {r}-uniform complement has {size:,} edges")
    present = h.edge_mask_set()
    masks = [m for m in _subset_masks(range(h.n), r) if m not in present]
    return Hypergraph._from_masks(h.n, h.names, masks)


def k_section(h: Hypergraph, k: int) -> Hypergraph:
    """The ``k``-uniform hypergraph of all k-sets co-occurring in an edge.

    Generating more than ``MAX_UNIFORM_COMPLEMENT_EDGES`` k-subsets, one
    batch of C(|e|, k) per edge e, is a ``ValueError`` naming the count,
    raised before any of them is built.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    size = sum(math.comb(e.bit_count(), k) for e in h.edge_masks())
    _refuse_above_cap(size, f"the {k}-section would generate {size:,} subsets")
    masks = dict.fromkeys(
        m for e in h.edge_masks() for m in _subset_masks(iter_bits(e), k)
    )
    return Hypergraph._from_masks(h.n, h.names, list(masks))
