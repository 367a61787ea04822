"""The benchmark's own answer checks.

Nothing here imports the library: these checks decide whether an answer
the library gave is right, so they must not share its code.  Sets are int
bitmasks over vertices ``0..n-1``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def is_minimal_transversal(edges: tuple[int, ...], t: int) -> bool:
    """``t`` meets every edge and each of its vertices owns a private edge."""
    private = 0
    for e in edges:
        et = e & t
        if et == 0:
            return False
        if et & (et - 1) == 0:
            private |= et
    return private == t


def minimal_transversals(edges: tuple[int, ...], limit: int | None = None) -> list[int]:
    """Every minimal transversal (at most ``limit`` of them), by branching
    on the vertices of the first unhit edge.

    Branch i of an edge takes its i-th vertex and forbids the earlier
    ones, so each set is reached along one path only.  A branch dies as
    soon as a chosen vertex has lost its last private edge, because
    adding vertices never gives one back.
    """
    if any(e == 0 for e in edges):
        return []
    found: list[int] = []

    def private_ok(s: int) -> bool:
        owned = 0
        for e in edges:
            es = e & s
            if es and es & (es - 1) == 0:
                owned |= es
        return owned == s

    def grow(s: int, banned: int) -> bool:
        for e in edges:
            if e & s == 0:
                break
        else:
            found.append(s)
            return limit is not None and len(found) >= limit
        free = e & ~banned
        while free:
            bit = free & -free
            free ^= bit
            if private_ok(s | bit) and grow(s | bit, banned):
                return True
            banned |= bit
        return False

    if limit is None or limit > 0:
        grow(0, 0)
    return found


def digest(masks: Iterable[int]) -> str:
    """Order-free fingerprint of a set family."""
    h = hashlib.sha256()
    for m in sorted(masks):
        h.update(m.to_bytes(16, "little"))
    return h.hexdigest()[:16]
