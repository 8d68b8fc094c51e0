"""Exhaustive enumeration of small semigroups by table backtracking.

Fills the Cayley table cell by cell in row-major order, pruning as soon
as any associativity triple has all four of its lookups decided.  The
stream is the instance source for every verification sweep, so labeled
tables are the primary product; canonical forms exist only to shrink
reports, never to feed them.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .core import FiniteSemigroup, validate
from .errors import OrderTooLarge, SgFormatError

__all__ = [
    "enumerate_semigroups",
    "canonical_form",
    "relabel",
    "catalog_line",
    "parse_catalog_line",
]


def _triple_consistent(t: list[list[int]], a: int, b: int, c: int) -> bool:
    # True when (a*b)*c = a*(b*c) or any needed entry is still unknown.
    ab = t[a][b]
    if ab < 0:
        return True
    bc = t[b][c]
    if bc < 0:
        return True
    left = t[ab][c]
    if left < 0:
        return True
    right = t[a][bc]
    return right < 0 or left == right


def _consistent_after(t: list[list[int]], r: int, c: int, n: int) -> bool:
    # Only triples that read the cell (r, c) can have just become fully
    # decided: as a*b or b*c directly, or as the outer lookup through a
    # product that equals r (row) with c the third factor, or row r with
    # an inner product equal to c.
    for z in range(n):
        if not _triple_consistent(t, r, c, z):
            return False
        if not _triple_consistent(t, z, r, c):
            return False
    for x in range(n):
        row = t[x]
        for y in range(n):
            if row[y] == r and not _triple_consistent(t, x, y, c):
                return False
    for y in range(n):
        row = t[y]
        for z in range(n):
            if row[z] == c and not _triple_consistent(t, r, y, z):
                return False
    return True


def enumerate_semigroups(
    n: int, up_to_iso: bool = False, order_bound: int = 4
) -> Iterator[FiniteSemigroup]:
    """All associative n x n tables, in lexicographic table order.

    With up_to_iso, only tables equal to their own canonical form are
    emitted, one per isomorphism class.  Anti-isomorphic twins (left
    vs right versions) are kept apart on purpose: the one-sided
    predicates distinguish them.  A bad order raises at the call, before
    the first table is asked for.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > order_bound:
        raise OrderTooLarge(n, order_bound)
    return _backtrack(n, up_to_iso)


def _backtrack(n: int, up_to_iso: bool) -> Iterator[FiniteSemigroup]:
    t = [[-1] * n for _ in range(n)]
    cells = [(r, c) for r in range(n) for c in range(n)]

    def fill(pos: int) -> Iterator[FiniteSemigroup]:
        if pos == len(cells):
            S = validate([row[:] for row in t])
            if not up_to_iso or canonical_form(S) == S.table:
                yield S
            return
        r, c = cells[pos]
        for v in range(n):
            t[r][c] = v
            if _consistent_after(t, r, c, n):
                yield from fill(pos + 1)
        t[r][c] = -1

    yield from fill(0)


def relabel(S: FiniteSemigroup, p: Sequence[int]) -> FiniteSemigroup:
    """Rename element a to p[a]; an isomorphic copy of S."""
    n = S.order
    q = [0] * n
    for a, img in enumerate(p):
        q[img] = a
    t = S.table
    return validate([[p[t[q[i]][q[j]]] for j in range(n)] for i in range(n)])


def canonical_form(S: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table over all relabelings.

    Two semigroups are isomorphic exactly when their canonical forms
    coincide; brute force over n! permutations, fine for the orders the
    catalog covers.
    """
    n = S.order
    t = S.table
    best: tuple[tuple[int, ...], ...] | None = None
    for p in permutations(range(n)):
        q = [0] * n
        for a, img in enumerate(p):
            q[img] = a
        cand = tuple(tuple(p[t[q[i]][q[j]]] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


def catalog_line(S: FiniteSemigroup) -> str:
    """One-line dump: order followed by the n*n entries, row-major."""
    return " ".join([str(S.order)] + [str(v) for row in S.table for v in row])


def parse_catalog_line(line: str, lineno: int = 1) -> FiniteSemigroup:
    parts = line.split()
    if not parts:
        raise SgFormatError(lineno, "empty catalog line")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise SgFormatError(lineno, f"non-integer entry in {line!r}") from None
    n = values[0]
    if n < 1 or len(values) != 1 + n * n:
        raise SgFormatError(lineno, f"expected {n}*{n} entries after the order")
    body = values[1:]
    return validate([body[i * n : (i + 1) * n] for i in range(n)])
