"""Exhaustive enumeration of small semigroups by table backtracking.

Fills the Cayley table cell by cell in row-major order, pruning as soon
as any associativity triple has all four of its lookups decided, and as
soon as some relabeling of the decided cells is already smaller.  So the
search yields one table per isomorphism class, the least of its class.
The labeled catalog, the instance source for every verification sweep,
is the set of their relabelings in lexicographic order.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .core import FiniteSemigroup, validate
from .errors import OrderTooLarge, SgFormatError

Table = tuple[tuple[int, ...], ...]

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
    if up_to_iso:
        return map(validate, _backtrack(n))
    return map(FiniteSemigroup._from_table, _labeled(n))


def _labeled(n: int) -> Iterator[Table]:
    # Every labeled table is a relabeling of exactly one class
    # representative; sorting the orbits restores the catalog order.
    # Only the representatives are validated: a relabeling of an
    # associative table is associative.  Each table is dropped once
    # handed out, so the catalog is not held twice, here and by the
    # caller.
    perms = [(p, _inverse(p)) for p in permutations(range(n))]
    reps = [validate(t).table for t in _backtrack(n)]
    tables = sorted({_relabeled(t, p, q) for t in reps for p, q in perms}, reverse=True)
    while tables:
        yield tables.pop()


def _backtrack(n: int) -> Iterator[Table]:
    # Lex-leader symmetry breaking (Distler et al., "The semigroups of
    # order 10", CP 2012): a node is dropped as soon as some relabeling of
    # its decided cells is already smaller in row-major order, so only
    # tables equal to their canonical form are emitted.  A relabeling
    # found larger stays larger below that node, so each node tests only
    # the relabelings still tied with the table itself.
    t = [[-1] * n for _ in range(n)]
    cells = [(r, c) for r in range(n) for c in range(n)]
    identity = tuple(range(n))
    perms = [(p, _inverse(p)) for p in permutations(range(n)) if p != identity]

    def fill(pos: int, tied: list) -> Iterator[Table]:
        if pos == len(cells):
            yield tuple(map(tuple, t))
            return
        r, c = cells[pos]
        for v in range(n):
            t[r][c] = v
            if not _consistent_after(t, r, c, n):
                continue
            still = []
            for p, q in tied:
                sign = _relabeled_cmp(t, p, q, t)
                if sign < 0:
                    break
                if sign == 0:
                    still.append((p, q))
            else:
                yield from fill(pos + 1, still)
        t[r][c] = -1

    yield from fill(0, perms)


def _inverse(p: Sequence[int]) -> list[int]:
    q = [0] * len(p)
    for a, img in enumerate(p):
        q[img] = a
    return q


def _relabeled(t: Table, p: Sequence[int], q: Sequence[int]) -> Table:
    # The table of t with element a renamed p[a]; q is p's inverse.
    n = len(t)
    return tuple(tuple(p[t[q[i]][q[j]]] for j in range(n)) for i in range(n))


def _relabeled_cmp(
    t: Sequence[Sequence[int]], p: Sequence[int], q: Sequence[int], ref: Sequence[Sequence[int]]
) -> int:
    # The sign of t relabeled by p against ref in row-major order, from
    # the first cell where they differ; 0 if they agree up to the first
    # cell whose source in t is still undecided (-1).  Sources are a
    # bijection on cells, so when ref is a row-major prefix of t itself,
    # no undecided cell of ref is reached before an undecided source.
    n = len(ref)
    for i in range(n):
        row = t[q[i]]
        ref_row = ref[i]
        for j in range(n):
            v = row[q[j]]
            if v < 0:
                return 0
            if p[v] != ref_row[j]:
                return p[v] - ref_row[j]
    return 0


def relabel(S: FiniteSemigroup, p: Sequence[int]) -> FiniteSemigroup:
    """Rename element a to p[a]; an isomorphic copy of S."""
    return validate(_relabeled(S.table, p, _inverse(p)))


def canonical_form(S: FiniteSemigroup) -> Table:
    """Lexicographically least table over all relabelings.

    Two semigroups are isomorphic exactly when their canonical forms
    coincide.  Each of the n! relabelings is compared with the least
    table so far cell by cell and dropped at the first larger cell; only
    a smaller one is built.
    """
    t = best = S.table
    for p in permutations(range(S.order)):
        q = _inverse(p)
        if _relabeled_cmp(t, p, q, best) < 0:
            best = _relabeled(t, p, q)
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
