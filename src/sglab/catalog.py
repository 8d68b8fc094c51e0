"""Exhaustive enumeration of small semigroups by table backtracking.

Fills the Cayley table cell by cell in row-major order, pruning as soon
as any associativity triple has all four of its lookups decided, and as
soon as some relabeling of the decided cells is already smaller.  So the
search yields one table per isomorphism class, the least of its class.
The labeled catalog, the instance source for every verification sweep,
is the set of their relabelings in lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .core import FiniteSemigroup, _within_budget, validate
from .errors import SgFormatError

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


# Labeled semigroups of orders 1-6 (OEIS A023814); an order above 6 is
# estimated with the order-6 count, a lower bound.
_LABELED_COUNTS = (1, 8, 113, 3492, 183732, 17061118)

# Measured cost of the catalog per labeled table (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4): 15-17 us at order 5 (2.8-3.1 s, 55 MiB peak), and
# 20 us with `sglab enumerate 5` formatting every table (3.6-3.8 s end to
# end), so the cost covers that command too.  The class generator alone
# takes about 7 us per labeled table it stands for, so one cost serves
# both routes: order 5 is accepted and order 6 (about 341 s) is refused,
# labeled and up to isomorphism alike.
_TABLE_SECONDS = 20e-6


def _labeled_count(n: int) -> int:
    """The number of labeled semigroups of order n, exact up to order 6
    and the order-6 count above it."""
    return _LABELED_COUNTS[min(n, len(_LABELED_COUNTS)) - 1]


def enumerate_semigroups(n: int, up_to_iso: bool = False) -> Iterator[FiniteSemigroup]:
    """All associative n x n tables, in lexicographic table order.

    With up_to_iso, only tables equal to their own canonical form are
    emitted, one per isomorphism class.  Anti-isomorphic twins (left
    vs right versions) are kept apart on purpose: the one-sided
    predicates distinguish them.  A bad order raises at the call, before
    the first table is asked for: an order whose labeled tables are
    estimated over ten seconds (order 6 and up) raises WorkBudgetExceeded.
    """
    if n < 1:
        raise ValueError("order must be positive")
    _within_budget(f"the order-{n} catalog", _labeled_count(n) * _TABLE_SECONDS)
    if up_to_iso:
        return map(validate, _backtrack(n))
    return (FiniteSemigroup._from_table(t) for t, _, _ in _orbits(n))


def _orbits(n: int) -> Iterator[tuple[Table, FiniteSemigroup, int]]:
    # Each labeled table with its class representative R and the index k
    # of the relabeling of R that gives it, a row of _orderings(n).  Every
    # labeled table is a relabeling of exactly one class representative,
    # so the catalog is the union of their orbits, each built by one
    # gather as byte rows.  Only the representatives are validated: a
    # relabeling of an associative table is associative.  Where R has
    # automorphisms several relabelings give one row, and the row keeps
    # the first, as one int that packs R's position and k.  Sorting the
    # rows restores the catalog order, and a row becomes a table only as
    # it is handed out.
    p, cells, base = _whole_block(n)
    cells, base = cells.reshape(-1, n * n), base.reshape(-1, 1)
    relabelings = factorial(n)
    reps, rows = [], {}
    for t in _backtrack(n):
        R = validate(t)
        src = R.np_table.ravel()[cells]
        src += base
        first = len(reps) * relabelings
        reps.append(R)
        # Written last to first, so a repeated row keeps its least k.
        rows.update(zip(map(bytes, p[src][::-1]), range(first + relabelings - 1, first - 1, -1)))
    for row in sorted(rows):
        i, k = divmod(rows[row], relabelings)
        yield _table(row, n), reps[i], k


@lru_cache(maxsize=None)
def _orbit_index(n: int) -> tuple[tuple[Table, ...], tuple[tuple[int, int], ...]]:
    """The class representatives' tables of order n, and each labeled
    table's (representative position, k), in catalog order, as _orbits
    yields them.  Only immutable data is kept once per order, so every
    caller builds its own representatives, with empty memos.  The sweep
    budget admits orders 1-4 only, about 0.3 MiB in all."""
    position: dict[Table, int] = {}
    index = tuple((position.setdefault(R.table, len(position)), k) for _, R, k in _orbits(n))
    return tuple(position), index


def _relabeling(R: FiniteSemigroup, k: int) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """The labeled table that relabeling k of _orderings(n) makes of R,
    and that relabeling q: the table labels i the element q[i] of R.
    Relabeling 0 is the identity, and gives back R itself."""
    n = R.order
    if k == 0:
        return R, tuple(range(n))
    q = tuple(_orderings(n)[k].tolist())
    return FiniteSemigroup._from_table(_relabeled(R.table, _inverse(q), q)), q


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
                sign = _relabeled_cmp(t, p, q)
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


def _relabeled_cmp(t: Sequence[Sequence[int]], p: Sequence[int], q: Sequence[int]) -> int:
    # The sign of t relabeled by p against t itself in row-major order,
    # from the first cell where they differ; 0 if they agree up to the
    # first cell whose source in t is still undecided (-1).  Sources are a
    # bijection on cells and t's decided cells are a row-major prefix, so
    # no undecided cell of t is compared before an undecided source.
    n = len(t)
    for i in range(n):
        row = t[q[i]]
        ref_row = t[i]
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


# canonical_form judges its relabelings in blocks that share a prefix:
# the labels after it are every ordering of the last min(n, 7) elements,
# so a block holds at most 7! = 5040 relabelings of n*n cells.  Orders up
# to 7 have one block per element labelled 0, all kept per order (at
# order 7 the arrays take about 2.5 MiB).
_BLOCK_LABELS = 7

# Measured cost of canonical_form per relabeling: at most 17 ns per cell
# of the table (2-vCPU Xeon VM, Python 3.11, numpy 2.4; a left-zero table,
# every element idempotent, so every block is judged: 1.1-1.2 us per
# relabeling at orders 8 and 9, and 1.3-1.5 us at 10, 4.8-5.3 s in all).
# A table whose n! relabelings are estimated over the time budget is
# refused before the search starts: order 10 passes, 11 is refused.
# Order 7 is estimated at 4 ms.
_RELABELING_CELL_SECONDS = 17e-9


@lru_cache(maxsize=_BLOCK_LABELS)
def _orderings(m: int) -> np.ndarray:
    """All m! orderings of range(m) as rows, in lexicographic order."""
    out = np.array(list(permutations(range(m))), dtype=np.intp)
    out.flags.writeable = False
    return out


def _relabelings(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices for the relabelings q, where q[k, i] is the element
    that relabeling k labels i.

    Returns the flattened inverse p (p[k, a] is the label of element a)
    as bytes (the budgets keep n far below 256), the source cell
    q[k, i]*n + q[k, j] of each relabeled cell (i, j) as a row of n*n,
    and the offset k*n of row k of p, so that
    ``p[table.ravel()[cells] + base]`` is every relabeled table at once,
    one byte row each, whose byte order is row-major table order.
    """
    rows, n = q.shape
    p = np.argsort(q, axis=1).ravel().astype(np.uint8)
    cells = (q[:, :, None] * n + q[:, None, :]).reshape(rows, n * n)
    base = np.arange(0, rows * n, n)[:, None]
    for a in (p, cells, base):
        a.flags.writeable = False
    return p, cells, base


@lru_cache(maxsize=_BLOCK_LABELS)
def _whole_block(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather indices of all n! relabelings of an order-n table, with
    cells and base grouped by the element labelled 0."""
    p, cells, base = _relabelings(_orderings(n))
    rows = factorial(n - 1)
    return p, cells.reshape(n, rows, n * n), base.reshape(n, rows, 1)


def _blocks(S: FiniteSemigroup) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    # The least table has 0 in cell (0, 0), so label 0 goes to an
    # idempotent: only prefixes that start with one are judged.
    n = S.order
    t = S.table
    idempotent = [t[e][e] == e for e in range(n)]
    if n <= _BLOCK_LABELS:
        p, cells, base = _whole_block(n)
        cells = cells.compress(idempotent, axis=0).reshape(-1, n * n)
        yield p, cells, base.compress(idempotent, axis=0).reshape(-1, 1)
        return
    tails = _orderings(_BLOCK_LABELS)
    for prefix in permutations(range(n), n - _BLOCK_LABELS):
        if not idempotent[prefix[0]]:
            continue
        rest = np.array(sorted(set(range(n)).difference(prefix)), dtype=np.intp)
        head = np.broadcast_to(np.array(prefix, dtype=np.intp), (len(tails), len(prefix)))
        yield _relabelings(np.concatenate([head, rest[tails]], axis=1))


def canonical_form(S: FiniteSemigroup) -> Table:
    """Lexicographically least table over all relabelings.

    Two semigroups are isomorphic exactly when their canonical forms
    coincide.  The relabelings are judged in blocks of at most 7! by a
    few array operations each: one gather builds every relabeled table
    of the block as a byte row, and one argmin over the rows as strings
    picks the least.  An order whose n! relabelings are estimated
    over ten seconds (order 11 and up) raises WorkBudgetExceeded first.
    """
    n = S.order
    est = factorial(n) * n * n * _RELABELING_CELL_SECONDS
    _within_budget(f"the canonical form of an order-{n} table", est)
    flat = S.np_table.ravel()
    best = None
    for p, cells, base in _blocks(S):
        src = flat[cells]
        src += base
        rel = p[src]
        # The string view drops trailing NUL bytes (label 0) from the
        # scalar it would return, so the row is read back at full width.
        row = rel[rel.view(f"S{n * n}").argmin()].tobytes()
        if best is None or row < best:
            best = row
    return _table(best, n)


def _table(row: bytes, n: int) -> Table:
    """The table whose row-major cells are the bytes of row."""
    return tuple(tuple(row[i : i + n]) for i in range(0, n * n, n))


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
