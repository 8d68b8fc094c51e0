"""Finite semigroups as validated Cayley tables, plus element subsets.

Elements are the indices 0..n-1; ``table[a][b]`` is the product a*b
(left factor selects the row).  Labels are display-only.  Constructing
a ``FiniteSemigroup`` runs the full associativity check, so all other
code may assume it; only library code holding a table that is
associative by construction skips it, through
``FiniteSemigroup._from_table``.

A subset is an ``ElementSet``: its ambient order and one int mask (bit
e = element e).  ``ElementSet(ambient, members)`` validates its members;
the library builds the sets it derives from already-valid masks through
``ElementSet._from_bits``, which skips that check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    EmptyWord,
    IndexOutOfRange,
    NotAssociative,
    OutOfRangeEntry,
    SgFormatError,
    WorkBudgetExceeded,
)

__all__ = [
    "FiniteSemigroup",
    "ElementSet",
    "PowerChain",
    "validate",
    "word_product",
    "power_set_chain",
    "is_commutative",
    "identity_element",
    "all_subsets",
    "parse_sg",
    "read_sg",
    "format_sg",
]


# Most cells a word tensor may hold: 2**26 intp cells are 512 MiB.  The
# callers' peaks scale with it: at order 64 (a 128 MiB length-4 tensor)
# is_medial grew the resident set by 162 MiB and lemma4_minimal_k by
# 146 MiB, so at the limit they need about 0.65 and 0.6 GiB.
_WORD_TENSOR_CELLS = 1 << 26

# Most dimensions a numpy array may have, so the longest word tensor:
# 64 from numpy 2.0 on, 32 before.
_WORD_LENGTH_MAX = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32

# The time budget of every exhaustive search: validation, the identity
# search, canonical_form, enumerate_congruences, the catalog and the
# sweep each estimate their time from a measured unit cost and are
# refused through _within_budget, before any work starts, when the
# estimate is over it.
_BUDGET_SECONDS = 10.0

# Cost of one associativity triple in validation, as budgeted: 40 ns, so
# order 629 passes and 630 is refused.  Orders up to 256 are screened a
# row at a time over bytes, at about 1.3 ns a triple (11-20 ms at orders
# 200-256); only a larger table, or one the screen rejects, runs the
# triple loop, measured at 30 ns a triple (the fastest of repeated runs
# at orders 300 and 360 on a 2-vCPU Xeon VM, Python 3.11; up to 70 ns
# while the machine is busy).
_TRIPLE_SECONDS = 40e-9

# The types an element index may have: a float, string or other number
# is refused, never truncated.
_INDEX_TYPES = (int, np.integer)


def _ambient_order(ambient) -> int:
    """``ambient`` as an int, or ValueError unless it is an integer >= 1."""
    if not isinstance(ambient, _INDEX_TYPES) or ambient < 1:
        raise ValueError(f"ambient order must be a positive integer, not {ambient!r}")
    return int(ambient)


def _within_budget(what: str, seconds: float) -> None:
    """Raise WorkBudgetExceeded when ``what``, estimated to take
    ``seconds``, is over the time budget."""
    if seconds > _BUDGET_SECONDS:
        raise WorkBudgetExceeded(what, f"about {seconds:.3g} s", f"{_BUDGET_SECONDS:g} s")


def memoized(kind: str) -> Callable:
    """Memoize ``fn(S, key)`` per table, in ``S._memo[kind]``.

    The accessor answers from the memo and calls ``fn`` only on a miss.
    Only returned values are stored, so a call that raises is asked
    afresh next time.  ``fn`` must never return None: None marks a miss.
    """

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def accessor(S: FiniteSemigroup, key):
            memo = S._memo[kind]
            out = memo.get(key)
            if out is None:
                out = memo[key] = fn(S, key)
            return out

        return accessor

    return decorate


def _first_true(bad: np.ndarray) -> tuple[int, ...]:
    """The lexicographically first True index of ``bad``, which holds one, as ints."""
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


@dataclass(frozen=True)
class FiniteSemigroup:
    """An order-n semigroup given by its n x n Cayley table.

    Validation is eager: range errors and the lexicographically first
    associativity violation are raised at construction time.  ``order``
    is n, stored at construction.

    ``_memo`` holds the answers to pure questions about the table, one
    dict per analysis kind (``_memo["separator"]``, ``_memo["medial"]``,
    ...), read and filled only through the accessors ``memoized`` makes.
    Subset analyses are keyed by the subset's bit mask, partition
    analyses by its canonical ``class_of``, ``identity`` by the
    permutation and ``word_tensor`` by the length, never by a whole
    family, so a subset kind holds at most 2**n entries and a partition
    kind at most Bell(n).  The table is frozen, so an entry never goes
    stale, and the memo is freed with the semigroup.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.table)
        n = len(rows)
        if n < 1:
            raise ValueError("a semigroup needs at least one element")
        if any(len(row) != n for row in rows):
            raise ValueError("table must be square")
        _within_budget(f"the associativity check of an order-{n} table", n**3 * _TRIPLE_SECONDS)
        cells = tuple(chain.from_iterable(rows))
        # One pass over the cells' types and one over their range decide
        # every table of exact ints in [0, n); any other table takes the
        # row-major loop, which names the first bad cell or converts.
        if set(map(type, cells)) != {int} or min(cells) < 0 or max(cells) >= n:
            for a, row in enumerate(rows):
                for b, v in enumerate(row):
                    if not isinstance(v, _INDEX_TYPES) or not 0 <= v < n:
                        raise OutOfRangeEntry(a, b, v)
            rows = tuple(tuple(map(int, row)) for row in rows)
        object.__setattr__(self, "table", rows)
        first = _first_nonassociative_row(rows)
        if first is not None:
            for a in range(first, n):
                ra = rows[a]
                for b in range(n):
                    ab = ra[b]
                    rab = rows[ab]
                    rb = rows[b]
                    for c in range(n):
                        if rab[c] != ra[rb[c]]:
                            raise NotAssociative(a, b, c)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            seen: set[str] = set()
            for s in labels:
                if s in seen:
                    raise DuplicateLabel(s)
                seen.add(s)
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "_memo", defaultdict(dict))

    @classmethod
    def _from_table(cls, table: tuple[tuple[int, ...], ...]) -> "FiniteSemigroup":
        """Trusted construction from a square tuple of int tuples.

        Skips ``__post_init__``, so nothing is checked.  Only library
        code whose table is associative by construction may call it: a
        table the catalog enumerator already validated, or the quotient
        table of a partition whose well-definedness was just confirmed.
        Input from outside goes through ``validate`` or ``parse_sg``.
        """
        S = object.__new__(cls)
        S.__dict__.update(table=table, labels=None, order=len(table), _memo=defaultdict(dict))
        return S

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order}, table={self.table!r})"

    @cached_property
    def np_table(self) -> np.ndarray:
        return np.array(self.table, dtype=np.intp)

    @memoized("word_tensor")
    def word_tensor(self, k: int) -> np.ndarray:
        """k-dimensional array of all left-to-right products of k elements.

        ``word_tensor(k)[x1, ..., xk] == x1*x2*...*xk``, memoized per
        length.  Memory grows as n**k, so a tensor of more than 2**26
        cells raises WorkBudgetExceeded before anything is allocated, and
        a length that is not an integer from 1 to the most dimensions
        numpy allows (64) raises ValueError.
        """
        if not isinstance(k, _INDEX_TYPES) or not 1 <= k <= _WORD_LENGTH_MAX:
            limit = f"an integer from 1 to numpy's {_WORD_LENGTH_MAX} dimensions"
            raise ValueError(f"word length must be {limit}, not {k!r}")
        if k == 1:
            return np.arange(self.order, dtype=np.intp)
        cells = self.order**k
        if cells > _WORD_TENSOR_CELLS:
            raise WorkBudgetExceeded(
                f"the length-{k} word tensor", f"{cells} cells", f"{_WORD_TENSOR_CELLS} cells"
            )
        return self.np_table[self.word_tensor(k - 1)]

    @cached_property
    def _linked(self) -> tuple[int, ...]:
        """Per element u, the mask of the v with u = x*a*b*y and v = x*b*a*y
        for some x, a, b, y (the pairs a medial subset never separates).

        Built from the length-4 word tensor, so it has that tensor's budget.
        """
        n = self.order
        w4 = self.word_tensor(4)
        linked = np.zeros((n, n), dtype=bool)
        # Indexing with the tensor and its swapped view allocates no n**4 copy.
        linked[w4, w4.swapaxes(1, 2)] = True
        # Row u, packed little-endian, is u's mask.
        width = (n + 7) // 8
        rows = np.packbits(linked, axis=1, bitorder="little").tobytes()
        return tuple(
            int.from_bytes(rows[i : i + width], "little") for i in range(0, len(rows), width)
        )


def _first_nonassociative_row(rows: tuple[tuple[int, ...], ...]) -> int | None:
    """The least a with (a*b)*c != a*(b*c) for some b, c, or None, judged
    one row a at a time over bytes; 0 for an order over 256, whose
    elements a byte cannot hold, so its every row is left to the triple
    loop.

    With ``flat`` the table's bytes row by row, (a*b)*c over all (b, c)
    is the rows a*b joined in b order, and a*(b*c) is ``flat`` mapped
    through row a.
    """
    if len(rows) > 256:
        return 0
    row_bytes = list(map(bytes, rows))
    flat = b"".join(row_bytes)
    pad = bytes(256 - len(rows))
    for a, row in enumerate(row_bytes):
        if b"".join(map(row_bytes.__getitem__, row)) != flat.translate(row + pad):
            return a
    return None


def validate(
    table: Iterable[Iterable[int]], labels: Iterable[str] | None = None
) -> FiniteSemigroup:
    """Construct a semigroup, raising on the first axiom violation.

    Errors carry witnesses: OutOfRangeEntry the first cell, in row-major
    order, that is not an integer in [0, n);
    NotAssociative the lexicographically first bad triple (a, b, c).
    """
    return FiniteSemigroup(table, labels)


def word_product(S: FiniteSemigroup, w: Sequence[int]) -> int:
    """Left-to-right product of a nonempty word of element indices."""
    if len(w) == 0:
        raise EmptyWord()
    n = S.order
    for x in w:
        if not isinstance(x, _INDEX_TYPES) or not 0 <= x < n:
            raise IndexOutOfRange(x, n)
    t = S.table
    acc = w[0]
    for x in w[1:]:
        acc = t[acc][x]
    return acc


@dataclass(frozen=True, init=False)
class ElementSet:
    """A subset of the elements of an order-``ambient`` semigroup.

    The set is its int mask ``bits`` (bit e = element e) and nothing
    else: ``members``, iteration, ``len``, ``in`` and the set operations
    all read the mask.  Iteration is always in ascending index order, so
    every scan that walks a subset is deterministic.
    """

    ambient: int
    bits: int

    def __init__(self, ambient: int, members: Iterable[int]):
        self.__post_init__(ambient, members)

    def __post_init__(self, ambient: int, members: Iterable[int]):
        # Every validating construction runs here; _from_bits skips it.
        ambient = _ambient_order(ambient)
        bits = 0
        for x in frozenset(members):
            if not isinstance(x, _INDEX_TYPES) or not 0 <= x < ambient:
                raise IndexOutOfRange(x, ambient)
            bits |= 1 << int(x)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _from_bits(cls, ambient: int, bits: int) -> "ElementSet":
        """Trusted construction from a mask known to lie in [0, 2**ambient).

        Skips ``__post_init__``.  Only library code that derives the mask
        from already-valid sets or tables may call it; outside input goes
        through ``ElementSet(...)`` or ``ElementSet.of``.
        """
        A = object.__new__(cls)
        A.__dict__.update(ambient=ambient, bits=bits)
        return A

    @classmethod
    def of(cls, ambient: int, members: Iterable[int]) -> "ElementSet":
        return cls(ambient, members)

    @classmethod
    def empty(cls, ambient: int) -> "ElementSet":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "ElementSet":
        return cls.empty(ambient).complement()

    @property
    def members(self) -> frozenset[int]:
        """The elements as a frozenset, built from the mask on each read."""
        return frozenset(_elements(self.bits))

    def complement(self) -> "ElementSet":
        return ElementSet._from_bits(self.ambient, ~self.bits & ((1 << self.ambient) - 1))

    def __contains__(self, x: int) -> bool:
        if not isinstance(x, _INDEX_TYPES) or not 0 <= x < self.ambient:
            return False
        return self.bits >> int(x) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _elements(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __and__(self, other: "ElementSet") -> "ElementSet":
        if self.ambient != other.ambient:
            raise ValueError("ambient orders differ")
        return ElementSet._from_bits(self.ambient, self.bits & other.bits)

    def __le__(self, other: "ElementSet") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient orders differ")
        return not self.bits & ~other.bits

    def __repr__(self):
        return f"ElementSet({self.ambient}, {_format_mask(self.bits)})"


def _elements(bits: int) -> Iterator[int]:
    """The elements of a mask, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@lru_cache(maxsize=1 << 12)
def _format_mask(bits: int) -> str:
    """The literal "{0,2}" of the set with mask ``bits``, built once per mask."""
    return "{" + ",".join(map(str, _elements(bits))) + "}"


def all_subsets(ambient: int) -> Iterator[ElementSet]:
    """All 2**ambient subsets, in ascending bitmask order (bit e = element e)."""
    ambient = _ambient_order(ambient)
    return (ElementSet._from_bits(ambient, mask) for mask in range(1 << ambient))


class PowerChain(NamedTuple):
    """The sequence S^1, S^2, ... up to its first repetition.

    ``sets[k-1]`` is S^k; the set that would follow the last entry equals
    ``sets[cycle_start]``.
    """

    sets: tuple[ElementSet, ...]
    cycle_start: int


def power_set_chain(S: FiniteSemigroup) -> PowerChain:
    """Compute S^k = S . S^(k-1) until the subset sequence repeats."""
    n = S.order
    cur = (1 << n) - 1
    chain = [cur]
    seen = {cur: 0}
    while True:
        nxt = 0
        for row in S.table:
            for w in _elements(cur):
                nxt |= 1 << row[w]
        if nxt in seen:
            cycle_start = seen[nxt]
            break
        seen[nxt] = len(chain)
        chain.append(nxt)
        cur = nxt
    return PowerChain(tuple(ElementSet._from_bits(n, c) for c in chain), cycle_start)


def is_commutative(S: FiniteSemigroup) -> tuple[bool, tuple[int, int] | None]:
    """True iff a*b == b*a everywhere; else the first (a, b) violating it."""
    t = S.table
    n = S.order
    for a in range(n):
        for b in range(n):
            if t[a][b] != t[b][a]:
                return False, (a, b)
    return True, None


def identity_element(S: FiniteSemigroup) -> int | None:
    """The two-sided identity, if one exists (it is then unique)."""
    t = S.table
    n = S.order
    for e in range(n):
        if all(t[e][x] == x == t[x][e] for x in range(n)):
            return e
    return None


# --- .sg text format ------------------------------------------------------
#
# Optional '#' comment lines; first payload line is n; then n rows of n
# whitespace-separated integers in [0, n); optionally one final line
# "labels: s0 s1 ... s{n-1}".  Ragged rows and out-of-range entries are
# rejected at parse time.


@lru_cache(maxsize=64)
def _entries(n: int) -> dict[str, int]:
    """The entries of an order-n table by their plain decimal tokens."""
    return {str(v): v for v in range(n)}


def parse_sg(text: str) -> FiniteSemigroup:
    payload: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        payload.append((lineno, line))
    if not payload:
        raise SgFormatError(1, "no content")
    lineno, head = payload[0]
    try:
        n = int(head)
    except ValueError:
        raise SgFormatError(lineno, f"expected the order, got {head!r}") from None
    if n < 1:
        raise SgFormatError(lineno, f"order must be positive, got {n}")
    if len(payload) < 1 + n:
        raise SgFormatError(payload[-1][0], f"expected {n} table rows")
    rows: list[tuple[int, ...]] = []
    entries = _entries(n)
    for lineno, line in payload[1 : 1 + n]:
        parts = line.split()
        if len(parts) != n:
            raise SgFormatError(lineno, f"expected {n} entries, got {len(parts)}")
        try:
            row = tuple(map(entries.__getitem__, parts))
        except KeyError:
            # A token outside "0".."n-1" is read as int() reads it, so
            # "01" and "+1" are entries and the errors name the line.
            try:
                row = tuple(int(p) for p in parts)
            except ValueError:
                raise SgFormatError(lineno, f"non-integer entry in {line!r}") from None
            for v in row:
                if not 0 <= v < n:
                    raise SgFormatError(lineno, f"entry {v} out of range [0, {n})")
        rows.append(row)
    labels: tuple[str, ...] | None = None
    rest = payload[1 + n :]
    if rest:
        lineno, line = rest[0]
        if not line.startswith("labels:"):
            raise SgFormatError(lineno, f"unexpected trailing content {line!r}")
        labels = tuple(line[len("labels:") :].split())
        if len(labels) != n:
            raise SgFormatError(lineno, f"expected {n} labels, got {len(labels)}")
        if len(rest) > 1:
            raise SgFormatError(rest[1][0], "content after the labels line")
    return validate(rows, labels)


def read_sg(path) -> FiniteSemigroup:
    with open(path, encoding="utf-8") as fh:
        return parse_sg(fh.read())


def format_sg(S: FiniteSemigroup) -> str:
    lines = [str(S.order)]
    lines.extend(" ".join(str(v) for v in row) for row in S.table)
    if S.labels is not None:
        lines.append("labels: " + " ".join(S.labels))
    return "\n".join(lines) + "\n"
