"""Subset analysis: idealizers, separators, and structural predicates.

The separator of a subset A collects the elements whose left and right
translations preserve both A and its complement.  It is the key filter:
subsets with nonempty separators are the ones that can serve as identity
classes of quotient congruences.

The kernels read a subset through its bit mask and return sets built
from the masks they compute.  Mediality reads the table's linked pairs
(``FiniteSemigroup._linked``), so each subset costs at most |A| mask
tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ElementSet, FiniteSemigroup, _first_true, _format_mask, memoized
from .errors import AmbientMismatch

__all__ = [
    "idealizer",
    "separator",
    "is_medial",
    "is_reflexive",
    "is_unitary",
    "is_subsemigroup",
    "parse_subset",
    "format_subset",
]


def _check_ambient(S: FiniteSemigroup, *items) -> None:
    """Raise AmbientMismatch for the first set or congruence not over S's elements."""
    for X in items:
        if X.ambient != S.order:
            kind = "subset" if isinstance(X, ElementSet) else "congruence"
            raise AmbientMismatch(S.order, X.ambient, kind)


def idealizer(S: FiniteSemigroup, A: ElementSet) -> ElementSet:
    """Largest subset whose elements map A into A from both sides.

    Id(A) = {x : xA is a subset of A and Ax is a subset of A}.  Empty A
    gives the whole semigroup (both conditions hold vacuously).
    """
    _check_ambient(S, A)
    return ElementSet._from_bits(S.order, _keepers(S, A.bits, list(A)))


def separator(S: FiniteSemigroup, A: ElementSet) -> ElementSet:
    """Sep(A) = Id(A) intersected with Id(complement of A).

    Equivalently the x with xA = A restricted correctly on both sides:
    multiplication by x never moves an element across the A boundary.
    Sep of the empty set and of the full set is all of S.  Memoized
    per semigroup and subset.
    """
    _check_ambient(S, A)
    return ElementSet._from_bits(S.order, _separator(S, A.bits))


def _np_mask(S: FiniteSemigroup, bits: int) -> np.ndarray:
    """Boolean array of the subset with mask ``bits``."""
    return np.array([bits >> e & 1 for e in range(S.order)], dtype=bool)


def _keepers(S: FiniteSemigroup, bits: int, over: Sequence[int]) -> int:
    """Mask of the x for which x*a and a*x lie on a's side of the subset
    with mask ``bits`` for every index a in ``over``.

    Over the members of A these x are Id(A); over every element they are
    Sep(A), Id(A) intersected with Id(complement of A).
    """
    t = S.table
    out = 0
    for x in range(S.order):
        row = t[x]
        for a in over:
            side = bits >> a & 1
            if bits >> row[a] & 1 != side or bits >> t[a][x] & 1 != side:
                break
        else:
            out |= 1 << x
    return out


@memoized("separator")
def _separator(S: FiniteSemigroup, bits: int) -> int:
    """Mask of Sep of the subset with mask ``bits``."""
    return _keepers(S, bits, range(S.order))


def is_medial(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Membership in A ignores the order of the two middle factors.

    Checks x*a*b*y in A iff x*b*a*y in A for all quadruples; on failure
    returns the lexicographically first (x, a, b, y) with x*a*b*y in A
    but x*b*a*y outside it.  Memoized per semigroup and subset.
    """
    _check_ambient(S, A)
    return _medial(S, A.bits)


@memoized("medial")
def _medial(S: FiniteSemigroup, bits: int) -> tuple[bool, tuple[int, int, int, int] | None]:
    # A is medial iff it never separates a linked pair (x*a*b*y,
    # x*b*a*y); the tensor is searched only for a failure's witness.
    linked = S._linked
    outside = ~bits
    for u in range(S.order):
        if bits >> u & 1 and linked[u] & outside:
            inside = _np_mask(S, bits)[S.word_tensor(4)]
            return False, _first_true(inside & ~inside.swapaxes(1, 2))
    return True, None


def is_reflexive(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int] | None]:
    """a*b in A implies b*a in A; witness is the first failing (a, b).

    Memoized per semigroup and subset.
    """
    _check_ambient(S, A)
    return _reflexive(S, A.bits)


@memoized("reflexive")
def _reflexive(S: FiniteSemigroup, bits: int) -> tuple[bool, tuple[int, int] | None]:
    t = S.table
    n = S.order
    for a in range(n):
        row = t[a]
        for b in range(n):
            if bits >> row[b] & 1 and not bits >> t[b][a] & 1:
                return False, (a, b)
    return True, None


_SIDES = {"left": 0, "right": 1, "both": 2}


def is_unitary(
    S: FiniteSemigroup, U: ElementSet, side: str = "both"
) -> tuple[bool, tuple[int, int] | None]:
    """U absorbs cofactors: a in U and a*b in U force b in U.

    side selects which products are constrained: "left" tests a*b with
    the left factor in U, "right" tests b*a, "both" requires either
    orientation to pull b in.  Witness is the first offending (a, b).
    Memoized per semigroup and subset, for all three sides at once.
    """
    _check_ambient(S, U)
    if side not in _SIDES:
        raise ValueError(f"side must be left, right, or both, not {side!r}")
    w = _unitary(S, U.bits)[_SIDES[side]]
    return w is None, w


@memoized("unitary")
def _unitary(
    S: FiniteSemigroup, bits: int
) -> tuple[tuple[int, int] | None, tuple[int, int] | None, tuple[int, int] | None]:
    """The first left, right and "both" witnesses (None where unitary)."""
    # The first (a, b) with a in U, b outside, and a*b (left) or b*a
    # (right) in U; the first for "both" is the lesser of the two.
    t = S.table
    n = S.order
    left = right = None
    for a in range(n):
        if not bits >> a & 1:
            continue
        row = t[a]
        for b in range(n):
            if bits >> b & 1:
                continue
            if left is None and bits >> row[b] & 1:
                left = (a, b)
            if right is None and bits >> t[b][a] & 1:
                right = (a, b)
            if left is not None and right is not None:
                return left, right, min(left, right)
    # At most one of the two was found.
    return left, right, left or right


def is_subsemigroup(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int] | None]:
    """Nonempty and closed under the product; witness (a, b) has a*b outside.

    The empty set is not a subsemigroup (with no witness), which keeps
    it out of lemma 3: see ``check_lemma3``.  Memoized per semigroup and
    subset.
    """
    _check_ambient(S, A)
    return _subsemigroup(S, A.bits)


@memoized("subsemigroup")
def _subsemigroup(S: FiniteSemigroup, bits: int) -> tuple[bool, tuple[int, int] | None]:
    if not bits:
        return False, None
    t = S.table
    inside = [e for e in range(S.order) if bits >> e & 1]
    for a in inside:
        row = t[a]
        for b in inside:
            if not bits >> row[b] & 1:
                return False, (a, b)
    return True, None


def parse_subset(text: str, ambient: int) -> ElementSet:
    """Parse "{0,2}" or "0,2" (and "{}" for the empty set)."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ElementSet.empty(ambient)
    return ElementSet.of(ambient, (int(p) for p in body.split(",")))


def format_subset(A: ElementSet) -> str:
    """The literal "{0,2}", computed once per mask."""
    return _format_mask(A.bits)


def _min_member(bits: int) -> int:
    """The least element of a nonempty mask."""
    return (bits & -bits).bit_length() - 1
