"""Subset analysis: idealizers, separators, and structural predicates.

The separator of a subset A collects the elements whose left and right
translations preserve both A and its complement.  It is the key filter:
subsets with nonempty separators are the ones that can serve as identity
classes of quotient congruences.
"""

from __future__ import annotations

import numpy as np

from .core import ElementSet, FiniteSemigroup
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


def _check_ambient(S: FiniteSemigroup, A: ElementSet) -> None:
    if A.ambient != S.order:
        raise AmbientMismatch(S.order, A.ambient)


def idealizer(S: FiniteSemigroup, A: ElementSet) -> ElementSet:
    """Largest subset whose elements map A into A from both sides.

    Id(A) = {x : xA is a subset of A and Ax is a subset of A}.  Empty A
    gives the whole semigroup (both conditions hold vacuously).
    """
    _check_ambient(S, A)
    n = S.order
    if len(A) == 0:
        return ElementSet.full(n)
    m = A.mask[S.np_table]
    idx = list(A.members)
    good = m[:, idx].all(axis=1) & m[idx, :].all(axis=0)
    return ElementSet.of(n, np.flatnonzero(good))


def separator(S: FiniteSemigroup, A: ElementSet) -> ElementSet:
    """Sep(A) = Id(A) intersected with Id(complement of A).

    Equivalently the x with xA = A restricted correctly on both sides:
    multiplication by x never moves an element across the A boundary.
    Sep of the empty set and of the full set is all of S.  Memoized
    per semigroup and subset.
    """
    _check_ambient(S, A)
    return S._cached(("separator", A.members), _separator, A)


def _separator(S: FiniteSemigroup, A: ElementSet) -> ElementSet:
    return idealizer(S, A) & idealizer(S, A.complement())


def is_medial(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Membership in A ignores the order of the two middle factors.

    Checks x*a*b*y in A iff x*b*a*y in A for all quadruples; on failure
    returns the lexicographically first (x, a, b, y) with x*a*b*y in A
    but x*b*a*y outside it.  Memoized per semigroup and subset.
    """
    _check_ambient(S, A)
    return S._cached(("medial", A.members), _medial, A)


def _medial(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int, int, int] | None]:
    w4 = S.word_tensor(4)
    inside = A.mask[w4]
    bad = inside & ~inside.swapaxes(1, 2)
    if not bad.any():
        return True, None
    x, a, b, y = np.argwhere(bad)[0]
    return False, (int(x), int(a), int(b), int(y))


def is_reflexive(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int] | None]:
    """a*b in A implies b*a in A; witness is the first failing (a, b)."""
    _check_ambient(S, A)
    t = S.np_table
    bad = A.mask[t] & ~A.mask[t.T]
    if not bad.any():
        return True, None
    a, b = np.argwhere(bad)[0]
    return False, (int(a), int(b))


def is_unitary(
    S: FiniteSemigroup, U: ElementSet, side: str = "both"
) -> tuple[bool, tuple[int, int] | None]:
    """U absorbs cofactors: a in U and a*b in U force b in U.

    side selects which products are constrained: "left" tests a*b with
    the left factor in U, "right" tests b*a, "both" requires either
    orientation to pull b in.  Witness is the first offending (a, b).
    """
    _check_ambient(S, U)
    if side not in ("left", "right", "both"):
        raise ValueError(f"side must be left, right, or both, not {side!r}")
    t = S.np_table
    m = U.mask
    in_u = m[:, None] & ~m[None, :]
    left_bad = in_u & m[t]
    right_bad = in_u & m[t.T]
    if side == "left":
        bad = left_bad
    elif side == "right":
        bad = right_bad
    else:
        bad = left_bad | right_bad
    if not bad.any():
        return True, None
    a, b = np.argwhere(bad)[0]
    return False, (int(a), int(b))


def is_subsemigroup(
    S: FiniteSemigroup, A: ElementSet
) -> tuple[bool, tuple[int, int] | None]:
    """Nonempty and closed under the product; witness (a, b) has a*b outside."""
    _check_ambient(S, A)
    if len(A) == 0:
        return False, None
    t = S.table
    for a in A:
        for b in A:
            if t[a][b] not in A:
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
    return "{" + ",".join(str(i) for i in A.indices) + "}"
