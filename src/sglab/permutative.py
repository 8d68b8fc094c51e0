"""Permutation identities and the stronger quotient results they unlock.

A semigroup satisfying any nontrivial permutation identity (all words of
some length n are invariant under a fixed shuffle of their letters) gets
monoid congruences from arbitrary subset families: mediality comes for
free once a separator is nonempty.  This module finds such identities by
bounded search, computes the exponent k that makes middles commute
between long prefixes and suffixes, and verifies the permutative
variants of the quotient theorem and the separator corollary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from math import factorial
from typing import NamedTuple, Sequence

import numpy as np

from .congruences import (
    Congruence,
    _context_class_of,
    _induces_itself,
    _monoid_congruence,
    _quotient_stages,
    _separator_structure,
)
from .core import (
    _INDEX_TYPES,
    ElementSet,
    FiniteSemigroup,
    PowerChain,
    _first_true,
    _within_budget,
    memoized,
    power_set_chain,
)
from .reports import CheckReport, failed, passed, unmet
from .subsets import _check_ambient, _format_mask, _medial, _separator

__all__ = [
    "PermutationIdentity",
    "Lemma4Result",
    "satisfies_identity",
    "find_permutation_identity",
    "lemma4_minimal_k",
    "verify_theorem2_forward",
    "verify_theorem2_converse",
    "verify_corollary2",
    "parse_permutation",
    "format_permutation",
]


@dataclass(frozen=True)
class PermutationIdentity:
    """The identity x_1...x_n = x_{perm(1)}...x_{perm(n)}.

    perm holds 1-based images; it must be a non-identity bijection of
    {1..n} with n >= 2.
    """

    length: int
    perm: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(self.perm)
        if not all(isinstance(p, _INDEX_TYPES) for p in perm):
            raise ValueError(f"{perm} has an image that is not an integer")
        object.__setattr__(self, "perm", tuple(map(int, perm)))
        if self.length < 2:
            raise ValueError("identities need length at least 2")
        if len(self.perm) != self.length:
            raise ValueError(f"expected {self.length} images, got {len(self.perm)}")
        if sorted(self.perm) != list(range(1, self.length + 1)):
            raise ValueError(f"{self.perm} is not a bijection of 1..{self.length}")
        if self.perm == tuple(range(1, self.length + 1)):
            raise ValueError("the identity permutation gives a trivial identity")

    @classmethod
    def of(cls, perm: Sequence[int]) -> "PermutationIdentity":
        return cls(len(perm), tuple(perm))


def satisfies_identity(
    S: FiniteSemigroup, ident: PermutationIdentity
) -> tuple[bool, tuple[int, ...] | None]:
    """Whole-tensor comparison of both sides over all n-tuples.

    The right-hand side is the product tensor with its axes shuffled by
    the permutation, so no second fold is ever computed.  Witness is the
    lexicographically first tuple (x_1..x_n) where the sides differ.
    Memoized per semigroup and permutation.
    """
    return _identity(S, ident.perm)


@memoized("identity")
def _identity(S: FiniteSemigroup, perm: tuple[int, ...]) -> tuple[bool, tuple[int, ...] | None]:
    w = S.word_tensor(len(perm))
    bad = w != w.transpose(tuple(p - 1 for p in perm))
    if not bad.any():
        return True, None
    return False, _first_true(bad)


# Measured cost of one permutation comparison in the identity search:
# about 7 us plus 2.2 ns per word-tensor cell (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4; 7.1 us at 243 cells, 14 us at 2187, 92 us at 46656,
# 0.83 ms at 390625).  A length whose n! - 1 comparisons are estimated
# over the time budget is refused rather than started.
_PERMUTATION_SECONDS = 7e-6
_CELL_SECONDS = 2.2e-9


def _search_seconds(order: int, n: int) -> float:
    """Estimated time of the length-n identity search at this order."""
    return (factorial(n) - 1) * (_PERMUTATION_SECONDS + order**n * _CELL_SECONDS)


def find_permutation_identity(
    S: FiniteSemigroup, n_max: int = 4
) -> PermutationIdentity | None:
    """First satisfied identity, n ascending then permutations in lex
    order; absence only means nothing was found up to n_max.

    Reaching a length whose search is estimated to take more than ten
    seconds, or whose word tensor is over the cell budget, raises
    WorkBudgetExceeded; identities found at shorter lengths are returned
    as usual.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    for n in range(2, n_max + 1):
        _within_budget(f"the length-{n} identity search", _search_seconds(S.order, n))
        w = S.word_tensor(n)
        # The first permutation in lexicographic order is the identity.
        for perm in islice(permutations(range(1, n + 1)), 1, None):
            if np.array_equal(w, w.transpose(tuple(p - 1 for p in perm))):
                return PermutationIdentity(n, perm)
    return None


class Lemma4Result(NamedTuple):
    """Outcome of the middle-swap search along the power chain.

    k is the least exponent with u*x*y*v = u*y*x*v for all u, v in S^k
    and x, y in S, or None when no chain entry qualifies;
    counterexamples holds the first violating (u, x, y, v) per failed k,
    in ascending k order.
    """

    k: int | None
    chain: PowerChain
    counterexamples: tuple[tuple[int, tuple[int, int, int, int]], ...]


def lemma4_minimal_k(S: FiniteSemigroup) -> Lemma4Result:
    """Search k = 1, 2, ... for the middle-swap property.

    The property depends on k only through the set S^k, so scanning the
    power chain until its first repeated set covers every distinct case;
    past the cycle the outcomes repeat.
    """
    chain = power_set_chain(S)
    w4 = S.word_tensor(4)
    all_idx = np.arange(S.order)
    counterexamples = []
    for k, sk in enumerate(chain.sets, start=1):
        idx = np.fromiter(sk, dtype=np.intp)
        sub = w4[np.ix_(idx, all_idx, all_idx, idx)]
        bad = sub != sub.swapaxes(1, 2)
        if not bad.any():
            return Lemma4Result(k, chain, tuple(counterexamples))
        ui, x, y, vi = _first_true(bad)
        counterexamples.append((k, (int(idx[ui]), x, y, int(idx[vi]))))
    return Lemma4Result(None, chain, tuple(counterexamples))


def _witness_holds(
    check: str, S: FiniteSemigroup, ident: PermutationIdentity
) -> CheckReport | None:
    ok, w = satisfies_identity(S, ident)
    if ok:
        return None
    names = tuple((f"x{i + 1}", v) for i, v in enumerate(w))
    return unmet(check, f"claimed identity {format_permutation(ident)} does not hold", names)


def verify_theorem2_forward(
    S: FiniteSemigroup,
    family: Sequence[ElementSet],
    permutation_witness: PermutationIdentity,
) -> CheckReport:
    """Under a verified permutation identity, any family with jointly
    nonempty separators induces a monoid congruence with the
    intersection as identity class.

    Mediality of each separated set is asserted as a consequence, not
    assumed.  Commutativity of the quotient is asserted on top of the
    monoid claim and flagged in its own detail string, since it arrives
    by a different route than the monoid structure itself.
    """
    _check_ambient(S, *family)
    return _theorem2_forward(S, [[X.bits for X in family]], permutation_witness)[0]


def _theorem2_forward(
    S: FiniteSemigroup,
    families: Sequence[Sequence[int]],
    permutation_witness: PermutationIdentity,
) -> list[CheckReport]:
    """verify_theorem2_forward on each family of a list, one report per
    family, each family given as the bit masks of its sets, each known
    to lie in S.

    The identity is checked once and each distinct set's separator read
    once.  Reports are frozen, so equal answers share one object: every
    family with an empty separator intersection gets the same unmet
    report, and every pass with the same identity class the same report.
    """
    check = "theorem2-forward"
    if not families:
        return []
    bad = _witness_holds(check, S, permutation_witness)
    if bad is not None:
        return [bad] * len(families)
    full = (1 << S.order) - 1
    separators: dict[int, int] = {}
    passes: dict[int, CheckReport] = {}
    empty = None
    reports = []
    for masks in families:
        common = full
        for bits in masks:
            sep = separators.get(bits)
            if sep is None:
                sep = separators[bits] = _separator(S, bits)
            common &= sep
        if not common:
            if empty is None:
                empty = unmet(check, "intersection of separators is empty")
            reports.append(empty)
            continue
        rep = _separated_family(check, S, masks, common)
        if rep is None:
            rep = passes.get(common)
            if rep is None:
                rep = passes[common] = passed(check, f"identity class {_format_mask(common)}")
        reports.append(rep)
    return reports


def _separated_family(
    check: str, S: FiniteSemigroup, masks: Sequence[int], common: int
) -> CheckReport | None:
    """Theorem 2's conclusion on a family whose separators meet in
    ``common``, which is nonempty: a failed report, or None."""
    # Every set is separated: each separator contains the intersection.
    for i, bits in enumerate(masks):
        ok, w = _medial(S, bits)
        if not ok:
            return failed(
                check,
                (("i", i),) + tuple(zip("xaby", w)),
                f"set {i} has a nonempty separator but is not medial",
            )
    return _quotient_stages(
        check, S, _context_class_of(S, masks), common,
        "quotient monoid not commutative; commutativity asserted beyond the monoid claim",
        name_pair=False,
    )


def verify_theorem2_converse(
    S: FiniteSemigroup, sigma: Congruence, permutation_witness: PermutationIdentity
) -> CheckReport:
    """Every monoid congruence of a permutative semigroup comes from its
    own classes: separators intersect in the identity class and the
    induced congruence is the original."""
    check = "theorem2-converse"
    _check_ambient(S, sigma)
    return (
        _witness_holds(check, S, permutation_witness)
        or _monoid_congruence(check, S, sigma.class_of)
        or _induces_itself(check, S, sigma.class_of)
    )


def verify_corollary2(
    S: FiniteSemigroup, A: ElementSet, permutation_witness: PermutationIdentity
) -> CheckReport:
    """Under a verified permutation identity, the separator of any
    subset (no mediality needed) is empty or a reflexive unitary
    subsemigroup."""
    check = "corollary2"
    _check_ambient(S, A)
    bad = _witness_holds(check, S, permutation_witness)
    if bad is not None:
        return bad
    T = _separator(S, A.bits)
    return _separator_structure(check, S, T) or passed(check, f"separator {_format_mask(T)}")


def parse_permutation(text: str) -> PermutationIdentity:
    """Parse the one-line literal "perm 1 3 2" (1-based images)."""
    parts = text.split()
    if not parts or parts[0] != "perm":
        raise ValueError(f"expected 'perm i1 i2 ...', got {text!r}")
    try:
        images = [int(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"non-integer image in {text!r}") from None
    return PermutationIdentity.of(images)


def format_permutation(ident: PermutationIdentity) -> str:
    return "perm " + " ".join(str(p) for p in ident.perm)
