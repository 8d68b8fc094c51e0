"""Congruences induced by subset families, quotients, and their checks.

The central construction: a family of subsets A_i induces the relation
a ~ b iff for every i and every two-sided context x, y drawn from the
semigroup itself, x*a*y lands in A_i exactly when x*b*y does.  That
relation is always a congruence.  When the A_i are medial and the
intersection of their separators is nonempty, the quotient is a
commutative monoid whose identity class is that intersection; and every
commutative monoid congruence arises from its own classes this way.
Both directions are checked here, stage by stage, on concrete tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    _INDEX_TYPES,
    ElementSet,
    FiniteSemigroup,
    _ambient_order,
    _within_budget,
    identity_element,
    is_commutative,
    memoized,
)
from .errors import IndexOutOfRange, NotACongruence
from .reports import CheckReport, failed, passed, unmet
from .subsets import (
    _check_ambient,
    _format_mask,
    _medial,
    _min_member,
    _np_mask,
    _reflexive,
    _separator,
    _subsemigroup,
    _unitary,
)

__all__ = [
    "Congruence",
    "QuotientSemigroup",
    "QuotientKind",
    "identity_congruence",
    "universal_congruence",
    "p_congruence",
    "p_congruence_pairwise",
    "is_congruence",
    "quotient",
    "classify_quotient",
    "enumerate_congruences",
    "verify_theorem1_forward",
    "verify_theorem1_converse",
    "verify_corollary1",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
]


@dataclass(frozen=True)
class Congruence:
    """A partition of [0, n) in canonical class-id form.

    Class ids are assigned in order of first appearance by ascending
    element index, so equal partitions compare equal as plain tuples.
    """

    ambient: int
    class_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ambient", _ambient_order(self.ambient))
        if len(self.class_of) != self.ambient:
            raise ValueError(f"expected {self.ambient} class assignments")
        object.__setattr__(self, "class_of", _first_appearance(self.class_of))

    @classmethod
    def _from_rgs(cls, ambient: int, class_of: tuple[int, ...]) -> "Congruence":
        """Trusted construction from a restricted growth string, which is
        already a canonical class_of.  Skips ``__post_init__``."""
        c = object.__new__(cls)
        c.__dict__.update(ambient=ambient, class_of=class_of)
        return c

    @classmethod
    def from_classes(cls, ambient: int, parts: Iterable[Iterable[int]]) -> "Congruence":
        ambient = _ambient_order(ambient)
        assign = [-1] * ambient
        for pid, part in enumerate(map(tuple, parts)):
            if not part:
                raise ValueError(f"class {pid} is empty")
            for x in part:
                if not isinstance(x, _INDEX_TYPES) or not 0 <= x < ambient:
                    raise IndexOutOfRange(x, ambient)
                if assign[x] != -1:
                    raise ValueError(f"element {x} appears in two classes")
                assign[x] = pid
        if -1 in assign:
            raise ValueError(f"element {assign.index(-1)} missing from the partition")
        return cls(ambient, tuple(assign))

    def classes(self) -> tuple[ElementSet, ...]:
        """Class contents indexed by class id."""
        return tuple(ElementSet._from_bits(self.ambient, b) for b in _class_bits(self.class_of))

    def literal(self) -> str:
        """The partition literal "{0};{1,2}", one class per ';' by class id."""
        return ";".join(map(_format_mask, _class_bits(self.class_of)))

    def __repr__(self):
        return f"Congruence({self.ambient}, {self.literal()})"


def identity_congruence(n: int) -> Congruence:
    return Congruence(n, tuple(range(n)))


def universal_congruence(n: int) -> Congruence:
    return Congruence(n, (0,) * n)


class QuotientKind(NamedTuple):
    is_monoid: bool
    is_commutative: bool
    identity_class: int | None


@dataclass(frozen=True)
class QuotientSemigroup:
    """A quotient table together with the projection that produced it."""

    quotient: FiniteSemigroup
    projection: tuple[int, ...]

    @cached_property
    def _kind(self) -> QuotientKind:
        e = identity_element(self.quotient)
        comm, _ = is_commutative(self.quotient)
        return QuotientKind(e is not None, comm, e)


def _first_appearance(keys: Iterable) -> tuple[int, ...]:
    """Class ids of the keys, numbered in order of first appearance, so
    equal keys share an id and the result is a canonical class_of."""
    # A list comprehension: faster than tuple() over a generator.
    ids: dict = {}
    return tuple([ids.setdefault(key, len(ids)) for key in keys])


@lru_cache(maxsize=1 << 12)
def _class_bits(class_of: tuple[int, ...]) -> tuple[int, ...]:
    """The class masks of a canonical class_of, by class id.  They never
    read a table, so one entry serves every table with this partition."""
    bits = [0] * (max(class_of) + 1)
    for x, c in enumerate(class_of):
        bits[c] |= 1 << x
    return tuple(bits)


@memoized("profile")
def _profile(S: FiniteSemigroup, bits: int) -> tuple[int, ...]:
    """Canonical class ids of the partition the subset with mask ``bits``
    induces: c and d share a class iff their context masks
    {(x, y) : x*c*y in A} are equal."""
    # Slice c of the bytes is c's context mask.
    rows = _np_mask(S, bits)[S.word_tensor(3)].transpose(1, 0, 2).tobytes()
    width = S.order**2
    return _first_appearance([rows[i : i + width] for i in range(0, len(rows), width)])


def _context_class_of(S: FiniteSemigroup, masks: Sequence[int]) -> tuple[int, ...]:
    # Profile route: a ~ b iff they share a class of every single-set
    # partition, so the family's partition is the common refinement of
    # the cached per-set ones.
    if len(masks) == 1:
        return _profile(S, masks[0])
    per_set = [_profile(S, bits) for bits in masks]
    return _first_appearance(zip(*per_set) if per_set else [()] * S.order)


def p_congruence(S: FiniteSemigroup, family: Sequence[ElementSet]) -> Congruence:
    """The congruence induced by a family of subsets via two-sided contexts.

    a ~ b iff for every A_i and every x, y in S: x*a*y in A_i exactly
    when x*b*y in A_i.  Contexts range over S itself.  The empty or full
    set constrains nothing, so a family made only of those (the empty
    family included) induces the universal relation; beside other sets
    they change nothing.  The result is re-checked for compatibility,
    and NotACongruence is raised if that check fails.
    """
    _check_ambient(S, *family)
    class_of = _context_class_of(S, [A.bits for A in family])
    ok, w = _compatible(S, class_of)
    if not ok:
        raise NotACongruence(f"induced relation broke compatibility at {w}")
    return Congruence(S.order, class_of)


def p_congruence_pairwise(S: FiniteSemigroup, family: Sequence[ElementSet]) -> Congruence:
    """Independent slow-route reimplementation of p_congruence.

    Tests every element pair directly against the defining biconditional
    with plain table folds; exists solely to cross-check the profile
    route, so it deliberately shares no code with it.
    """
    _check_ambient(S, *family)
    n = S.order
    t = S.table
    members = [A.members for A in family]

    def related(a: int, b: int) -> bool:
        for ms in members:
            for x in range(n):
                xa = t[x][a]
                xb = t[x][b]
                for y in range(n):
                    if (t[xa][y] in ms) != (t[xb][y] in ms):
                        return False
        return True

    class_of = [-1] * n
    next_id = 0
    for a in range(n):
        if class_of[a] != -1:
            continue
        class_of[a] = next_id
        for b in range(a + 1, n):
            if class_of[b] == -1 and related(a, b):
                class_of[b] = next_id
        next_id += 1
    # Defining condition is an equality of profiles, so the relation
    # must come out transitive; greedy grouping relies on that.
    for a in range(n):
        for b in range(n):
            if (class_of[a] == class_of[b]) != related(a, b):
                raise NotACongruence(f"pairwise relation not transitive at ({a},{b})")
    return Congruence(n, tuple(class_of))


def is_congruence(
    S: FiniteSemigroup, part: Congruence
) -> tuple[bool, tuple[int, int, int] | None]:
    """Compatibility of a partition with the product, on both sides.

    Witness (a, b, c): a and b share a class but c*a vs c*b or a*c vs
    b*c do not; lexicographically first such triple.  Memoized per
    semigroup and partition.
    """
    _check_ambient(S, part)
    return _compatible(S, part.class_of)


@memoized("congruence")
def _compatible(
    S: FiniteSemigroup, cls: tuple[int, ...]
) -> tuple[bool, tuple[int, int, int] | None]:
    # The rule enumerate_congruences judges by: each x's products with
    # every c, on both sides, lie in the classes of those of x's
    # representative r, the least element of its class.  Visiting x in
    # (class id, x) order, the first mismatch (r, x, c) is the pairwise
    # definition's first triple (a, b, c): the first a with a disagreeing
    # classmate is always the least of its class, since when a disagrees
    # with b, r disagrees with a or with b.
    t = S.table
    n = S.order
    for x in sorted(range(n), key=cls.__getitem__):
        r = cls.index(cls[x])
        if r == x:
            continue
        tx, tr = t[x], t[r]
        for c in range(n):
            if cls[tx[c]] != cls[tr[c]] or cls[t[c][x]] != cls[t[c][r]]:
                return False, (r, x, c)
    return True, None


def quotient(S: FiniteSemigroup, c: Congruence) -> QuotientSemigroup:
    """Quotient table over class ids, built from the first element of
    each class once is_congruence confirms the partition.

    NotACongruence, with is_congruence's witness, is raised for any
    partition that merely pretends to be compatible.  Memoized per
    semigroup and partition; a raise is not memoized.
    """
    _check_ambient(S, c)
    return _quotient(S, c.class_of)


@memoized("quotient")
def _quotient(S: FiniteSemigroup, cls: tuple[int, ...]) -> QuotientSemigroup:
    ok, w = _compatible(S, cls)
    if not ok:
        a, b, c = w
        raise NotACongruence(
            f"products depend on representatives: {a} and {b} share a class, "
            f"their products with {c} do not"
        )
    # Every product of classes is well defined, so the projection is a
    # homomorphism onto the table, which is therefore associative.
    reps = [cls.index(i) for i in range(max(cls) + 1)]
    t = S.table
    qtable = tuple(tuple(cls[t[r][s]] for s in reps) for r in reps)
    return QuotientSemigroup(FiniteSemigroup._from_table(qtable), cls)


def classify_quotient(Q: QuotientSemigroup) -> QuotientKind:
    """Monoid and commutativity flags of the quotient, computed once per Q."""
    return Q._kind


def _rgs_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings in lexicographic order: a[0] = 0 and
    a[i] <= max(a[:i]) + 1.  One string per set partition of [0, n), and
    each is already the canonical class_of of its partition."""
    if n == 1:
        yield (0,)
        return
    # Each string of length n - 1, extended in every allowed way.
    for head in _rgs_strings(n - 1):
        for v in range(max(head) + 2):
            yield head + (v,)


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    """Bell(n), the number of set partitions of [0, n)."""
    return 1 if n == 0 else sum(comb(n - 1, k) * _bell(k) for k in range(n))


# enumerate_congruences judges at most _PARTITION_BLOCK partitions per
# pass of array operations.  An order whose Bell(n) partitions fit in one
# pass (orders up to 7; Bell(7) = 877) keeps its arrays; orders 8 to 11
# take blocks built as they are needed.
_PARTITION_BLOCK = 4096

# Measured cost of enumerate_congruences per partition cell: 80 ns for
# each of the Bell(n)*n*n cells (2-vCPU VM, Python 3.11; a null table,
# where every partition is a congruence, takes 1.0 s at order 10 and
# 7.1 s with a 343 MiB peak at order 11, a chain 4.5 s at order 11).
# Order 11 is estimated at 6.6 s and passes; order 12, at 48.5 s, is
# refused before any partition is generated.
_PARTITION_CELL_SECONDS = 80e-9

_Strings = tuple[tuple[int, ...], ...]


def _partition_block(strings: _Strings) -> tuple[_Strings, np.ndarray, np.ndarray]:
    """The strings, their array P (one row per partition) and the gather
    index that sets each product beside its representative's.

    With rep[k, a] the first element of a's class, partition k is a
    congruence iff P[k, a*c] == P[k, rep[k, a]*c] and P[k, c*a] ==
    P[k, c*rep[k, a]] for all a and c.  For G[k, x] = P[k, table[x]] over
    the n*n cells x, ``G.ravel()[index]`` is (B, 2, n*n): row k holds
    G[k, rep*n + c] at a*n + c and G[k, c*n + rep] at c*n + a.
    """
    P = np.array(strings, dtype=np.intp)
    rows, n = P.shape
    first = (P[:, :, None] == np.arange(n)).argmax(axis=1)
    rep = np.take_along_axis(first, P, axis=1)[:, :, None]
    c = np.arange(n)
    offset = np.arange(0, rows * n * n, n * n)[:, None, None]
    left = offset + rep * n + c
    right = offset + (c * n)[:, None] + rep.transpose(0, 2, 1)
    index = np.stack([left, right], axis=1).reshape(rows, 2, n * n)
    for a in (P, index):
        a.flags.writeable = False
    return strings, P, index


@lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[_Strings, np.ndarray, np.ndarray]:
    return _partition_block(tuple(_rgs_strings(n)))


def _partition_blocks(n: int) -> Iterable[tuple[_Strings, np.ndarray, np.ndarray]]:
    if _bell(n) <= _PARTITION_BLOCK:
        return (_all_partitions(n),)
    strings = _rgs_strings(n)
    return map(_partition_block, iter(lambda: tuple(islice(strings, _PARTITION_BLOCK)), ()))


def enumerate_congruences(S: FiniteSemigroup) -> list[Congruence]:
    """All congruences of S, by filtering every set partition of [0, n).

    Partitions are generated as restricted growth strings in
    lexicographic order, which the output inherits, and judged a block
    at a time by one array comparison of every product with its class
    representative's.  An order whose Bell(n) partitions are estimated
    over ten seconds (order 12 and up) raises WorkBudgetExceeded first.
    """
    n = S.order
    est = _bell(n) * n * n * _PARTITION_CELL_SECONDS
    _within_budget(f"the congruence search of an order-{n} table", est)
    cells = S.np_table.ravel()
    out = []
    for strings, P, index in _partition_blocks(n):
        G = P[:, cells]
        ok = (G.ravel()[index] == G[:, None, :]).all(axis=(1, 2))
        out += (Congruence._from_rgs(n, rgs) for rgs in compress(strings, ok.tolist()))
    return out


# The checks below run as chains of stages.  A stage returns the report
# that ends the check, or None to go on to the next stage.


def _sep_common(S: FiniteSemigroup, masks: Iterable[int]) -> int:
    """Mask of the intersection of the separators of the given subsets."""
    common = (1 << S.order) - 1
    for bits in masks:
        common &= _separator(S, bits)
    return common


def _quotient_stages(
    check: str,
    S: FiniteSemigroup,
    class_of: tuple[int, ...],
    common: int,
    noncommutative: str,
    name_pair: bool,
) -> CheckReport | None:
    """The forward theorems' conclusion: class_of is a congruence whose
    quotient is a commutative monoid with identity class ``common``.
    A monoid quotient that does not commute fails with the theorem's own
    detail ``noncommutative``, naming the first pair of class ids that
    do not commute when ``name_pair`` is set."""
    ok, w = _compatible(S, class_of)
    if not ok:
        return failed(check, tuple(zip("abc", w)), "induced relation is not a congruence")
    Q = _quotient(S, class_of)
    kind = Q._kind
    if not kind.is_monoid:
        return failed(check, None, "quotient has no identity element")
    if not kind.is_commutative:
        pair = tuple(zip("ab", is_commutative(Q.quotient)[1])) if name_pair else None
        return failed(check, pair, noncommutative)
    ident = _class_bits(class_of)[kind.identity_class]
    if ident != common:
        return failed(
            check,
            (("x", _min_member(ident ^ common)),),
            f"separator intersection {_format_mask(common)} is not the identity class "
            f"{_format_mask(ident)}",
        )
    return None


def verify_theorem1_forward(S: FiniteSemigroup, family: Sequence[ElementSet]) -> CheckReport:
    """Medial family with jointly nonempty separators induces a
    commutative monoid congruence whose identity class is that
    intersection.

    Stages: (i) every set medial, (ii) intersection of separators
    nonempty — both are hypotheses, reported precondition-unmet when
    missing; then (iii) induced relation is a congruence, (iv) quotient
    is a commutative monoid, (v) the intersection is exactly the
    identity class, (vi) every set in the family is a union of classes.
    """
    check = "theorem1-forward"
    _check_ambient(S, *family)
    masks = [X.bits for X in family]
    for i, bits in enumerate(masks):
        ok, w = _medial(S, bits)
        if not ok:
            return unmet(check, f"set {i} not medial", tuple(zip("xaby", w)))
    common = _sep_common(S, masks)
    if not common:
        return unmet(check, "intersection of separators is empty")
    class_of = _context_class_of(S, masks)
    bad = _quotient_stages(
        check, S, class_of, common, "quotient not commutative (class ids)", name_pair=True
    )
    if bad is not None:
        return bad
    classes = _class_bits(class_of)
    for i, bits in enumerate(masks):
        if any(C & bits and C & ~bits for C in classes):
            a, b = _split_pair(bits, class_of)
            return failed(
                check, (("i", i), ("a", a), ("b", b)), f"set {i} splits a congruence class"
            )
    detail = f"identity class {_format_mask(common)}"
    if not family:
        detail += "; empty family induces the universal relation"
    return passed(check, detail)


def _split_pair(bits: int, class_of: tuple[int, ...]) -> tuple[int, int]:
    # The first a inside the set, then the first b outside it, sharing a class.
    n = len(class_of)
    for a in range(n):
        if bits >> a & 1:
            for b in range(n):
                if class_of[b] == class_of[a] and not bits >> b & 1:
                    return a, b
    raise ValueError("the set is a union of classes")


def _monoid_congruence(
    check: str, S: FiniteSemigroup, class_of: tuple[int, ...]
) -> CheckReport | None:
    """The converses' hypothesis: class_of is a congruence whose quotient
    is a monoid; precondition-unmet otherwise."""
    ok, w = _compatible(S, class_of)
    if not ok:
        return unmet(check, "not a congruence", tuple(zip("abc", w)))
    if not _quotient(S, class_of)._kind.is_monoid:
        return unmet(check, "quotient is not a monoid")
    return None


def verify_theorem1_converse(S: FiniteSemigroup, sigma: Congruence) -> CheckReport:
    """Every commutative monoid congruence arises from its own classes.

    Qualifying sigma (a congruence with commutative monoid quotient)
    must have medial classes, separator intersection equal to the
    identity class, and induce itself back via p_congruence.
    """
    check = "theorem1-converse"
    _check_ambient(S, sigma)
    class_of = sigma.class_of
    bad = _monoid_congruence(check, S, class_of)
    if bad is not None:
        return bad
    if not _quotient(S, class_of)._kind.is_commutative:
        return unmet(check, "quotient is not commutative")
    for i, bits in enumerate(_class_bits(class_of)):
        ok, w = _medial(S, bits)
        if not ok:
            return failed(check, (("i", i),) + tuple(zip("xaby", w)), f"class {i} not medial")
    return _induces_itself(check, S, class_of)


def _induces_itself(check: str, S: FiniteSemigroup, class_of: tuple[int, ...]) -> CheckReport:
    """The converses' last stages, on a monoid congruence: the classes'
    separators meet in the identity class, and the classes induce the
    partition back."""
    classes = _class_bits(class_of)
    ident = classes[_quotient(S, class_of)._kind.identity_class]
    common = _sep_common(S, classes)
    if common != ident:
        return failed(
            check,
            None,
            f"separator intersection {_format_mask(common)} differs from identity class "
            f"{_format_mask(ident)}",
        )
    induced = _context_class_of(S, classes)
    if induced != class_of:
        a, b = _first_disagreement(induced, class_of)
        return failed(check, (("a", a), ("b", b)), "induced congruence differs from input")
    return passed(check)


def _first_disagreement(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, int]:
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if (p[a] == p[b]) != (q[a] == q[b]):
                return a, b
    raise ValueError("partitions are equal")


def _separator_structure(check: str, S: FiniteSemigroup, T: int) -> CheckReport | None:
    """The corollaries' shared stages on the separator with mask T: the
    pass report when it is empty, a fail report when it is not a
    reflexive unitary subsemigroup."""
    if not T:
        return passed(check, "separator empty")
    ok, w = _subsemigroup(S, T)
    if not ok:
        return failed(check, tuple(zip("ab", w)), "separator not closed under product")
    ok, w = _reflexive(S, T)
    if not ok:
        return failed(check, tuple(zip("ab", w)), "separator not reflexive")
    w = _unitary(S, T)[2]
    if w is not None:
        return failed(check, tuple(zip("ab", w)), "separator not unitary")
    return None


def verify_corollary1(S: FiniteSemigroup, A: ElementSet) -> CheckReport:
    """The separator of a medial subset is empty or a reflexive unitary
    subsemigroup, and separating twice changes nothing."""
    check = "corollary1"
    _check_ambient(S, A)
    ok, w = _medial(S, A.bits)
    if not ok:
        return unmet(check, "subset not medial", tuple(zip("xaby", w)))
    T = _separator(S, A.bits)
    rep = _separator_structure(check, S, T)
    if rep is not None:
        return rep
    T2 = _separator(S, T)
    if T2 != T:
        return failed(
            check,
            (("x", _min_member(T2 ^ T)),),
            f"separator of {_format_mask(T)} is {_format_mask(T2)}, not itself",
        )
    return passed(check, f"separator {_format_mask(T)}")


def check_lemma1(S: FiniteSemigroup, A: ElementSet) -> CheckReport:
    """Separators are empty or closed under the product."""
    _check_ambient(S, A)
    T = _separator(S, A.bits)
    if not T:
        return passed("lemma1", "separator empty")
    ok, w = _subsemigroup(S, T)
    if not ok:
        return failed("lemma1", tuple(zip("ab", w)), "separator not closed")
    return passed("lemma1", f"separator {_format_mask(T)}")


def check_lemma2(S: FiniteSemigroup, A: ElementSet) -> CheckReport:
    """A nonempty separator sits wholly inside A or wholly outside it."""
    _check_ambient(S, A)
    bits = A.bits
    T = _separator(S, bits)
    if not T:
        return unmet("lemma2", "separator empty")
    inside = T & bits
    outside = T & ~bits
    if inside and outside:
        return failed(
            "lemma2",
            (("a", _min_member(inside)), ("b", _min_member(outside))),
            "separator straddles the subset boundary",
        )
    side = "subset" if inside else "complement"
    return passed("lemma2", f"separator within {side}")


def check_lemma3(S: FiniteSemigroup, A: ElementSet) -> CheckReport:
    """A subsemigroup is two-sided unitary exactly when it equals its
    own separator.

    The empty set is not a subsemigroup here, so it is reported
    precondition-unmet.  The convention is load-bearing: Sep(empty) is
    all of S and the empty set is vacuously unitary, so the lemma would
    fail on it.
    """
    _check_ambient(S, A)
    bits = A.bits
    ok, _ = _subsemigroup(S, bits)
    if not ok:
        return unmet("lemma3", "not a subsemigroup")
    T = _separator(S, bits)
    w = _unitary(S, bits)[2]
    unitary = w is None
    fixed = T == bits
    if unitary and not fixed:
        return failed(
            "lemma3", (("x", _min_member(T ^ bits)),),
            f"unitary but separator is {_format_mask(T)}",
        )
    if fixed and not unitary:
        return failed("lemma3", tuple(zip("ab", w)), "equals its separator but not unitary")
    return passed("lemma3", "unitary and fixed" if unitary else "neither side holds")
