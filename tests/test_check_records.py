"""Every record each check can emit, pinned byte for byte.

The sweep never reaches a fail exit on a valid table, so its frozen
digests cannot see a changed fail record.  This table covers every
pass, precondition-unmet and fail exit of the nine checks, and the
pass and fail exits of the sweep's lemma 4 record.  Exits no valid
table reaches are forced by seeding the table's memo with a wrong
answer before the check runs: the verifiers read their analyses from
``S._memo`` (one dict per analysis kind, keyed by the subset's mask,
the partition's canonical ``class_of`` or the word length), so a seeded
entry stands in for a faulty analysis.
"""

from itertools import product

import numpy as np
import pytest

from sglab import (
    AmbientMismatch,
    Congruence,
    ElementSet,
    PermutationIdentity,
    QuotientSemigroup,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    identity_congruence,
    validate,
    verify_corollary1,
    verify_corollary2,
    verify_theorem1_converse,
    verify_theorem1_forward,
    verify_theorem2_converse,
    verify_theorem2_forward,
)
from sglab.permutative import _theorem2_forward
from sglab.sweep import _lemma4_report

Z2 = [[0, 1], [1, 0]]  # the group of order 2
MIN2 = [[0, 0], [0, 1]]  # the two-element semilattice: 0 is a zero, 1 the identity
LZ2 = [[0, 0], [1, 1]]  # left-zero band of order 2
LZ2MON = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]  # left-zero band with an identity adjoined
CHAIN3 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]  # the chain 0 < 1 < 2 under min
MAX3 = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]  # the chain under max: identity 0
NULL2 = [[0, 0], [0, 0]]  # no identity

SWAP = PermutationIdentity.of((2, 1))  # commutativity
MIDDLE = PermutationIdentity.of((1, 3, 2))  # holds in every left-zero band


def s(n, *members):
    return ElementSet.of(n, members)


def quotient_by(table, class_of):
    # A memoized quotient whose table is `table`, whatever S really gives.
    return QuotientSemigroup(validate(table), class_of)


def seed(kind, key, value):
    def plant(S):
        S._memo[kind][key] = value

    return plant


def seeds(*plants):
    def plant(S):
        for p in plants:
            p(S)

    return plant


NOT_A_CONGRUENCE = seed("congruence", (0, 1), (False, (0, 1, 0)))
NO_IDENTITY = seed("quotient", (0, 1), quotient_by(NULL2, (0, 1)))
NOT_COMMUTATIVE = seed("quotient", (0, 1, 2), quotient_by(LZ2MON, (0, 1, 2)))
OTHER_IDENTITY = seed("quotient", (0, 1, 2), quotient_by(MAX3, (0, 1, 2)))
NOT_CLOSED = seed("subsemigroup", 0b01, (False, (0, 0)))
NOT_REFLEXIVE = seed("reflexive", 0b01, (False, (0, 0)))
NOT_UNITARY = seed("unitary", 0b01, (None, None, (0, 1)))
CLASS_0_NOT_MEDIAL = seed("medial", 0b01, (False, (0, 1, 1, 0)))
SEPARATORS_MISS = seed("separator", 0b01, 0b10)
INDUCES_UNIVERSAL = seeds(seed("profile", 0b01, (0, 0)), seed("profile", 0b10, (0, 0)))

# (table, memo seed or None, check, expected record)
CASES = {
    # theorem 1, forward
    "t1f-pass": (Z2, None, lambda S: verify_theorem1_forward(S, [s(2, 0)]),
                 "check=theorem1-forward status=pass witness=- detail=identity class {0}"),
    "t1f-pass-empty-family": (
        Z2, None, lambda S: verify_theorem1_forward(S, []),
        "check=theorem1-forward status=pass witness=- detail=identity class {0,1}; "
        "empty family induces the universal relation"),
    "t1f-unmet-not-medial": (
        LZ2MON, None, lambda S: verify_theorem1_forward(S, [s(3, 1)]),
        "check=theorem1-forward status=precondition-unmet witness=x=0,a=1,b=2,y=0 "
        "detail=set 0 not medial"),
    "t1f-unmet-empty-intersection": (
        LZ2, None, lambda S: verify_theorem1_forward(S, [s(2, 0)]),
        "check=theorem1-forward status=precondition-unmet witness=- "
        "detail=intersection of separators is empty"),
    "t1f-fail-not-congruence": (
        Z2, NOT_A_CONGRUENCE, lambda S: verify_theorem1_forward(S, [s(2, 0)]),
        "check=theorem1-forward status=fail witness=a=0,b=1,c=0 "
        "detail=induced relation is not a congruence"),
    "t1f-fail-no-identity": (
        Z2, NO_IDENTITY, lambda S: verify_theorem1_forward(S, [s(2, 0)]),
        "check=theorem1-forward status=fail witness=- detail=quotient has no identity element"),
    "t1f-fail-not-commutative": (
        CHAIN3, NOT_COMMUTATIVE, lambda S: verify_theorem1_forward(S, [s(3, 1), s(3, 2)]),
        "check=theorem1-forward status=fail witness=a=1,b=2 "
        "detail=quotient not commutative (class ids)"),
    "t1f-fail-identity-class": (
        CHAIN3, OTHER_IDENTITY, lambda S: verify_theorem1_forward(S, [s(3, 1), s(3, 2)]),
        "check=theorem1-forward status=fail witness=x=0 "
        "detail=separator intersection {2} is not the identity class {0}"),
    "t1f-fail-splits-class": (
        Z2, seeds(seed("profile", 0b01, (0, 0)), seed("separator", 0b01, 0b11)),
        lambda S: verify_theorem1_forward(S, [s(2, 0)]),
        "check=theorem1-forward status=fail witness=i=0,a=0,b=1 "
        "detail=set 0 splits a congruence class"),
    # theorem 1, converse
    "t1c-pass": (Z2, None, lambda S: verify_theorem1_converse(S, identity_congruence(2)),
                 "check=theorem1-converse status=pass witness=-"),
    "t1c-unmet-not-congruence": (
        CHAIN3, None,
        lambda S: verify_theorem1_converse(S, Congruence.from_classes(3, [{0, 2}, {1}])),
        "check=theorem1-converse status=precondition-unmet witness=a=0,b=2,c=1 "
        "detail=not a congruence"),
    "t1c-unmet-not-monoid": (
        LZ2, None, lambda S: verify_theorem1_converse(S, identity_congruence(2)),
        "check=theorem1-converse status=precondition-unmet witness=- "
        "detail=quotient is not a monoid"),
    "t1c-unmet-not-commutative": (
        LZ2MON, None, lambda S: verify_theorem1_converse(S, identity_congruence(3)),
        "check=theorem1-converse status=precondition-unmet witness=- "
        "detail=quotient is not commutative"),
    "t1c-fail-class-not-medial": (
        Z2, CLASS_0_NOT_MEDIAL, lambda S: verify_theorem1_converse(S, identity_congruence(2)),
        "check=theorem1-converse status=fail witness=i=0,x=0,a=1,b=1,y=0 "
        "detail=class 0 not medial"),
    "t1c-fail-separators-miss-identity": (
        Z2, SEPARATORS_MISS, lambda S: verify_theorem1_converse(S, identity_congruence(2)),
        "check=theorem1-converse status=fail witness=- "
        "detail=separator intersection {} differs from identity class {0}"),
    "t1c-fail-induces-other": (
        Z2, INDUCES_UNIVERSAL, lambda S: verify_theorem1_converse(S, identity_congruence(2)),
        "check=theorem1-converse status=fail witness=a=0,b=1 "
        "detail=induced congruence differs from input"),
    # corollary 1
    "cor1-pass-empty": (LZ2, None, lambda S: verify_corollary1(S, s(2, 0)),
                        "check=corollary1 status=pass witness=- detail=separator empty"),
    "cor1-pass": (Z2, None, lambda S: verify_corollary1(S, s(2, 0)),
                  "check=corollary1 status=pass witness=- detail=separator {0}"),
    "cor1-unmet-not-medial": (
        LZ2MON, None, lambda S: verify_corollary1(S, s(3, 1)),
        "check=corollary1 status=precondition-unmet witness=x=0,a=1,b=2,y=0 "
        "detail=subset not medial"),
    "cor1-fail-not-closed": (
        Z2, NOT_CLOSED, lambda S: verify_corollary1(S, s(2, 0)),
        "check=corollary1 status=fail witness=a=0,b=0 detail=separator not closed under product"),
    "cor1-fail-not-reflexive": (
        Z2, NOT_REFLEXIVE, lambda S: verify_corollary1(S, s(2, 0)),
        "check=corollary1 status=fail witness=a=0,b=0 detail=separator not reflexive"),
    "cor1-fail-not-unitary": (
        Z2, NOT_UNITARY, lambda S: verify_corollary1(S, s(2, 0)),
        "check=corollary1 status=fail witness=a=0,b=1 detail=separator not unitary"),
    "cor1-fail-not-idempotent": (
        MIN2, seed("separator", 0b10, 0b11), lambda S: verify_corollary1(S, s(2, 0)),
        "check=corollary1 status=fail witness=x=0 detail=separator of {1} is {0,1}, not itself"),
    # lemmas 1-3
    "lemma1-pass-empty": (LZ2, None, lambda S: check_lemma1(S, s(2, 0)),
                          "check=lemma1 status=pass witness=- detail=separator empty"),
    "lemma1-pass": (Z2, None, lambda S: check_lemma1(S, s(2, 0)),
                    "check=lemma1 status=pass witness=- detail=separator {0}"),
    "lemma1-fail-not-closed": (
        Z2, NOT_CLOSED, lambda S: check_lemma1(S, s(2, 0)),
        "check=lemma1 status=fail witness=a=0,b=0 detail=separator not closed"),
    "lemma2-unmet": (LZ2, None, lambda S: check_lemma2(S, s(2, 0)),
                     "check=lemma2 status=precondition-unmet witness=- detail=separator empty"),
    "lemma2-pass-subset": (Z2, None, lambda S: check_lemma2(S, s(2, 0)),
                           "check=lemma2 status=pass witness=- detail=separator within subset"),
    "lemma2-pass-complement": (
        MIN2, None, lambda S: check_lemma2(S, s(2, 0)),
        "check=lemma2 status=pass witness=- detail=separator within complement"),
    "lemma2-fail-straddles": (
        Z2, seed("separator", 0b01, 0b11), lambda S: check_lemma2(S, s(2, 0)),
        "check=lemma2 status=fail witness=a=0,b=1 detail=separator straddles the subset boundary"),
    "lemma3-unmet": (Z2, None, lambda S: check_lemma3(S, s(2, 1)),
                     "check=lemma3 status=precondition-unmet witness=- detail=not a subsemigroup"),
    "lemma3-pass-fixed": (MIN2, None, lambda S: check_lemma3(S, s(2, 1)),
                          "check=lemma3 status=pass witness=- detail=unitary and fixed"),
    "lemma3-pass-neither": (MIN2, None, lambda S: check_lemma3(S, s(2, 0)),
                            "check=lemma3 status=pass witness=- detail=neither side holds"),
    "lemma3-fail-unitary-not-fixed": (
        MIN2, seed("separator", 0b10, 0b11), lambda S: check_lemma3(S, s(2, 1)),
        "check=lemma3 status=fail witness=x=0 detail=unitary but separator is {0,1}"),
    "lemma3-fail-fixed-not-unitary": (
        MIN2, seed("unitary", 0b10, (None, None, (1, 0))), lambda S: check_lemma3(S, s(2, 1)),
        "check=lemma3 status=fail witness=a=1,b=0 detail=equals its separator but not unitary"),
    # theorem 2, forward
    "t2f-pass": (Z2, None, lambda S: verify_theorem2_forward(S, [s(2, 0)], SWAP),
                 "check=theorem2-forward status=pass witness=- detail=identity class {0}"),
    "t2f-pass-empty-family": (
        Z2, None, lambda S: verify_theorem2_forward(S, [], SWAP),
        "check=theorem2-forward status=pass witness=- detail=identity class {0,1}"),
    "t2f-unmet-identity": (
        LZ2, None, lambda S: verify_theorem2_forward(S, [s(2, 0)], SWAP),
        "check=theorem2-forward status=precondition-unmet witness=x1=0,x2=1 "
        "detail=claimed identity perm 2 1 does not hold"),
    "t2f-unmet-empty-intersection": (
        LZ2, None, lambda S: verify_theorem2_forward(S, [s(2, 0)], MIDDLE),
        "check=theorem2-forward status=precondition-unmet witness=- "
        "detail=intersection of separators is empty"),
    "t2f-fail-not-medial": (
        Z2, CLASS_0_NOT_MEDIAL, lambda S: verify_theorem2_forward(S, [s(2, 0)], SWAP),
        "check=theorem2-forward status=fail witness=i=0,x=0,a=1,b=1,y=0 "
        "detail=set 0 has a nonempty separator but is not medial"),
    "t2f-fail-not-congruence": (
        Z2, NOT_A_CONGRUENCE, lambda S: verify_theorem2_forward(S, [s(2, 0)], SWAP),
        "check=theorem2-forward status=fail witness=a=0,b=1,c=0 "
        "detail=induced relation is not a congruence"),
    "t2f-fail-no-identity": (
        Z2, NO_IDENTITY, lambda S: verify_theorem2_forward(S, [s(2, 0)], SWAP),
        "check=theorem2-forward status=fail witness=- detail=quotient has no identity element"),
    "t2f-fail-not-commutative": (
        CHAIN3, NOT_COMMUTATIVE,
        lambda S: verify_theorem2_forward(S, [s(3, 1), s(3, 2)], SWAP),
        "check=theorem2-forward status=fail witness=- detail=quotient monoid not commutative; "
        "commutativity asserted beyond the monoid claim"),
    "t2f-fail-identity-class": (
        CHAIN3, OTHER_IDENTITY,
        lambda S: verify_theorem2_forward(S, [s(3, 1), s(3, 2)], SWAP),
        "check=theorem2-forward status=fail witness=x=0 "
        "detail=separator intersection {2} is not the identity class {0}"),
    # theorem 2, converse
    "t2c-pass": (Z2, None, lambda S: verify_theorem2_converse(S, identity_congruence(2), SWAP),
                 "check=theorem2-converse status=pass witness=-"),
    "t2c-unmet-identity": (
        LZ2, None, lambda S: verify_theorem2_converse(S, identity_congruence(2), SWAP),
        "check=theorem2-converse status=precondition-unmet witness=x1=0,x2=1 "
        "detail=claimed identity perm 2 1 does not hold"),
    "t2c-unmet-not-congruence": (
        CHAIN3, None,
        lambda S: verify_theorem2_converse(S, Congruence.from_classes(3, [{0, 2}, {1}]), SWAP),
        "check=theorem2-converse status=precondition-unmet witness=a=0,b=2,c=1 "
        "detail=not a congruence"),
    "t2c-unmet-not-monoid": (
        LZ2, None, lambda S: verify_theorem2_converse(S, identity_congruence(2), MIDDLE),
        "check=theorem2-converse status=precondition-unmet witness=- "
        "detail=quotient is not a monoid"),
    "t2c-fail-separators-miss-identity": (
        Z2, SEPARATORS_MISS,
        lambda S: verify_theorem2_converse(S, identity_congruence(2), SWAP),
        "check=theorem2-converse status=fail witness=- "
        "detail=separator intersection {} differs from identity class {0}"),
    "t2c-fail-induces-other": (
        Z2, INDUCES_UNIVERSAL,
        lambda S: verify_theorem2_converse(S, identity_congruence(2), SWAP),
        "check=theorem2-converse status=fail witness=a=0,b=1 "
        "detail=induced congruence differs from input"),
    # corollary 2
    "cor2-pass-empty": (LZ2, None, lambda S: verify_corollary2(S, s(2, 0), MIDDLE),
                        "check=corollary2 status=pass witness=- detail=separator empty"),
    "cor2-pass": (Z2, None, lambda S: verify_corollary2(S, s(2, 0), SWAP),
                  "check=corollary2 status=pass witness=- detail=separator {0}"),
    "cor2-unmet-identity": (
        LZ2, None, lambda S: verify_corollary2(S, s(2, 0), SWAP),
        "check=corollary2 status=precondition-unmet witness=x1=0,x2=1 "
        "detail=claimed identity perm 2 1 does not hold"),
    "cor2-fail-not-closed": (
        Z2, NOT_CLOSED, lambda S: verify_corollary2(S, s(2, 0), SWAP),
        "check=corollary2 status=fail witness=a=0,b=0 detail=separator not closed under product"),
    "cor2-fail-not-reflexive": (
        Z2, NOT_REFLEXIVE, lambda S: verify_corollary2(S, s(2, 0), SWAP),
        "check=corollary2 status=fail witness=a=0,b=0 detail=separator not reflexive"),
    "cor2-fail-not-unitary": (
        Z2, NOT_UNITARY, lambda S: verify_corollary2(S, s(2, 0), SWAP),
        "check=corollary2 status=fail witness=a=0,b=1 detail=separator not unitary"),
    # lemma 4, the sweep's record of lemma4_minimal_k.  The fail exit is
    # forced by a length-4 word tensor whose cells are all distinct, so
    # no exponent lets any middle pair swap.
    "lemma4-pass": (Z2, None, _lemma4_report, "check=lemma4 status=pass witness=- detail=k=1"),
    "lemma4-fail": (
        Z2, seed("word_tensor", 4, np.arange(16).reshape(2, 2, 2, 2)), _lemma4_report,
        "check=lemma4 status=fail witness=k=1,u=0,x=0,y=1,v=0 "
        "detail=no exponent works along the whole power chain"),
}


@pytest.mark.parametrize("case", CASES)
def test_record(case):
    table, plant, check, expected = CASES[case]
    S = validate(table)
    if plant is not None:
        plant(S)
    assert check(S).record() == expected


def test_every_check_and_status_is_covered():
    seen = {(e.split()[0], e.split()[1]) for *_, e in CASES.values()}
    checks = ("theorem1-forward", "theorem1-converse", "corollary1", "lemma1", "lemma2",
              "lemma3", "theorem2-forward", "theorem2-converse", "corollary2", "lemma4")
    for check in checks:
        assert (f"check={check}", "status=pass") in seen, check
        assert (f"check={check}", "status=fail") in seen, check


def test_a_theorem2_batch_answers_each_family_as_it_is_asked_alone():
    # The sweep asks theorem 2 forward on many families in one call.  On
    # each table the forward cases above plant, planted the same way,
    # and on the left-zero band with its full set planted not medial,
    # one batch of every family of 0-3 subsets under either identity
    # gives each family the record it gets when it is asked alone, of a
    # second table planted alike.  The batches mix passing, failing and
    # empty-intersection families, and some claim an identity that does
    # not hold.
    forced = [(table, plant) for case, (table, plant, _, _) in CASES.items()
              if case.startswith("t2f-")]
    forced.append((LZ2, seed("medial", 0b11, (False, (0, 0, 1, 0)))))
    mixes = set()
    for table, plant in forced:
        for ident in (SWAP, MIDDLE):
            S, T = validate(table), validate(table)
            if plant is not None:
                plant(S)
                plant(T)
            n = S.order
            families = [f for k in range(4) for f in product(range(1 << n), repeat=k)]
            batch = _theorem2_forward(S, families, ident)
            alone = [verify_theorem2_forward(T, [ElementSet._from_bits(n, b) for b in f], ident)
                     for f in families]
            assert [r.record() for r in batch] == [r.record() for r in alone], (table, ident)
            mixes.add(frozenset(r.status for r in batch))
    assert frozenset({"pass", "fail", "precondition-unmet"}) in mixes
    assert frozenset({"precondition-unmet"}) in mixes


# Each check handed an argument over 3 elements while S has 2.
WRONG_ORDER = {
    "theorem1-forward": lambda S: verify_theorem1_forward(S, [s(2, 0), s(3, 0)]),
    "theorem1-converse": lambda S: verify_theorem1_converse(S, identity_congruence(3)),
    "corollary1": lambda S: verify_corollary1(S, s(3, 0)),
    "lemma1": lambda S: check_lemma1(S, s(3, 0)),
    "lemma2": lambda S: check_lemma2(S, s(3, 0)),
    "lemma3": lambda S: check_lemma3(S, s(3, 0)),
    "theorem2-forward": lambda S: verify_theorem2_forward(S, [s(2, 0), s(3, 0)], SWAP),
    "theorem2-converse": lambda S: verify_theorem2_converse(S, identity_congruence(3), SWAP),
    "corollary2": lambda S: verify_corollary2(S, s(3, 0), SWAP),
}


@pytest.mark.parametrize("check", WRONG_ORDER)
def test_wrong_order_argument_is_refused(check):
    S = validate(Z2)
    with pytest.raises(AmbientMismatch) as e:
        WRONG_ORDER[check](S)
    assert (e.value.expected, e.value.got) == (2, 3)
