from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    AmbientMismatch,
    PermutationIdentity,
    Congruence,
    ElementSet,
    NotACongruence,
    SweepConfig,
    WorkBudgetExceeded,
    all_subsets,
    classify_quotient,
    enumerate_congruences,
    enumerate_semigroups,
    format_subset,
    identity_congruence,
    is_congruence,
    is_medial,
    p_congruence,
    p_congruence_pairwise,
    quotient,
    satisfies_identity,
    separator,
    universal_congruence,
    validate,
    verify_corollary1,
    verify_theorem1_converse,
    verify_theorem1_forward,
)
from sglab import congruences, core, subsets, sweep
from sglab.subsets import _np_mask
from sglab.sweep import _instance, _random_families


def eset(ambient, *members):
    return ElementSet.of(ambient, members)


class TestCongruenceForm:
    def test_canonicalizes_class_ids(self):
        c = Congruence(3, (7, 7, 2))
        assert c.class_of == (0, 0, 1)

    def test_from_classes(self):
        c = Congruence.from_classes(3, [{2}, {0, 1}])
        assert c.class_of == (0, 0, 1)
        assert [tuple(x) for x in c.classes()] == [(0, 1), (2,)]

    def test_from_classes_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Congruence.from_classes(2, [{0}, {0, 1}])
        with pytest.raises(ValueError):
            Congruence.from_classes(3, [{0}, {2}])

    def test_from_classes_rejects_an_empty_class(self):
        # An empty class is no block of a partition, wherever it stands.
        for parts in ([{0, 1, 2}, set()], [set(), {0, 1, 2}], [{0}, (), {1, 2}]):
            with pytest.raises(ValueError, match="is empty"):
                Congruence.from_classes(3, parts)

    def test_from_classes_names_a_non_index_element(self):
        with pytest.raises(ValueError, match="0.0 is not an element index"):
            Congruence.from_classes(3, [{0.0, 1}, {2}])
        c = Congruence.from_classes(3, [[np.int64(2)], [np.int8(0), np.uint16(1)]])
        assert c.class_of == (0, 0, 1)

    def test_length_must_match(self):
        with pytest.raises(ValueError):
            Congruence(3, (0, 0))

    def test_literal_lists_the_classes_by_id(self):
        # The literal from class masks against one formatted class set
        # at a time, over every partition of [0, 5).
        for rgs in congruences._rgs_strings(5):
            c = Congruence(5, rgs)
            want = ";".join(format_subset(x) for x in c.classes())
            assert c.literal() == want and repr(c) == f"Congruence(5, {want})"
        assert Congruence(4, (1, 0, 1, 2)).literal() == "{0,2};{1};{3}"

    def test_helpers(self):
        assert identity_congruence(3).class_of == (0, 1, 2)
        assert universal_congruence(3).class_of == (0, 0, 0)


class TestPCongruence:
    def test_context_separates_group_elements(self, z2):
        assert p_congruence(z2, [eset(2, 0)]).class_of == (0, 1)

    def test_left_zero_contexts_see_nothing(self, lz2):
        assert p_congruence(lz2, [eset(2, 0)]).class_of == (0, 0)

    def test_semilattice(self, min2):
        assert p_congruence(min2, [eset(2, 0)]).class_of == (0, 1)

    def test_degenerate_families_are_universal(self, chain3):
        n = chain3.order
        assert p_congruence(chain3, []).class_of == (0,) * n
        assert p_congruence(chain3, [ElementSet.empty(n)]).class_of == (0,) * n
        assert p_congruence(chain3, [ElementSet.full(n)]).class_of == (0,) * n
        both = [ElementSet.empty(n), ElementSet.full(n)]
        assert p_congruence(chain3, both).class_of == (0,) * n

    def test_empty_and_full_sets_beside_others_change_nothing(self, chain3):
        n = chain3.order
        alone = p_congruence(chain3, [eset(n, 0)])
        assert repr(alone) == "Congruence(3, {0};{1,2})"
        for extra in ([ElementSet.empty(n)], [ElementSet.full(n)], [ElementSet.full(n)] * 2):
            assert p_congruence(chain3, [eset(n, 0)] + extra) == alone

    def test_result_is_verified_congruence(self, catalog3):
        for S in catalog3[::11]:
            for A in all_subsets(S.order):
                got = p_congruence(S, [A])
                assert is_congruence(S, got) == (True, None)

    def test_congruence_even_for_non_medial_sets(self, lz2mon):
        # {1} is not medial here; the induced relation must still be
        # compatible on both sides.
        got = p_congruence(lz2mon, [eset(3, 1)])
        assert is_congruence(lz2mon, got) == (True, None)

    def test_ambient_mismatch(self, min2):
        with pytest.raises(AmbientMismatch):
            p_congruence(min2, [eset(3, 0)])

    def test_pairwise_route_agrees_on_samples(self, catalog3):
        for S in catalog3[::13]:
            for A in all_subsets(S.order):
                assert p_congruence(S, [A]) == p_congruence_pairwise(S, [A])


@settings(max_examples=60)
@given(data=st.data())
def test_enlarging_the_family_refines_the_partition(data):
    tables = [
        [[0, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, 1], [0, 1]],
        [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    S = validate(data.draw(st.sampled_from(tables)))
    n = S.order
    masks = st.integers(0, 2**n - 1)
    fam = [
        ElementSet.of(n, (e for e in range(n) if m >> e & 1))
        for m in data.draw(st.lists(masks, max_size=3))
    ]
    extra = [
        ElementSet.of(n, (e for e in range(n) if m >> e & 1))
        for m in data.draw(st.lists(masks, min_size=1, max_size=2))
    ]
    coarse = p_congruence(S, fam)
    fine = p_congruence(S, fam + extra)
    for a in range(n):
        for b in range(n):
            if fine.class_of[a] == fine.class_of[b]:
                assert coarse.class_of[a] == coarse.class_of[b]


def _pairwise(table, cls):
    """Compatibility by definition: the lexicographically first (a, b, c)
    with a and b in one class but a*c and b*c, or c*a and c*b, in two."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if a == b or cls[a] != cls[b]:
                continue
            for c in range(n):
                if cls[table[a][c]] != cls[table[b][c]] or cls[table[c][a]] != cls[table[c][b]]:
                    return False, (a, b, c)
    return True, None


class TestIsCongruence:
    def test_verdict_and_witness_are_the_pairwise_definitions(self, catalog2, catalog3, catalog4):
        # Every restricted growth string of every labeled table of order
        # up to 4, on fresh tables so the fixtures' memos stay empty.
        pairs = 0
        for T in catalog2 + catalog3 + catalog4:
            S = validate(T.table)
            for rgs in congruences._rgs_strings(S.order):
                assert is_congruence(S, Congruence(S.order, rgs)) == _pairwise(S.table, rgs)
                pairs += 1
        assert pairs == 52962

    def test_universal_always(self, z2):
        assert is_congruence(z2, universal_congruence(2)) == (True, None)

    def test_identity_always(self, lz2):
        assert is_congruence(lz2, identity_congruence(2)) == (True, None)

    def test_witness_triple(self, chain3):
        part = Congruence.from_classes(3, [{0, 2}, {1}])
        assert is_congruence(chain3, part) == (False, (0, 2, 1))

    def test_ambient_mismatch(self, z2):
        with pytest.raises(AmbientMismatch):
            is_congruence(z2, identity_congruence(3))

    def test_ambient_mismatch_names_the_congruence(self, z2, min2):
        with pytest.raises(AmbientMismatch) as e:
            verify_theorem1_converse(z2, identity_congruence(3))
        assert str(e.value) == "congruence lives over 3 elements, semigroup has 2"
        with pytest.raises(AmbientMismatch) as e:
            verify_corollary1(min2, eset(3, 0))
        assert str(e.value) == "subset lives over 3 elements, semigroup has 2"


class TestQuotient:
    def test_identity_partition_gives_copy(self, z2):
        Q = quotient(z2, identity_congruence(2))
        assert Q.quotient.table == z2.table
        assert Q.projection == (0, 1)

    def test_universal_partition_gives_point(self, min2):
        Q = quotient(min2, universal_congruence(2))
        assert Q.quotient.order == 1

    def test_chain_collapse(self, chain3, min2):
        Q = quotient(chain3, Congruence.from_classes(3, [{0, 1}, {2}]))
        assert Q.quotient == min2

    def test_rejects_incompatible_partition(self, chain3):
        with pytest.raises(NotACongruence):
            quotient(chain3, Congruence.from_classes(3, [{0, 2}, {1}]))

    def test_projection_is_homomorphism(self, catalog3):
        for S in catalog3[::7]:
            for c in enumerate_congruences(S):
                Q = quotient(S, c)
                pr = Q.projection
                for a in range(S.order):
                    for b in range(S.order):
                        assert pr[S.table[a][b]] == Q.quotient.table[pr[a]][pr[b]]

    def test_trusted_quotient_tables_pass_full_validation(self, catalog2, catalog3):
        # Quotient tables skip validation; every one of the catalog up to
        # order 3 must pass it anyway and come out as the same table.
        checked = 0
        for S in catalog2 + catalog3:
            for c in enumerate_congruences(S):
                Q = quotient(S, c).quotient
                assert type(Q.table) is tuple and all(type(row) is tuple for row in Q.table)
                assert all(type(v) is int for row in Q.table for v in row)
                full = validate(Q.table)
                assert full == Q and full.table == Q.table and full.order == Q.order
                checked += 1
        assert checked > 300


class TestClassifyQuotient:
    def test_group_quotient(self, z2):
        kind = classify_quotient(quotient(z2, identity_congruence(2)))
        assert kind == (True, True, 0)

    def test_left_zero_is_not_monoid(self, lz2):
        kind = classify_quotient(quotient(lz2, identity_congruence(2)))
        assert not kind.is_monoid and kind.identity_class is None

    def test_universal_quotient_is_trivial_monoid(self, lz2mon):
        kind = classify_quotient(quotient(lz2mon, universal_congruence(3)))
        assert kind.is_monoid and kind.is_commutative and kind.identity_class == 0

    def test_computed_once_per_quotient(self, chain3):
        Q = quotient(chain3, Congruence.from_classes(3, [{0, 1}, {2}]))
        assert classify_quotient(Q) is classify_quotient(Q)
        assert vars(Q)["_kind"] is classify_quotient(Q)


class TestEnumerateCongruences:
    def test_two_element_group(self, z2):
        assert [c.class_of for c in enumerate_congruences(z2)] == [(0, 0), (0, 1)]

    def test_chain_has_four_in_lex_order(self, chain3):
        got = [c.class_of for c in enumerate_congruences(chain3)]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)]

    def test_one_element(self):
        assert len(enumerate_congruences(validate([[0]]))) == 1

    def test_work_budget(self, monkeypatch):
        # Bell(n)*n*n cells at 80 ns each: order 11 is the largest
        # accepted, order 12 is refused before any partition exists.
        est = lambda n: congruences._bell(n) * n * n * congruences._PARTITION_CELL_SECONDS
        assert est(11) <= core._BUDGET_SECONDS < est(12)
        null = lambda n: validate([[0] * n for _ in range(n)])
        assert len(enumerate_congruences(null(7))) == 877
        null12 = null(12)

        def generated(n):
            raise AssertionError(f"a partition of order {n} was generated")

        monkeypatch.setattr(congruences, "_rgs_strings", generated)
        with pytest.raises(WorkBudgetExceeded, match="congruence search of an order-12 table"):
            enumerate_congruences(null12)

    def test_bell_counts_the_restricted_growth_strings(self):
        for n in range(1, 10):
            assert congruences._bell(n) == len(list(congruences._rgs_strings(n)))

    def test_null_semigroups_list_every_partition_in_lex_order(self):
        # Every partition of a null semigroup is a congruence, so each
        # call lists all restricted growth strings, Bell(n) of them.
        for n, bell in zip(range(1, 7), (1, 2, 5, 15, 52, 203)):
            S = validate([[0] * n for _ in range(n)])
            rgs = [
                a
                for a in product(range(n), repeat=n)
                if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))
            ]
            assert len(rgs) == bell
            for _ in range(2):
                assert [c.class_of for c in enumerate_congruences(S)] == rgs

    def test_all_partitions_filtered(self, catalog3):
        # 5 partitions of a 3-set; each congruence must verify, each
        # non-listed partition must not.
        for S in catalog3[::17]:
            listed = {c.class_of for c in enumerate_congruences(S)}
            universe = {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)}
            for part in universe:
                ok, _ = is_congruence(S, Congruence(3, part))
                assert ok == (part in listed)


class TestTheorem1Forward:
    def test_group_singleton(self, z2):
        rep = verify_theorem1_forward(z2, [eset(2, 0)])
        assert rep.status == "pass"
        assert "identity class {0}" in rep.detail

    def test_identity_class_need_not_be_the_input(self, min2):
        rep = verify_theorem1_forward(min2, [eset(2, 0)])
        assert rep.status == "pass"
        assert "identity class {1}" in rep.detail

    def test_non_medial_is_unmet_with_witness(self, lz2mon):
        rep = verify_theorem1_forward(lz2mon, [eset(3, 1)])
        assert rep.status == "precondition-unmet"
        assert rep.witness == (("x", 0), ("a", 1), ("b", 2), ("y", 0))

    def test_empty_separator_intersection_is_unmet(self, lz2):
        rep = verify_theorem1_forward(lz2, [eset(2, 0)])
        assert rep.status == "precondition-unmet"
        assert "empty" in rep.detail

    def test_empty_family_passes_and_is_flagged(self, chain3):
        rep = verify_theorem1_forward(chain3, [])
        assert rep.status == "pass"
        assert "empty family" in rep.detail

    def test_holds_for_all_qualifying_singletons(self, catalog2, catalog3):
        for S in catalog2 + catalog3:
            for A in all_subsets(S.order):
                rep = verify_theorem1_forward(S, [A])
                assert rep.status in ("pass", "precondition-unmet"), rep


class TestTheorem1Converse:
    def test_group_identity_congruence(self, z2):
        assert verify_theorem1_converse(z2, identity_congruence(2)).status == "pass"

    def test_universal_is_trivially_fine(self, min2):
        assert verify_theorem1_converse(min2, universal_congruence(2)).status == "pass"

    def test_non_monoid_quotient_unmet(self, lz2):
        rep = verify_theorem1_converse(lz2, identity_congruence(2))
        assert rep.status == "precondition-unmet"
        assert "monoid" in rep.detail

    def test_non_congruence_unmet(self, chain3):
        rep = verify_theorem1_converse(chain3, Congruence.from_classes(3, [{0, 2}, {1}]))
        assert rep.status == "precondition-unmet"
        assert rep.witness == (("a", 0), ("b", 2), ("c", 1))

    def test_noncommutative_monoid_quotient_unmet(self, lz2mon):
        rep = verify_theorem1_converse(lz2mon, identity_congruence(3))
        assert rep.status == "precondition-unmet"
        assert "commutative" in rep.detail

    def test_holds_for_all_qualifying_congruences(self, catalog2, catalog3):
        for S in catalog2 + catalog3:
            for sigma in enumerate_congruences(S):
                rep = verify_theorem1_converse(S, sigma)
                assert rep.status in ("pass", "precondition-unmet"), rep


class TestCorollary1:
    def test_group(self, z2):
        rep = verify_corollary1(z2, eset(2, 0))
        assert rep.status == "pass" and "{0}" in rep.detail

    def test_semilattice(self, min2):
        assert verify_corollary1(min2, eset(2, 0)).status == "pass"

    def test_empty_separator_branch(self, lz2):
        rep = verify_corollary1(lz2, eset(2, 0))
        assert rep.status == "pass" and "empty" in rep.detail

    def test_non_medial_unmet(self, lz2mon):
        rep = verify_corollary1(lz2mon, eset(3, 1))
        assert rep.status == "precondition-unmet"


def test_split_pair_names_the_first_split_class():
    # theorem1-forward's last stage builds this witness only on failure,
    # which no catalog table reaches.
    from sglab.congruences import _split_pair

    assert _split_pair(0b101, (0, 0, 1)) == (0, 1)
    assert _split_pair(0b0110, (0, 1, 0, 1)) == (1, 3)


# Each memo kind, its key for the order-2 group's set {0}, partition
# into singletons or commutativity, and the route that asks it.
MEMO_ROUTES = {
    "separator": (0b01, lambda S: subsets._separator(S, 0b01)),
    "medial": (0b01, lambda S: subsets._medial(S, 0b01)),
    "reflexive": (0b01, lambda S: subsets._reflexive(S, 0b01)),
    "unitary": (0b01, lambda S: subsets._unitary(S, 0b01)),
    "subsemigroup": (0b01, lambda S: subsets._subsemigroup(S, 0b01)),
    "profile": (0b01, lambda S: congruences._profile(S, 0b01)),
    "congruence": ((0, 1), lambda S: congruences._compatible(S, (0, 1))),
    "quotient": ((0, 1), lambda S: congruences._quotient(S, (0, 1))),
    "identity": ((2, 1), lambda S: satisfies_identity(S, PermutationIdentity.of((2, 1)))),
    "word_tensor": (1, lambda S: S.word_tensor(1)),
}

# The word-tensor lengths a kind's computation leaves in the memo: each
# length is built from the one below it.
TENSOR_LENGTHS = {"medial": {1, 2, 3, 4}, "profile": {1, 2, 3}, "identity": {1, 2}}


class TestMemo:
    @pytest.mark.parametrize("kind", sorted(MEMO_ROUTES))
    def test_each_accessor_reads_and_fills_its_own_kind(self, kind):
        key, ask = MEMO_ROUTES[kind]
        # A miss computes the answer and stores it under this key alone,
        # beside the word tensors it read; a quotient is built once its
        # partition is judged a congruence.
        fresh = validate([[0, 1], [1, 0]])
        answer = ask(fresh)
        beside = {"congruence": {key: (True, None)}} if kind == "quotient" else {}
        if kind in TENSOR_LENGTHS:
            beside["word_tensor"] = fresh._memo["word_tensor"]
            assert set(beside["word_tensor"]) == TENSOR_LENGTHS[kind]
        assert dict(fresh._memo) == {kind: {key: answer}, **beside}
        # A hit returns the planted answer; with the table gone, any
        # computation would raise.
        seeded = validate([[0, 1], [1, 0]])
        sentinel = object()
        seeded._memo[kind][key] = sentinel
        object.__setattr__(seeded, "table", None)
        assert ask(seeded) is sentinel
        assert dict(seeded._memo) == {kind: {key: sentinel}}

    def test_failed_quotient_accessor_stores_nothing(self, chain3):
        for _ in range(2):
            with pytest.raises(NotACongruence):
                congruences._quotient(chain3, (0, 1, 0))
        assert chain3._memo["quotient"] == {}

    def test_quotient_of_non_congruence_raises_every_time(self, chain3):
        part = Congruence.from_classes(3, [{0, 2}, {1}])
        for _ in range(3):
            with pytest.raises(NotACongruence):
                quotient(chain3, part)
        assert part.class_of not in chain3._memo.get("quotient", {})

    def test_repeated_quotient_and_classification_agree(self, chain3):
        part = Congruence.from_classes(3, [{0, 1}, {2}])
        first = quotient(chain3, part)
        assert quotient(chain3, part) == first
        assert classify_quotient(first) == classify_quotient(quotient(validate(chain3.table), part))

    def test_one_off_queries_intern_no_set(self, lz2mon):
        # pcong and medial (with its witness search) read a throwaway
        # numpy mask and keep only answers on the table, never a set.
        A, B = eset(3, 1), eset(3, 0, 2)
        fresh = validate(lz2mon.table)
        sigma, medial = p_congruence(fresh, [A, B]), is_medial(fresh, A)
        assert medial[0] is False
        assert not any(isinstance(v, ElementSet) for m in fresh._memo.values() for v in m.values())
        held = validate(lz2mon.table)
        for X in all_subsets(3):
            separator(held, X)
        assert (p_congruence(held, [A, B]), is_medial(held, A)) == (sigma, medial)
        assert _np_mask(held, A.bits).tolist() == [x in A for x in range(3)]

    def test_instance_checks_keep_the_memo_bounded(self):
        # The null semigroup of order 4 is permutative, so every check
        # group runs on it, random multi-set families included.
        S = next(enumerate_semigroups(4))
        cfg = SweepConfig(random_families=20)
        records = {group: _instance(replace(cfg, theorem=group), 4, 0, S)[0].splitlines()
                   for group in sweep.THEOREM_GROUPS}
        assert any("check=theorem2-forward" in line for line in records["2"])
        bell4 = 15
        subset_kinds = {"separator", "medial", "profile", "subsemigroup", "unitary", "reflexive"}
        partition_kinds = {"congruence", "quotient"}
        # Every kind the sweep asks is listed here, so a new one cannot go
        # unchecked: the nine analyses of the table, its word tensors and
        # the sweep's own rendered records.  A partition's class masks
        # never read the table, so none is here.
        kinds = dict(S._memo)
        assert set(kinds) == subset_kinds | partition_kinds | {"identity", "word_tensor", "plan"}
        # One plan per theorem group, each check rendered once per mask,
        # partition or whole table: every record of the instance but its
        # random families.
        plans = kinds.pop("plan")
        assert set(plans) == set(sweep.THEOREM_GROUPS)
        for group, plan in plans.items():
            rendered = [r for step in plan.steps if step is not None for r in step[1]]
            assert all(len(r.texts) <= 2**4 + bell4 for r in rendered), group
            randoms = cfg.random_families if group in ("all", "2") else 0
            assert sum(plan.tally) == sum(len(r.texts) for r in rendered)
            assert sum(plan.tally) == len(records[group]) - randoms, group
        assert {r.check for step in plans["all"].steps if step is not None
                for r in step[1]} == set(sweep._CHECKS)
        for kind, entries in kinds.items():
            assert entries, f"the sweep never asked {kind}"
            if kind in subset_kinds:
                # Bare masks, never a (kind, arg) tuple or a family.
                assert all(type(a) is int and 0 <= a < 2**4 for a in entries), kind
                assert len(entries) <= 2**4, kind
            elif kind in partition_kinds:
                assert all(
                    type(a) is tuple and len(a) == 4 and all(type(c) is int for c in a)
                    for a in entries
                ), kind
                assert len(entries) <= bell4, kind
            elif kind == "word_tensor":
                # Keyed by length, up to the identity search's bound.
                assert set(entries) == {1, 2, 3, 4}
            else:
                assert all(type(a) is tuple and all(type(p) is int for p in a) for a in entries)
            for value in entries.values():
                # Answers only: no stored error.
                assert not isinstance(value, BaseException), kind


def test_class_masks_are_the_classes_of_every_partition():
    # The cached masks of every restricted growth string of orders 1-4
    # are its classes by definition, and Congruence reads them.
    for n in range(1, 5):
        for class_of in congruences._rgs_strings(n):
            parts = [[x for x in range(n) if class_of[x] == c] for c in range(max(class_of) + 1)]
            masks = congruences._class_bits(class_of)
            assert masks == tuple(sum(1 << x for x in part) for part in parts)
            assert all(type(C) is int for C in masks)
            sigma = Congruence(n, class_of)
            assert sigma.classes() == tuple(ElementSet(n, part) for part in parts)
            assert sigma.literal() == ";".join("{" + ",".join(map(str, p)) + "}" for p in parts)


def _pairwise_congruences(table):
    # The pairwise definition over every restricted growth string.
    return [rgs for rgs in congruences._rgs_strings(len(table)) if _pairwise(table, rgs)[0]]


class TestBellFilter:
    def test_equals_the_pairwise_loop(self, catalog2, catalog3, catalog4, order5, order6):
        for S in catalog2 + catalog3 + catalog4 + order5 + order6:
            got = [c.class_of for c in enumerate_congruences(validate(S.table))]
            assert got == _pairwise_congruences(S.table)

    def test_blocks_above_order_seven(self, order8):
        # Bell(8) = 4140 partitions take two blocks; every one is a
        # congruence of the null semigroup, in lex order across blocks.
        null8 = validate([[0] * 8 for _ in range(8)])
        every = list(congruences._rgs_strings(8))
        assert len(every) == 4140 > congruences._PARTITION_BLOCK
        assert [c.class_of for c in enumerate_congruences(null8)] == every
        got = [c.class_of for c in enumerate_congruences(validate(order8.table))]
        assert got == _pairwise_congruences(order8.table)

    def test_agrees_with_is_congruence_and_memoizes_nothing(self, catalog3, order5):
        for T in catalog3[::11] + order5:
            S = validate(T.table)
            found = {c.class_of for c in enumerate_congruences(S)}
            assert dict(S._memo) == {}
            # Every partition is then answered by is_congruence's own loop.
            for rgs in congruences._rgs_strings(S.order):
                assert is_congruence(S, Congruence(S.order, rgs))[0] == (rgs in found)


def _least_relation(n, pairs, table=()):
    """Canonical class ids of the least equivalence on [0, n) relating
    every pair, by union-find; given a table, also closed under left and
    right multiplication, so the least congruence holding the pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = list(pairs)
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        # x and y now share a class, so each product with them must too.
        for row in table:
            pending.append((row[x], row[y]))
        for c in range(len(table)):
            pending.append((table[x][c], table[y][c]))
    ids = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(n))


def _freese_congruences(S):
    """Every congruence as a join of principal congruences Cg(a, b), after
    Freese, "Computing congruences efficiently" (Algebra Universalis 2008):
    the joins of the principal congruences, the empty join included, are
    all the congruences.  Joins of congruences are joins of equivalences."""
    n, t = S.order, S.table

    def pairs(class_of):
        return [(x, class_of.index(c)) for x, c in enumerate(class_of)]

    principal = {_least_relation(n, [(a, b)], t) for a in range(n) for b in range(a + 1, n)}
    found = {tuple(range(n))}
    for p in principal:
        found |= {_least_relation(n, pairs(q) + pairs(p)) for q in found}
    return sorted(found)


class TestFreeseRoute:
    def test_principal_congruence_of_a_chain(self, chain3):
        # Relating 0 and 2 forces min(0, 1) = 0 ~ 1 = min(2, 1).
        assert _least_relation(3, [(0, 2)], chain3.table) == (0, 0, 0)
        assert _least_relation(3, [(1, 2)], chain3.table) == (0, 1, 1)
        assert _least_relation(3, [(0, 2)]) == (0, 1, 0)

    def test_equals_the_bell_filter(self, order5, order6, order8):
        classes = [S for n in range(1, 5) for S in enumerate_semigroups(n, up_to_iso=True)]
        assert len(classes) == 218
        for S in classes + order5 + order6 + [order8]:
            assert _freese_congruences(S) == [c.class_of for c in enumerate_congruences(S)]

    def test_chain_of_order_nine(self):
        # A chain's congruences are its 2**8 partitions into intervals.
        chain9 = validate([[min(a, b) for b in range(9)] for a in range(9)])
        got = [c.class_of for c in enumerate_congruences(chain9)]
        assert len(got) == 256 and _freese_congruences(chain9) == got


def test_only_core_touches_the_memo():
    src = Path(congruences.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if "_memo" in p.read_text()) == ["core.py"]


def _congruence_class_families(catalog):
    for S in catalog:
        for sigma in enumerate_congruences(S):
            yield S, sigma.classes()


def _random_multi_set_families(catalog):
    cfg = SweepConfig(random_families=20, seed=11)
    for idx, S in enumerate(catalog):
        for masks in _random_families(cfg, S.order, idx):
            yield S, tuple(ElementSet._from_bits(S.order, bits) for bits in masks)


def _all_two_set_families(catalog):
    for S in catalog:
        subsets = list(all_subsets(S.order))
        for i, A in enumerate(subsets):
            for B in subsets[i + 1 :]:
                yield S, (A, B)


@pytest.mark.parametrize(
    "families", [_congruence_class_families, _random_multi_set_families, _all_two_set_families]
)
def test_profile_and_pairwise_routes_agree_on_multi_set_families(families, catalog2, catalog3):
    checked = 0
    for S, fam in families(catalog2 + catalog3):
        assert p_congruence(S, fam) == p_congruence_pairwise(S, fam), (S.table, fam)
        checked += 1
    assert checked > 0
