import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    AmbientMismatch,
    ElementSet,
    PermutationIdentity,
    all_subsets,
    find_permutation_identity,
    format_permutation,
    identity_congruence,
    is_commutative,
    is_medial,
    lemma4_minimal_k,
    parse_permutation,
    power_set_chain,
    separator,
    universal_congruence,
    validate,
    word_product,
    verify_corollary2,
    verify_theorem2_converse,
    verify_theorem2_forward,
    WorkBudgetExceeded,
)
from sglab import core
from sglab.permutative import _search_seconds, _theorem2_forward


def pi(*images):
    return PermutationIdentity.of(images)


def eset(ambient, *members):
    return ElementSet.of(ambient, members)


class TestPermutationIdentityType:
    def test_valid(self):
        p = pi(1, 3, 2)
        assert (p.length, p.perm) == (3, (1, 3, 2))

    @pytest.mark.parametrize("images", [(1,), (1, 2), (1, 1, 2), (1, 4, 2), (2,)])
    def test_invalid(self, images):
        with pytest.raises(ValueError):
            PermutationIdentity.of(images)

    @pytest.mark.parametrize("images", [(2.0, 1.0), (1, 3.5, 2), ("2", "1")])
    def test_non_integer_images_are_refused_not_truncated(self, images):
        with pytest.raises(ValueError):
            PermutationIdentity.of(images)

    def test_numpy_integer_images_become_ints(self):
        p = PermutationIdentity.of(np.array([2, 1]))
        assert p.perm == (2, 1) and all(type(i) is int for i in p.perm)

    def test_literal_round_trip(self):
        p = parse_permutation("perm 2 1 3")
        assert p.perm == (2, 1, 3)
        assert format_permutation(p) == "perm 2 1 3"

    @pytest.mark.parametrize("text", ["2 1", "perm", "perm x y"])
    def test_bad_literals(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text)


class TestSatisfiesIdentity:
    def test_left_zero_swallows_middle_swap(self, lz2):
        from sglab import satisfies_identity

        assert satisfies_identity(lz2, pi(1, 3, 2)) == (True, None)
        # Another identity of the same length on the same table.
        assert satisfies_identity(lz2, pi(2, 1, 3)) == (False, (0, 1, 0))

    def test_left_zero_is_not_commutative(self, lz2):
        from sglab import satisfies_identity

        assert satisfies_identity(lz2, pi(2, 1)) == (False, (0, 1))

    def test_commutative_table(self, min2):
        from sglab import satisfies_identity

        assert satisfies_identity(min2, pi(2, 1)) == (True, None)

    def test_agrees_with_word_products(self, lz2mon):
        from sglab import satisfies_identity

        ident = pi(2, 1, 3)
        ok, w = satisfies_identity(lz2mon, ident)
        assert not ok
        lhs = word_product(lz2mon, list(w))
        rhs = word_product(lz2mon, [w[p - 1] for p in ident.perm])
        assert lhs != rhs


class TestFindPermutationIdentity:
    def test_commutative_finds_the_swap(self, z2):
        found = find_permutation_identity(z2, 2)
        assert (found.length, found.perm) == (2, (2, 1))

    def test_left_zero_needs_length_three(self, lz2):
        assert find_permutation_identity(lz2, 2) is None
        found = find_permutation_identity(lz2, 3)
        assert (found.length, found.perm) == (3, (1, 3, 2))

    def test_noncommutative_monoid_has_none(self, lz2mon):
        assert find_permutation_identity(lz2mon, 4) is None

    def test_bound_validated(self, z2):
        with pytest.raises(ValueError):
            find_permutation_identity(z2, 1)

    def test_early_identity_ignores_a_large_bound(self, lz2):
        found = find_permutation_identity(lz2, 40)
        assert (found.length, found.perm) == (3, (1, 3, 2))

    def test_search_stops_at_the_work_budget(self, lz2mon):
        # Estimated 0.9 s at length 8 and 18 s at length 9 for order 3.
        assert _search_seconds(3, 8) <= core._BUDGET_SECONDS < _search_seconds(3, 9)
        with pytest.raises(WorkBudgetExceeded, match="length-9 identity search"):
            find_permutation_identity(lz2mon, 40)
        assert max(lz2mon._memo["word_tensor"]) == 8

    def test_budget_leaves_default_searches_alone(self):
        # The sweep's and the query stream's lengths (up to 4) at orders
        # up to 6, and length 7 at order 3, cost well under a second.
        assert all(_search_seconds(order, 4) < 0.01 for order in range(1, 7))
        assert _search_seconds(3, 7) < 0.1

    def test_budget_error_pickles(self):
        e = WorkBudgetExceeded("the length-9 identity search", "about 18 s", "10 s")
        back = pickle.loads(pickle.dumps(e))
        assert str(back) == str(e) == (
            "the length-9 identity search needs about 18 s, over the budget of 10 s")
        assert (back.what, back.need, back.budget) == (e.what, e.need, e.budget)

    def test_found_identity_always_holds(self, catalog3):
        from sglab import satisfies_identity

        for S in catalog3:
            found = find_permutation_identity(S, 3)
            if found is not None:
                assert satisfies_identity(S, found) == (True, None)


def _middle_swap_holds_direct(S, k):
    """Pure-loop re-check of the exponent property, independent of the
    tensor implementation."""
    sk = power_set_chain(S).sets[k - 1]
    for u in sk:
        for x in range(S.order):
            for y in range(S.order):
                for v in sk:
                    if word_product(S, [u, x, y, v]) != word_product(S, [u, y, x, v]):
                        return False
    return True


class TestLemma4:
    def test_left_zero(self, lz2):
        assert lemma4_minimal_k(lz2).k == 1

    def test_commutative_gives_one(self, z2):
        assert lemma4_minimal_k(z2).k == 1

    def test_absent_with_counterexample(self, lz2mon):
        res = lemma4_minimal_k(lz2mon)
        assert res.k is None
        assert res.counterexamples == ((1, (0, 1, 2, 0)),)

    def test_commutative_catalog_always_k1(self, catalog3):
        for S in catalog3:
            if is_commutative(S)[0]:
                assert lemma4_minimal_k(S).k == 1

    def test_present_whenever_identity_found(self, catalog3):
        for S in catalog3:
            if find_permutation_identity(S, 4) is None:
                continue
            res = lemma4_minimal_k(S)
            assert res.k is not None
            assert _middle_swap_holds_direct(S, res.k)
            if res.k > 1:
                assert not _middle_swap_holds_direct(S, res.k - 1)

    def test_null_semigroup(self, n3):
        # Every product of two or more factors is the zero, so already
        # k = 1 works even though the chain keeps shrinking to {0}.
        res = lemma4_minimal_k(n3)
        assert res.k == 1
        assert [tuple(s) for s in res.chain.sets] == [(0, 1, 2), (0,)]


class TestTheorem2Forward:
    def test_full_set_family(self, lz2):
        rep = verify_theorem2_forward(lz2, [ElementSet.full(2)], pi(1, 3, 2))
        assert rep.status == "pass"

    def test_empty_set_family_on_right_zero(self, rz2):
        rep = verify_theorem2_forward(rz2, [ElementSet.empty(2)], pi(2, 1, 3))
        assert rep.status == "pass"

    def test_unwitnessed_identity_is_unmet(self, lz2mon):
        rep = verify_theorem2_forward(lz2mon, [eset(3, 0)], pi(2, 1))
        assert rep.status == "precondition-unmet"
        assert "does not hold" in rep.detail

    def test_empty_intersection_is_unmet(self, lz2):
        rep = verify_theorem2_forward(lz2, [eset(2, 0)], pi(1, 3, 2))
        assert rep.status == "precondition-unmet"

    def test_non_medial_sets_allowed_when_separator_empty(self, catalog3):
        # The strengthening over the medial-family theorem: arbitrary
        # subsets qualify, mediality is a consequence checked inside.
        for S in catalog3[::9]:
            w = find_permutation_identity(S, 4)
            if w is None:
                continue
            for A in all_subsets(S.order):
                rep = verify_theorem2_forward(S, [A], w)
                assert rep.status in ("pass", "precondition-unmet"), rep


    def test_masks_route_answers_as_the_sets_route(self, catalog3):
        # The sweep asks theorem 2 forward on its families' masks; the
        # public function checks the sets' ambient order and then gives
        # the same report on every two-set family of these tables.
        for S in catalog3[::7]:
            w = find_permutation_identity(S, 4)
            if w is None:
                continue
            subsets = list(all_subsets(S.order))
            for A in subsets:
                for B in subsets:
                    assert verify_theorem2_forward(S, [A, B], w) == _theorem2_forward(
                        S, [A.bits, B.bits], w)
        with pytest.raises(AmbientMismatch):
            verify_theorem2_forward(S, [eset(2, 0)], w)


class TestTheorem2Converse:
    def test_left_zero_universal(self, lz2):
        rep = verify_theorem2_converse(lz2, universal_congruence(2), pi(1, 3, 2))
        assert rep.status == "pass"

    def test_group_identity_congruence(self, z2):
        rep = verify_theorem2_converse(z2, identity_congruence(2), pi(2, 1))
        assert rep.status == "pass"

    def test_non_monoid_quotient_unmet(self, lz2):
        rep = verify_theorem2_converse(lz2, identity_congruence(2), pi(1, 3, 2))
        assert rep.status == "precondition-unmet"


class TestCorollary2:
    def test_empty_branch(self, lz2):
        rep = verify_corollary2(lz2, eset(2, 0), pi(1, 3, 2))
        assert rep.status == "pass" and "empty" in rep.detail

    def test_full_set(self, rz2):
        rep = verify_corollary2(rz2, ElementSet.full(2), pi(2, 1, 3))
        assert rep.status == "pass"

    def test_group_singleton(self, z2):
        rep = verify_corollary2(z2, eset(2, 1), pi(2, 1))
        assert rep.status == "pass" and "{0}" in rep.detail

    def test_unwitnessed_identity_is_unmet(self, lz2mon):
        rep = verify_corollary2(lz2mon, eset(3, 0), pi(2, 1))
        assert rep.status == "precondition-unmet"


@settings(max_examples=40)
@given(data=st.data())
def test_separated_subsets_of_permutative_semigroups_are_medial(data):
    tables = [
        [[0, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, 0], [1, 1]],
        [[0, 1], [0, 1]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    S = validate(data.draw(st.sampled_from(tables)))
    if find_permutation_identity(S, 4) is None:
        return
    mask = data.draw(st.integers(0, 2**S.order - 1))
    A = ElementSet.of(S.order, (e for e in range(S.order) if mask >> e & 1))
    if len(separator(S, A)) > 0:
        assert is_medial(S, A)[0]
