import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    AmbientMismatch,
    ElementSet,
    all_subsets,
    classify_quotient,
    enumerate_semigroups,
    format_subset,
    idealizer,
    is_commutative,
    is_medial,
    is_reflexive,
    is_subsemigroup,
    is_unitary,
    p_congruence,
    parse_subset,
    quotient,
    separator,
    validate,
    word_product,
)
from sglab.core import _first_true
from sglab.subsets import _np_mask


def eset(ambient, *members):
    return ElementSet.of(ambient, members)


class TestIdealizer:
    def test_min2_singletons(self, min2):
        assert tuple(idealizer(min2, eset(2, 1))) == (1,)
        assert tuple(idealizer(min2, eset(2, 0))) == (0, 1)

    def test_empty_subset_is_vacuous(self, lz2mon):
        assert tuple(idealizer(lz2mon, ElementSet.empty(3))) == (0, 1, 2)

    def test_matches_definition_by_brute_force(self, catalog3):
        for S in catalog3[::7]:
            for A in all_subsets(S.order):
                got = idealizer(S, A).members
                want = {
                    x
                    for x in range(S.order)
                    if all(S.table[x][a] in A and S.table[a][x] in A for a in A)
                }
                assert got == want

    def test_ambient_mismatch(self, min2):
        with pytest.raises(AmbientMismatch):
            idealizer(min2, eset(3, 0))


class TestSeparator:
    def test_examples(self, min2, z2, lz2):
        assert tuple(separator(min2, eset(2, 0))) == (1,)
        assert tuple(separator(z2, eset(2, 0))) == (0,)
        assert tuple(separator(lz2, eset(2, 0))) == ()

    def test_empty_and_full_get_everything(self, lz2mon):
        assert tuple(separator(lz2mon, ElementSet.empty(3))) == (0, 1, 2)
        assert tuple(separator(lz2mon, ElementSet.full(3))) == (0, 1, 2)

    def test_complement_duality(self, catalog3):
        for S in catalog3[::5]:
            for A in all_subsets(S.order):
                assert separator(S, A) == separator(S, A.complement())


class TestMedial:
    def test_commutative_subsets_always_medial(self, z2):
        assert is_medial(z2, eset(2, 0)) == (True, None)

    def test_left_zero_subsets_medial(self, lz2):
        assert is_medial(lz2, eset(2, 0)) == (True, None)

    def test_witness_is_lex_first(self, lz2mon):
        ok, w = is_medial(lz2mon, eset(3, 1))
        assert not ok and w == (0, 1, 2, 0)

    def test_every_subset_of_commutative_semigroup_is_medial(self, catalog3):
        for S in catalog3:
            if not is_commutative(S)[0]:
                continue
            for A in all_subsets(S.order):
                assert is_medial(S, A)[0]


class TestReflexive:
    def test_examples(self, z2, lz2):
        assert is_reflexive(z2, eset(2, 0)) == (True, None)
        assert is_reflexive(lz2, eset(2, 0)) == (False, (0, 1))

    def test_full_set_trivially_reflexive(self, lz2mon):
        assert is_reflexive(lz2mon, ElementSet.full(3)) == (True, None)


class TestUnitary:
    def test_examples(self, min2, z2):
        assert is_unitary(min2, eset(2, 1), "both") == (True, None)
        assert is_unitary(min2, eset(2, 0), "both") == (False, (0, 1))
        assert is_unitary(z2, eset(2, 0), "both") == (True, None)

    def test_sides_differ_on_chiral_table(self, rz2):
        # Right-zero: a*b = b, so the left condition can only fire when b
        # is already inside; the right one fails because b*a = a never
        # leaves U no matter what b is.
        U = eset(2, 0)
        assert is_unitary(rz2, U, "left") == (True, None)
        assert is_unitary(rz2, U, "right") == (False, (0, 1))
        assert is_unitary(rz2, U, "both") == (False, (0, 1))

    def test_bad_side_rejected(self, min2):
        with pytest.raises(ValueError):
            is_unitary(min2, eset(2, 0), "middle")

    def test_both_is_conjunction(self, catalog3):
        for S in catalog3[::9]:
            for A in all_subsets(S.order):
                both = is_unitary(S, A, "both")[0]
                assert both == (is_unitary(S, A, "left")[0] and is_unitary(S, A, "right")[0])


class TestSubsemigroup:
    def test_examples(self, min2, z2):
        assert is_subsemigroup(min2, eset(2, 1)) == (True, None)
        assert is_subsemigroup(z2, eset(2, 1)) == (False, (1, 1))

    def test_empty_is_not(self, min2):
        assert is_subsemigroup(min2, ElementSet.empty(2)) == (False, None)


@given(data=st.data())
def test_separator_never_maps_across_boundary(data):
    tables = [
        [[0, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, 0], [1, 1]],
        [[0, 1], [0, 1]],
        [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    S = validate(data.draw(st.sampled_from(tables)))
    mask = data.draw(st.integers(0, 2**S.order - 1))
    A = ElementSet.of(S.order, (e for e in range(S.order) if mask >> e & 1))
    for x in separator(S, A):
        for a in range(S.order):
            assert (S.table[x][a] in A) == (a in A)
            assert (S.table[a][x] in A) == (a in A)


class TestSubsetLiterals:
    @pytest.mark.parametrize("text,members", [("{0,2}", (0, 2)), ("{}", ()), ("1", (1,)), ("{ 0 }", (0,))])
    def test_parse(self, text, members):
        A = parse_subset(text, 3)
        assert tuple(A) == members

    def test_format_round_trip(self):
        A = eset(4, 3, 1)
        assert format_subset(A) == "{1,3}"
        assert parse_subset(format_subset(A), 4) == A

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_subset("{a}", 3)

    def test_parse_rejects_out_of_range(self):
        from sglab import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            parse_subset("{9}", 3)


def _idealizer_by_definition(S, A):
    n = range(S.order)
    return {x for x in n if all(S.table[x][a] in A and S.table[a][x] in A for a in A)}


def _separator_by_definition(S, A):
    n = range(S.order)
    return {
        x for x in n if all((S.table[x][a] in A) == (a in A) == (S.table[a][x] in A) for a in n)
    }


def _medial_by_definition(S, A):
    # Lexicographically first (x, a, b, y) with xaby in A but xbay outside.
    n = range(S.order)
    for x, a, b, y in itertools.product(n, n, n, n):
        if word_product(S, [x, a, b, y]) in A and word_product(S, [x, b, a, y]) not in A:
            return False, (x, a, b, y)
    return True, None


def _subsemigroup_by_definition(S, A):
    # First (a, b) of A x A, in ascending order, whose product leaves A.
    inside = sorted(A.members)
    if not inside:
        return False, None
    for a, b in itertools.product(inside, inside):
        if S.table[a][b] not in A.members:
            return False, (a, b)
    return True, None


def _reflexive_by_definition(S, A):
    n = range(S.order)
    for a, b in itertools.product(n, n):
        if S.table[a][b] in A.members and S.table[b][a] not in A.members:
            return False, (a, b)
    return True, None


def _unitary_by_definition(S, U, side):
    n = range(S.order)
    for a, b in itertools.product(n, n):
        if a not in U.members or b in U.members:
            continue
        left = S.table[a][b] in U.members
        right = S.table[b][a] in U.members
        if {"left": left, "right": right, "both": left or right}[side]:
            return False, (a, b)
    return True, None


def _adjoin(S, zero):
    # S with a new element n adjoined as a zero or as an identity.
    n = S.order
    rows = [list(row) + [n if zero else a] for a, row in enumerate(S.table)]
    rows.append([n if zero else b for b in range(n)] + [n])
    return validate(rows)


def _direct_product(S, T):
    m = T.order
    cells = [(a, b) for a in range(S.order) for b in range(m)]
    return validate([[S.table[a][c] * m + T.table[b][d] for c, d in cells] for a, b in cells])


def _larger_tables(catalog2, catalog3):
    # Orders 5 and 6, so the bit loops run past four bits: order-3
    # tables with a zero and then an identity adjoined, and direct
    # products of order-2 tables with order-3 tables and with the left-
    # and right-zero pairs with an identity adjoined (the products with
    # those three catalog tables have only medial subsets).
    order5 = [_adjoin(_adjoin(S, True), False) for S in catalog3[::23]]
    bands = [_adjoin(B, False) for B in catalog2[3:5]]
    order6 = [_direct_product(S, T) for S in catalog2[1::3] for T in catalog3[5::37] + bands]
    return [S.table for S in order5 + order6]


_MEDIAL_MIX: dict = {}


def _medial_mix(table):
    """Masks of the first medial subset other than the empty and the full
    set and of the first non-medial subset (None where there is none),
    found on the whole length-4 tensor rather than on linked pairs."""
    if table not in _MEDIAL_MIX:
        n = len(table)
        w4 = validate(table).word_tensor(4)
        found = {True: None, False: None}
        for mask in range(1, 2**n - 1):
            inside = ((mask >> w4) & 1).astype(bool)
            medial = not (inside & ~inside.swapaxes(1, 2)).any()
            if found[medial] is None:
                found[medial] = mask
        _MEDIAL_MIX[table] = (found[True], found[False])
    return _MEDIAL_MIX[table]


def test_larger_tables_have_medial_and_non_medial_subsets(catalog2, catalog3):
    # The hypothesis test below appends both masks of every larger table,
    # so the linked-pair route answers both ways past four bits.
    for order in (5, 6):
        tables = [t for t in _larger_tables(catalog2, catalog3) if len(t) == order]
        mixes = [_medial_mix(t) for t in tables]
        assert any(medial is not None for medial, _ in mixes), order
        assert any(non_medial is not None for _, non_medial in mixes), order


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoized_analyses_match_their_definitions(data, catalog2, catalog3):
    # A fresh table for every example, asked about its subsets in a drawn
    # order (all of them up to order 3, a drawn handful at orders 5 and 6
    # plus one medial and one non-medial subset where the table has them):
    # each subset's first call is a memo miss on a memo that already holds
    # other subsets, the repeat is a hit, and the equal but fresh table
    # misses again.
    if data.draw(st.booleans(), label="larger"):
        table = data.draw(st.sampled_from(_larger_tables(catalog2, catalog3)))
        masks = data.draw(
            st.lists(st.integers(0, 2 ** len(table) - 1), min_size=1, max_size=6, unique=True)
        )
        masks += [m for m in _medial_mix(table) if m is not None and m not in masks]
    else:
        table = data.draw(st.sampled_from([S.table for S in catalog2 + catalog3]))
        masks = data.draw(st.permutations(range(2 ** len(table))))
    S = validate(table)
    for mask in masks:
        A = ElementSet.of(S.order, (e for e in range(S.order) if mask >> e & 1))
        want = (
            _separator_by_definition(S, A),
            _idealizer_by_definition(S, A),
            _medial_by_definition(S, A),
            _subsemigroup_by_definition(S, A),
            _reflexive_by_definition(S, A),
            {side: _unitary_by_definition(S, A, side) for side in ("left", "right", "both")},
        )
        for T in (S, S, validate(S.table)):
            sep = separator(T, A)
            assert sep.members == want[0]
            assert idealizer(T, A).members == want[1]
            assert is_medial(T, A) == want[2]
            assert is_subsemigroup(T, A) == want[3]
            assert is_reflexive(T, A) == want[4]
            for side, w in want[5].items():
                assert is_unitary(T, A, side) == w, side


def test_mediality_is_commutativity_of_the_induced_quotient():
    # A second route: A is medial exactly when a*b and b*a share every
    # two-sided context x*_*y into A, that is when the quotient by the
    # congruence A induces is commutative.  On each failing tensor the
    # witness helper gives np.argwhere's first index.
    pairs = witnesses = 0
    for n in range(1, 5):
        for S in enumerate_semigroups(n):
            for A in all_subsets(n):
                medial = is_medial(S, A)[0]
                Q = quotient(S, p_congruence(S, [A]))
                assert medial == classify_quotient(Q).is_commutative, (S.table, A)
                pairs += 1
                if not medial:
                    inside = _np_mask(S, A.bits)[S.word_tensor(4)]
                    bad = inside & ~inside.swapaxes(1, 2)
                    assert _first_true(bad) == tuple(np.argwhere(bad)[0]), (S.table, A)
                    witnesses += 1
    assert (pairs, witnesses) == (56810, 5112)
