from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from sglab import (
    NotAssociative,
    OrderTooLarge,
    SgFormatError,
    canonical_form,
    catalog_line,
    enumerate_semigroups,
    parse_catalog_line,
    relabel,
    validate,
)


def naive_enumeration(n):
    """Generate-then-filter oracle: all n^(n*n) tables, keep associative."""
    out = []
    for cells in product(range(n), repeat=n * n):
        t = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
        if all(
            t[t[a][b]][c] == t[a][t[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            out.append(tuple(tuple(r) for r in t))
    return out


class TestEnumeration:
    def test_counts_match_naive_oracle(self):
        for n, count in ((1, 1), (2, 8), (3, 113)):
            got = [S.table for S in enumerate_semigroups(n)]
            assert len(got) == count
            assert got == naive_enumeration(n)

    def test_emitted_tables_are_valid(self, catalog3):
        for S in catalog3:
            validate(S.table)

    def test_iso_reduction_at_order_two(self):
        reps = list(enumerate_semigroups(2, up_to_iso=True))
        assert len(reps) == 5
        for S in reps:
            assert canonical_form(S) == S.table

    def test_left_and_right_zero_both_survive_iso_reduction(self):
        reps = {S.table for S in enumerate_semigroups(2, up_to_iso=True)}
        assert ((0, 0), (1, 1)) in reps
        assert ((0, 1), (0, 1)) in reps

    def test_order_bound(self):
        # Raised by the call itself, before any table is asked for.
        with pytest.raises(OrderTooLarge):
            enumerate_semigroups(5)
        with pytest.raises(ValueError):
            enumerate_semigroups(0)

    def test_lexicographic_stream_order(self, catalog3):
        flat = [tuple(v for row in S.table for v in row) for S in catalog3]
        assert flat == sorted(flat)


class TestCanonicalForm:
    def test_min_and_max_tables_are_isomorphic(self, min2):
        max2 = validate([[0, 1], [1, 1]])
        assert canonical_form(min2) == canonical_form(max2)

    def test_chirality_is_preserved(self, lz2, rz2):
        assert canonical_form(lz2) != canonical_form(rz2)

    def test_one_element(self):
        assert canonical_form(validate([[0]])) == ((0,),)

    def test_idempotent(self, catalog3):
        for S in catalog3[::6]:
            c = canonical_form(S)
            assert canonical_form(validate(c)) == c

    def test_invariant_under_relabeling(self, lz2mon, chain3):
        for S in (lz2mon, chain3):
            want = canonical_form(S)
            for p in permutations(range(S.order)):
                assert canonical_form(relabel(S, p)) == want

    def test_canonical_is_minimal_relabeling(self, catalog3):
        for S in catalog3[::23]:
            forms = {relabel(S, p).table for p in permutations(range(3))}
            assert canonical_form(S) == min(forms)


@given(st.sampled_from(list(permutations(range(3)))))
def test_relabel_is_an_isomorphism(p):
    S = validate([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    T = relabel(S, p)
    for a in range(3):
        for b in range(3):
            assert p[S.product(a, b)] == T.product(p[a], p[b])


class TestCatalogLines:
    def test_round_trip(self, lz2mon):
        line = catalog_line(lz2mon)
        assert line == "3 0 1 2 1 1 1 2 2 2"
        assert parse_catalog_line(line) == lz2mon

    def test_rejects_bad_lines(self):
        with pytest.raises(SgFormatError):
            parse_catalog_line("")
        with pytest.raises(SgFormatError):
            parse_catalog_line("2 0 1")
        with pytest.raises(SgFormatError):
            parse_catalog_line("2 a b c d")
        with pytest.raises(NotAssociative):
            parse_catalog_line("2 1 1 0 0")
