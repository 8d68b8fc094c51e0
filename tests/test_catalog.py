import hashlib
import random
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from sglab import (
    NotAssociative,
    SgFormatError,
    WorkBudgetExceeded,
    canonical_form,
    catalog_line,
    enumerate_semigroups,
    parse_catalog_line,
    relabel,
    validate,
)
from sglab import catalog, core
from sglab.catalog import _inverse, _relabeled


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


def catalog_digest(tables):
    """sha256 of the tables' catalog lines, one per line."""
    text = "".join(catalog_line(S) + "\n" for S in tables)
    return hashlib.sha256(text.encode()).hexdigest()


# Isomorphism classes per order (OEIS A001423) and the digest of the
# class representatives' catalog lines, in stream order.
ISO_CLASSES = {
    2: (5, "020fb215c67cc1810c93436aea3b74f9da671bf97365184c134fcc8b0b94659c"),
    3: (24, "8468cccbf21c09fd53dd14f56592382aef98baafa30dde27bd40d80369a20fe5"),
    4: (188, "a626b07fbc98259886c83055e6c9ca02055b36a895ffc72d7ab15717fc1b944b"),
}


class TestEnumeration:
    def test_counts_match_naive_oracle(self):
        for n, count in ((1, 1), (2, 8), (3, 113)):
            got = [S.table for S in enumerate_semigroups(n)]
            assert len(got) == count
            assert got == naive_enumeration(n)

    def test_emitted_tables_are_valid(self, catalog3):
        for S in catalog3:
            validate(S.table)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trusted_labeled_tables_equal_their_validated_copies(self, n):
        # Only the class representatives are validated; each relabeling is
        # built on the trusted path, so it must match what validate builds.
        for S in enumerate_semigroups(n):
            checked = validate(S.table)
            assert S == checked and S.order == checked.order == n
            assert S.labels is None
            assert all(type(v) is int for row in S.table for v in row)

    def test_labeled_catalog_at_order_four_is_pinned(self, catalog4):
        # Catalog positions key the sweep's instances and random families,
        # so the order of the stream is pinned along with its content.
        assert len(catalog4) == 3492
        assert catalog_digest(catalog4) == (
            "610c3f31299915eddfd70ca50c48e238dac054221edc622938e1f50b4fabc30c"
        )

    @pytest.mark.parametrize("n", sorted(ISO_CLASSES))
    def test_iso_reduction(self, n):
        classes, digest = ISO_CLASSES[n]
        reps = list(enumerate_semigroups(n, up_to_iso=True))
        assert len(reps) == classes
        assert catalog_digest(reps) == digest
        # The orbits of the representatives partition the labeled
        # catalog, and each representative is the least of its orbit.
        seen = set()
        for S in reps:
            assert canonical_form(S) == S.table
            orbit = {relabel(S, p).table for p in permutations(range(n))}
            assert min(orbit) == S.table
            assert not orbit & seen
            seen |= orbit
        assert seen == {S.table for S in enumerate_semigroups(n)}

    def test_left_and_right_zero_both_survive_iso_reduction(self):
        reps = {S.table for S in enumerate_semigroups(2, up_to_iso=True)}
        assert ((0, 0), (1, 1)) in reps
        assert ((0, 1), (0, 1)) in reps

    def test_work_budget(self, no_tables):
        # Orders up to 5 are estimated within the budget, and order 6 is
        # the first refused, up to isomorphism too.  The refusal comes
        # from the call itself, before the generator is asked for a table.
        est = lambda n: catalog._labeled_count(n) * catalog._TABLE_SECONDS
        assert est(4) < est(5) <= core._BUDGET_SECONDS < est(6) <= est(7)
        for n in (6, 7, 40):
            for up_to_iso in (False, True):
                with pytest.raises(WorkBudgetExceeded, match=f"the order-{n} catalog needs"):
                    enumerate_semigroups(n, up_to_iso=up_to_iso)
        with pytest.raises(ValueError):
            enumerate_semigroups(0)

    def test_labeled_counts_match_the_catalog(self, catalog2, catalog3, catalog4):
        # The estimate's counts (OEIS A023814) against the catalog itself;
        # order 5 is counted in test_order_five_labeled_catalog.
        got = [sum(S.order == n for S in catalog2) for n in (1, 2)]
        assert got + [len(catalog3), len(catalog4)] == list(catalog._LABELED_COUNTS[:4])

    def test_lexicographic_stream_order(self, catalog3):
        flat = [tuple(v for row in S.table for v in row) for S in catalog3]
        assert flat == sorted(flat)


def automorphisms(t):
    n = len(t)
    return [
        p
        for p in permutations(range(n))
        if all(p[t[a][b]] == t[p[a]][p[b]] for a in range(n) for b in range(n))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_list_each_labeled_table_once_beside_its_representative(n):
    # catalog._orbits yields each labeled table once, in catalog order,
    # with its class representative and the index k of the relabeling
    # that makes the table of it: the first such index where automorphisms
    # give several.  Each representative's orbit has n!/|Aut| tables,
    # with |Aut| counted by brute force, and the orbit sizes add up to the
    # labeled count (OEIS A023814).
    orbits = list(catalog._orbits(n))
    assert [t for t, _, _ in orbits] == [S.table for S in enumerate_semigroups(n)]
    reps = [S.table for S in enumerate_semigroups(n, up_to_iso=True)]
    sizes = dict.fromkeys(reps, 0)
    orderings = [tuple(q) for q in catalog._orderings(n).tolist()]
    for t, R, k in orbits:
        sizes[R.table] += 1
        q = orderings[k]
        assert relabel(R, _inverse(q)).table == t
        assert all(relabel(R, _inverse(r)).table != t for r in orderings[:k])
        S, got = catalog._relabeling(R, k)
        assert (S.table, got) == (t, q)
        assert (S is R) == (k == 0)
    assert list(sizes) == reps
    assert all(size == factorial(n) // len(automorphisms(t)) for t, size in sizes.items())
    assert sum(sizes.values()) == (1, 8, 113, 3492)[n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_index_is_the_orbits_by_representative_position(n):
    # The sweep's index, built once per order, names each labeled table's
    # representative by position among the class representatives, in
    # the order the class generator yields them, beside the same k.
    tables, index = catalog._orbit_index(n)
    assert catalog._orbit_index(n) is catalog._orbit_index(n)
    assert tables == tuple(catalog._backtrack(n))
    assert [(tables[i], k) for i, k in index] == [(R.table, k) for _, R, k in catalog._orbits(n)]


def test_order_five_classes_add_up_to_the_labeled_count():
    # An independent count gate: the 1915 classes of order 5 (OEIS
    # A001423) are their own canonical forms, and their orbit sizes
    # 5!/|Aut|, by a brute-force automorphism count, add up to the
    # 183,732 labeled tables (OEIS A023814).
    reps = list(enumerate_semigroups(5, up_to_iso=True))
    assert len(reps) == 1915
    for S in reps:
        assert canonical_form(S) == S.table
    assert sum(120 // len(automorphisms(S.table)) for S in reps) == 183732


def test_order_five_labeled_catalog():
    # The labeled route at order 5: 183,732 distinct tables (OEIS
    # A023814), streamed in strictly increasing table order, with their
    # content pinned as at order 4.
    count, prev = 0, ()

    def stream():
        nonlocal count, prev
        for S in enumerate_semigroups(5):
            assert S.table > prev
            count, prev = count + 1, S.table
            yield S

    assert catalog_digest(stream()) == (
        "f7c31b839e24702492f6e3b8929284c36208204fcd1976e33b8402bec9cb03e0"
    )
    assert count == catalog._labeled_count(5) == 183732


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

    def test_canonical_is_minimal_relabeling(self, catalog3, order5, order6):
        for S in catalog3[::23] + order5 + order6:
            forms = {relabel(S, p).table for p in permutations(range(S.order))}
            assert canonical_form(S) == min(forms)


    def test_whole_and_prefix_blocks_give_the_least_relabeling(self, order7, order8):
        # Order 7 is one whole block of 5040 relabelings; order 8 takes the
        # prefix path, one block of 5040 per prefix led by an idempotent.
        for S in order7 + [order8]:
            perms = permutations(range(S.order))
            assert canonical_form(S) == min(_relabeled(S.table, p, _inverse(p)) for p in perms)

    def test_invariant_under_random_relabelings(self, order6, order7, order8):
        rng = random.Random(7)
        for S in order6 + order7 + [order8]:
            want = canonical_form(S)
            for _ in range(4):
                p = rng.sample(range(S.order), S.order)
                assert canonical_form(relabel(S, p)) == want

    def test_work_budget(self, monkeypatch, chain3):
        # Orders up to 7 are estimated far below the budget, order 10 is
        # the largest accepted, and order 11 is refused before any
        # relabeling is judged.
        est = lambda n: factorial(n) * n * n * catalog._RELABELING_CELL_SECONDS
        assert est(7) < core._BUDGET_SECONDS / 1000
        assert est(10) <= core._BUDGET_SECONDS < est(11)
        with pytest.raises(WorkBudgetExceeded, match="canonical form of an order-11"):
            canonical_form(validate([[a] * 11 for a in range(11)]))
        monkeypatch.setattr(catalog, "_RELABELING_CELL_SECONDS", 1.0)
        with pytest.raises(WorkBudgetExceeded, match="canonical form of an order-3"):
            canonical_form(chain3)


@given(st.sampled_from(list(permutations(range(3)))))
def test_relabel_is_an_isomorphism(p):
    S = validate([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    T = relabel(S, p)
    for a in range(3):
        for b in range(3):
            assert p[S.table[a][b]] == T.table[p[a]][p[b]]


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
