import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import (
    Congruence,
    DuplicateLabel,
    ElementSet,
    EmptyWord,
    FiniteSemigroup,
    IndexOutOfRange,
    NotAssociative,
    OutOfRangeEntry,
    PermutationIdentity,
    SgFormatError,
    all_subsets,
    format_sg,
    format_subset,
    identity_element,
    is_commutative,
    parse_sg,
    power_set_chain,
    read_sg,
    satisfies_identity,
    validate,
    word_product,
    WorkBudgetExceeded,
)
from sglab import core
from sglab.core import _WORD_TENSOR_CELLS, memoized


class TestValidate:
    def test_min2_valid(self, min2):
        assert min2.order == 2
        assert min2.table == ((0, 0), (0, 1))

    def test_z2_valid(self, z2):
        assert z2.table[1][1] == 0

    def test_first_nonassociative_triple(self):
        with pytest.raises(NotAssociative) as e:
            validate([[1, 1], [0, 0]])
        assert e.value.triple == (0, 0, 0)

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeEntry):
            validate([[0, 2], [0, 1]])

    @pytest.mark.parametrize(
        "table,cell",
        [
            ([[0.9, 0], [0, 1.7]], (0, 0, 0.9)),
            ([["1", 0], [0, 1]], (0, 0, "1")),
            ([[0, 0], [0, 1.0]], (1, 1, 1.0)),
            ([[0, 0], [2, 0.5]], (1, 0, 2)),
        ],
    )
    def test_non_integer_entry_is_refused_not_truncated(self, table, cell):
        with pytest.raises(OutOfRangeEntry) as e:
            validate(table)
        assert (e.value.row, e.value.col, e.value.value) == cell

    def test_numpy_integer_entries_become_ints(self):
        S = validate(np.array([[0, 1], [1, 0]]))
        assert S.table == ((0, 1), (1, 0))
        assert all(type(v) is int for row in S.table for v in row)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            validate([[0, 0], [0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate([])

    def test_labels_checked(self):
        S = validate([[0, 0], [0, 1]], labels=["zero", "one"])
        assert S.labels == ("zero", "one")
        with pytest.raises(DuplicateLabel):
            validate([[0, 0], [0, 1]], labels=["x", "x"])
        with pytest.raises(ValueError):
            validate([[0, 0], [0, 1]], labels=["x"])

    def test_one_shot_iterators_become_tuples(self):
        S = validate((iter(row) for row in [[0, 0], [0, 1]]), iter(["zero", "one"]))
        assert S.table == ((0, 0), (0, 1))
        assert S.labels == ("zero", "one")

    def test_labels_do_not_affect_equality(self):
        a = validate([[0, 0], [0, 1]], labels=["a", "b"])
        b = validate([[0, 0], [0, 1]])
        assert a == b

    def test_associativity_check_over_budget_is_refused_before_it_starts(self, monkeypatch):
        # 10**3 triples at 40 ns are 40 us, over a 10 us budget.  The table
        # is not associative, so a check that started would raise
        # NotAssociative instead.
        monkeypatch.setattr(core, "_BUDGET_SECONDS", 1e-5)

        def successor(n):  # x*y = x+1 mod n, which is not associative
            return [[(a + 1) % n] * n for a in range(n)]

        with pytest.raises(WorkBudgetExceeded, match="associativity check of an order-10 table"):
            validate(successor(10))
        text = "10\n" + "".join(" ".join(map(str, row)) + "\n" for row in successor(10))
        with pytest.raises(WorkBudgetExceeded):
            parse_sg(text)
        # Smaller tables are still checked in full.
        with pytest.raises(NotAssociative):
            validate(successor(6))

    def test_budget_leaves_every_order_below_630_alone(self):
        # The catalog (orders <= 4) and the order-5/6 tables of the query
        # benchmark never come near it; order 630 is the first refused.
        est = lambda n: n**3 * core._TRIPLE_SECONDS
        assert est(629) <= core._BUDGET_SECONDS < est(630)
        assert validate([[0] * 6 for _ in range(6)]).order == 6

    def test_one_budget_refuses_every_search(self, monkeypatch, chain3):
        # Every exhaustive search reads the one budget when it is called,
        # and each refusal names its own search.
        from sglab import (
            SweepConfig,
            canonical_form,
            enumerate_congruences,
            enumerate_semigroups,
            find_permutation_identity,
        )
        from sglab.sweep import iter_sweep

        monkeypatch.setattr(core, "_BUDGET_SECONDS", 1e-9)
        searches = {
            "the associativity check of an order-3 table": lambda: validate(chain3.table),
            "the length-2 identity search": lambda: find_permutation_identity(chain3),
            "the canonical form of an order-3 table": lambda: canonical_form(chain3),
            "the congruence search of an order-3 table": lambda: enumerate_congruences(chain3),
            "the order-1 catalog": lambda: enumerate_semigroups(1, up_to_iso=True),
            "the sweep of 9 labeled tables": lambda: iter_sweep(SweepConfig(max_order=2)),
        }
        for what, search in searches.items():
            with pytest.raises(WorkBudgetExceeded) as e:
                search()
            assert e.value.what == what and e.value.budget == "1e-09 s"


def test_only_core_raises_the_work_budget():
    # Every refusal over a work budget comes from core: the one time
    # budget's _within_budget and the word-tensor memory limit.
    src = Path(core.__file__).parent
    raising = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "WorkBudgetExceeded":
                raising.add(path.name)
    assert raising == {"core.py"}


class TestWordProduct:
    def test_single_letter(self, min2):
        assert word_product(min2, [1]) == 1

    def test_fold(self, lz2mon):
        assert word_product(lz2mon, [0, 1, 2, 0]) == 1

    def test_empty_word(self, min2):
        with pytest.raises(EmptyWord):
            word_product(min2, [])

    def test_out_of_range_letter(self, lz2):
        with pytest.raises(IndexOutOfRange):
            word_product(lz2, [0, 1, 2])

    def test_bracketing_irrelevant(self, catalog3):
        for S in catalog3[:20]:
            t = S.table
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        assert word_product(S, [a, b, c]) == t[t[a][b]][c] == t[a][t[b][c]]


@given(data=st.data())
def test_word_product_matches_incremental_fold(data):
    tables = [
        [[0, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, 0], [1, 1]],
        [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
    ]
    S = validate(data.draw(st.sampled_from(tables)))
    w = data.draw(st.lists(st.integers(0, S.order - 1), min_size=1, max_size=7))
    acc = w[0]
    for x in w[1:]:
        acc = S.table[acc][x]
    assert word_product(S, w) == acc


class TestWordTensor:
    def test_matches_word_product(self, lz2mon):
        w3 = lz2mon.word_tensor(3)
        for x in range(3):
            for a in range(3):
                for y in range(3):
                    assert w3[x, a, y] == word_product(lz2mon, [x, a, y])

    def test_cached(self, z2):
        assert z2.word_tensor(4) is z2.word_tensor(4)

    def test_memoized_by_length(self, lz2mon):
        # Each length is built from the one below it, and every one stays.
        w3 = lz2mon.word_tensor(3)
        assert lz2mon._memo["word_tensor"].keys() == {1, 2, 3}
        assert lz2mon._memo["word_tensor"][3] is w3

    def test_over_budget_raises_before_allocating(self, lz2mon):
        k = next(k for k in range(1, 64) if 3**k > _WORD_TENSOR_CELLS)
        with pytest.raises(WorkBudgetExceeded):
            lz2mon.word_tensor(k)
        assert lz2mon._memo["word_tensor"] == {}

    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_bad_length_is_refused_before_recursing(self, k):
        S = validate([[0]])
        with pytest.raises(ValueError, match="word length"):
            S.word_tensor(k)
        assert S._memo["word_tensor"] == {}

    def test_lengths_past_numpy_dimensions_are_refused(self):
        # Every length of an order-1 table has one cell, so the cell
        # budget never stops it; numpy arrays stop at 64 dimensions (32
        # before numpy 2.0).
        top = core._WORD_LENGTH_MAX
        with pytest.raises(ValueError, match="maximum supported dimension"):
            np.empty((1,) * (top + 1))
        assert validate([[0]]).word_tensor(top).shape == (1,) * top
        for k in (top + 1, 600):
            T = validate([[0]])
            with pytest.raises(ValueError, match=f"numpy's {top} dimensions"):
                T.word_tensor(k)
            assert T._memo["word_tensor"] == {}
        T = validate([[0]])
        with pytest.raises(ValueError, match=f"numpy's {top} dimensions"):
            satisfies_identity(T, PermutationIdentity.of((2, 1, *range(3, top + 2))))
        assert T._memo["word_tensor"] == {} and T._memo["identity"] == {}


@pytest.mark.parametrize(
    "build", [validate, FiniteSemigroup._from_table], ids=["validate", "from_table"]
)
def test_derived_values_are_computed_once_per_table(build):
    S = build(((0, 1, 2), (1, 1, 1), (2, 2, 2)))
    for name in ("np_table", "_linked"):
        assert name not in vars(S)
        first = getattr(S, name)
        assert vars(S)[name] is first
        assert getattr(S, name) is first


class TestPowerSetChain:
    def test_left_zero_stabilizes_immediately(self, lz2):
        chain = power_set_chain(lz2)
        assert [tuple(s) for s in chain.sets] == [(0, 1)]
        assert chain.cycle_start == 0

    def test_group(self, z2):
        chain = power_set_chain(z2)
        assert [tuple(s) for s in chain.sets] == [(0, 1)]
        assert chain.cycle_start == 0

    def test_null_semigroup_collapses(self, n3):
        chain = power_set_chain(n3)
        assert [tuple(s) for s in chain.sets] == [(0, 1, 2), (0,)]
        assert chain.cycle_start == 1

    def test_successive_sets_are_products(self, catalog3):
        for S in catalog3:
            chain = power_set_chain(S)
            sets = [s.members for s in chain.sets]
            nxt = sets + [sets[chain.cycle_start]]
            for k in range(len(sets)):
                produced = {S.table[s][w] for s in range(S.order) for w in sets[k]}
                assert produced == nxt[k + 1]


class TestStructure:
    def test_identity(self, min2, lz2, z2):
        assert identity_element(min2) == 1
        assert identity_element(lz2) is None
        assert identity_element(z2) == 0

    def test_identity_unique_when_present(self, catalog3):
        for S in catalog3:
            e = identity_element(S)
            if e is None:
                continue
            all_ids = [
                x
                for x in range(S.order)
                if all(S.table[x][y] == y == S.table[y][x] for y in range(S.order))
            ]
            assert all_ids == [e]

    def test_commutative(self, min2, lz2):
        assert is_commutative(min2) == (True, None)
        assert is_commutative(lz2) == (False, (0, 1))


class TestElementSet:
    def test_ascending_iteration(self):
        A = ElementSet.of(5, [4, 0, 2])
        assert list(A) == [0, 2, 4]
        assert tuple(A) == (0, 2, 4)

    def test_complement_involution(self):
        A = ElementSet.of(4, [1, 3])
        assert A.complement().complement() == A

    def test_membership_and_mask(self):
        A = ElementSet.of(3, [2])
        assert 2 in A and 0 not in A
        assert A.bits == 0b100

    def test_out_of_range_member(self):
        with pytest.raises(IndexOutOfRange):
            ElementSet.of(2, [5])

    @pytest.mark.parametrize("members", [{0.5, 2.9}, {2.0}, {"1"}])
    def test_non_integer_member_is_refused_not_truncated(self, members):
        with pytest.raises(IndexOutOfRange):
            ElementSet(3, members)

    def test_numpy_integer_members_become_ints(self):
        A = ElementSet.of(3, [np.int64(2), 0])
        assert tuple(A) == (0, 2) and A.bits == 0b101
        assert all(type(x) is int for x in A.members)

    def test_intersection_requires_same_ambient(self):
        with pytest.raises(ValueError):
            ElementSet.of(2, [0]) & ElementSet.of(3, [0])

    def test_inclusion_requires_same_ambient(self):
        with pytest.raises(ValueError, match="ambient orders differ"):
            ElementSet.of(2, [0]) <= ElementSet.of(3, [0, 1])

    @pytest.mark.parametrize("ambient", [2.5, 3.0, "3", None, 0, -1])
    def test_ambient_must_be_a_positive_integer(self, ambient):
        with pytest.raises(ValueError, match="ambient order"):
            ElementSet(ambient, {0})

    def test_numpy_integer_ambient_becomes_int(self):
        A = ElementSet(np.int64(3), {2})
        assert type(A.ambient) is int and A.complement() == ElementSet.of(3, [0, 1])

    def test_all_subsets_bitmask_order(self):
        subs = [tuple(A) for A in all_subsets(2)]
        assert subs == [(), (0,), (1,), (0, 1)]
        assert sum(1 for _ in all_subsets(4)) == 16


@pytest.mark.parametrize("ambient", [2.5, "3", None, 0, -1])
@pytest.mark.parametrize(
    "build",
    [
        all_subsets,
        lambda n: Congruence(n, (0, 0)),
        lambda n: Congruence.from_classes(n, [[0]]),
        lambda n: ElementSet(n, ()),
    ],
    ids=["all_subsets", "Congruence", "from_classes", "ElementSet"],
)
def test_every_ambient_order_is_refused_by_the_call_itself(build, ambient):
    # One message for every constructor, raised before anything is
    # built: all_subsets does not wait for its first next().
    with pytest.raises(ValueError, match="ambient order must be a positive integer, not "):
        build(ambient)


def test_memoized_stores_answers_and_never_a_raise():
    calls = []

    @memoized("probe")
    def probe(S, key):
        calls.append(key)
        if key < 0:
            raise ValueError(key)
        return 2 * key

    S = validate([[0]])
    assert (probe(S, 3), probe(S, 3)) == (6, 6)
    for _ in range(2):
        with pytest.raises(ValueError):
            probe(S, -1)
    assert calls == [3, -1, -1]
    assert S._memo["probe"] == {3: 6}


def _bits_of(members):
    return sum(1 << e for e in members)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_element_set_reads_everything_from_its_mask(data):
    # Every view of a set, whichever way it was built, agrees with the
    # frozenset of its members.
    n = data.draw(st.integers(1, 8), label="ambient")
    members = frozenset(data.draw(st.sets(st.integers(0, n - 1)), label="members"))
    others = frozenset(data.draw(st.sets(st.integers(0, n - 1)), label="others"))
    A = ElementSet(n, members)
    B = ElementSet._from_bits(n, _bits_of(members))
    O = ElementSet._from_bits(n, _bits_of(others))
    assert A == B and hash(A) == hash(B)
    assert vars(A) == vars(B) == {"ambient": n, "bits": _bits_of(members)}
    assert A.members == B.members == members and type(B.members) is frozenset
    assert list(A) == list(B) == sorted(members)
    assert len(B) == len(members)
    for x in range(-1, n + 2):
        assert (x in B) == (x in members)
    assert (B <= O) == (members <= others)
    assert (B & O).members == members & others
    assert B.complement().members == frozenset(range(n)) - members
    literal = "{" + ",".join(map(str, sorted(members))) + "}"
    assert format_subset(B) == literal
    assert repr(B) == f"ElementSet({n}, {literal})"


SG_TEXT = """\
# the two-element group
2
0 1
1 0
labels: e g
"""


class TestSgFormat:
    def test_parse_with_comments_and_labels(self):
        S = parse_sg(SG_TEXT)
        assert S.table == ((0, 1), (1, 0))
        assert S.labels == ("e", "g")

    def test_round_trip(self, lz2mon):
        assert parse_sg(format_sg(lz2mon)) == lz2mon

    def test_round_trip_with_labels(self):
        S = validate([[0, 0], [0, 1]], labels=["lo", "hi"])
        again = parse_sg(format_sg(S))
        assert again.labels == ("lo", "hi")

    def test_read_file(self, tmp_path, z2):
        p = tmp_path / "z2.sg"
        p.write_text(format_sg(z2))
        assert read_sg(p) == z2

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("", 1),
            ("x", 1),
            ("0", 1),
            ("2\n0 1\n1", 3),
            ("2\n0 1 1\n1 0", 2),
            ("2\n0 1\n1 2", 3),
            ("2\n0 1\n1 0\njunk", 4),
            ("2\n0 1\n1 0\nlabels: a", 4),
            ("1\n0\nlabels: a\nmore", 4),
        ],
    )
    def test_errors_cite_line_numbers(self, text, lineno):
        with pytest.raises(SgFormatError) as e:
            parse_sg(text)
        assert e.value.lineno == lineno

    def test_nonassociative_table_raises_through(self):
        with pytest.raises(NotAssociative):
            parse_sg("2\n1 1\n0 0\n")


def test_frozen_value_semantics(z2):
    with pytest.raises(AttributeError):
        z2.table = ()
    assert z2 == FiniteSemigroup(((0, 1), (1, 0)))
    assert z2 != validate([[0, 0], [0, 1]])
