import pytest

from sglab import (
    ElementSet,
    FiniteSemigroup,
    SweepConfig,
    WorkBudgetExceeded,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    run_sweep,
    validate,
)
from sglab import catalog, sweep
from sglab.sweep import _random_families


def eset(ambient, *members):
    return ElementSet.of(ambient, members)


class TestLemmaChecks:
    def test_lemma1_empty_branch(self, lz2):
        rep = check_lemma1(lz2, eset(2, 0))
        assert rep.status == "pass" and "empty" in rep.detail

    def test_lemma1_subsemigroup_branch(self, z2):
        rep = check_lemma1(z2, eset(2, 0))
        assert rep.status == "pass" and "{0}" in rep.detail

    def test_lemma2_unmet_on_empty_separator(self, lz2):
        assert check_lemma2(lz2, eset(2, 0)).status == "precondition-unmet"

    def test_lemma2_separator_inside_subset(self, z2):
        rep = check_lemma2(z2, eset(2, 0))
        assert rep.status == "pass" and "subset" in rep.detail

    def test_lemma2_separator_inside_complement(self, min2):
        rep = check_lemma2(min2, eset(2, 0))
        assert rep.status == "pass" and "complement" in rep.detail

    def test_lemma3_requires_subsemigroup(self, z2):
        assert check_lemma3(z2, eset(2, 1)).status == "precondition-unmet"

    def test_lemma3_unitary_fixed_point(self, min2):
        rep = check_lemma3(min2, eset(2, 1))
        assert rep.status == "pass" and "unitary" in rep.detail

    def test_lemma3_neither_side(self, min2):
        rep = check_lemma3(min2, eset(2, 0))
        assert rep.status == "pass" and "neither" in rep.detail


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.max_order == 4 and cfg.family_mode == "default"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_order": 0},
            {"min_order": 3, "max_order": 2},
            {"n_max_permutation": 1},
            {"family_mode": "everything"},
            {"theorem": "5"},
            {"parallelism": 0},
            {"random_families": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestRandomFamilies:
    def test_reproducible_per_instance_key(self):
        cfg = SweepConfig(random_families=7, seed=3)
        a = _random_families(cfg, 3, 5)
        b = _random_families(cfg, 3, 5)
        assert a == b
        assert len(a) == 7
        assert all(2 <= len(fam) <= 3 for fam in a)

    def test_distinct_instances_get_distinct_draws(self):
        cfg = SweepConfig(random_families=7, seed=3)
        assert _random_families(cfg, 3, 5) != _random_families(cfg, 3, 6)

    def test_seed_changes_draws(self):
        a = _random_families(SweepConfig(random_families=5, seed=0), 3, 0)
        b = _random_families(SweepConfig(random_families=5, seed=1), 3, 0)
        assert a != b


class TestRunSweep:
    def test_small_catalog_counts_and_zero_fails(self):
        rep = run_sweep(SweepConfig(max_order=2, random_families=3))
        assert rep.instances == 9
        assert rep.fails == []
        assert all(st != "fail" for (_, st) in rep.counts)
        assert sum(rep.counts.values()) == len(rep.records)

    def test_single_order_selection(self):
        rep = run_sweep(SweepConfig(min_order=2, max_order=2, theorem="lemmas"))
        assert rep.instances == 8
        assert {c for (c, _) in rep.counts} == {"lemma1", "lemma2", "lemma3"}

    def test_theorem_filter_groups(self):
        rep = run_sweep(SweepConfig(max_order=2, theorem="cor1"))
        assert {c for (c, _) in rep.counts} == {"corollary1"}
        rep = run_sweep(SweepConfig(max_order=2, theorem="cor2"))
        assert {c for (c, _) in rep.counts} <= {"permutation-identity", "corollary2"}

    def test_records_are_deterministic(self):
        cfg = SweepConfig(max_order=2, random_families=4, seed=9)
        assert run_sweep(cfg).records == run_sweep(cfg).records

    def test_parallel_matches_serial(self):
        serial = run_sweep(SweepConfig(max_order=2, parallelism=1))
        parallel = run_sweep(SweepConfig(max_order=2, parallelism=3))
        assert serial.records == parallel.records

    def test_record_shape(self):
        rep = run_sweep(SweepConfig(min_order=2, max_order=2, theorem="lemmas"))
        for line in rep.records:
            fields = line.split()
            assert fields[0].startswith("order=")
            assert fields[1].startswith("table=") and len(fields[1]) == len("table=") + 12
            assert fields[2].startswith("case=")
            assert fields[3].startswith("check=")
            assert fields[4].startswith("status=")
            assert fields[5].startswith("witness=")

    def test_order_above_catalog_bound_is_refused_before_enumerating(self, monkeypatch, no_tables):
        built = []

        def counting_validate(*args, **kwargs):
            built.append(args)
            return validate(*args, **kwargs)

        def counting_trusted(table):
            built.append(table)
            return trusted(table)

        # The sweep builds its tables through the trusted path; count those too.
        trusted = FiniteSemigroup._from_table
        monkeypatch.setattr(catalog, "validate", counting_validate)
        monkeypatch.setattr(FiniteSemigroup, "_from_table", staticmethod(counting_trusted))
        with pytest.raises(WorkBudgetExceeded, match="the sweep of 187,346 labeled tables"):
            run_sweep(SweepConfig(max_order=5))
        assert built == []

    def test_stream_refuses_a_large_order_before_its_first_row(self):
        # The refusal comes from the call itself, so a consumer has
        # written nothing when it sees it.
        with pytest.raises(WorkBudgetExceeded, match="over the budget of 10 s"):
            sweep.iter_sweep(SweepConfig(max_order=5))
        with pytest.raises(WorkBudgetExceeded, match="the sweep of 183,732 labeled tables"):
            sweep.iter_sweep(SweepConfig(min_order=5, max_order=5))

    def test_summary_lines(self):
        rep = run_sweep(SweepConfig(max_order=2, theorem="lemmas"))
        lines = rep.summary_lines()
        assert lines[0] == "instances: 9"
        assert lines[1].startswith("checks: pass=")

    def test_family_mode_restriction(self):
        full = run_sweep(SweepConfig(max_order=2, theorem="1"))
        singles = run_sweep(
            SweepConfig(max_order=2, theorem="1", family_mode="singletons-and-all-subsets")
        )
        classes = run_sweep(
            SweepConfig(max_order=2, theorem="1", family_mode="congruence-classes")
        )
        n_fwd = lambda r: sum(v for (c, _), v in r.counts.items() if c == "theorem1-forward")
        assert n_fwd(full) == n_fwd(singles) + n_fwd(classes)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces multiprocessing.Pool with a recorder of worker counts that
    maps in this process, so no worker is ever started."""
    sizes = []

    class Recorder:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "Pool", Recorder)
    return sizes


@pytest.mark.parametrize(
    "cpus,jobs,started", [(3, 64, [3]), (16, 4, [4]), (1, 8, []), (None, 8, [])]
)
def test_jobs_capped_at_cpu_count(pool_sizes, monkeypatch, cpus, jobs, started):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    rep = run_sweep(SweepConfig(max_order=2, theorem="lemmas", parallelism=jobs))
    assert pool_sizes == started
    assert rep.records == run_sweep(SweepConfig(max_order=2, theorem="lemmas")).records
