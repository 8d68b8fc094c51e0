import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from collections import Counter

from sglab import (
    Congruence,
    ElementSet,
    FiniteSemigroup,
    NotACongruence,
    StatusNotInvariant,
    SweepConfig,
    WorkBudgetExceeded,
    WorkerDied,
    canonical_form,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    enumerate_congruences,
    enumerate_semigroups,
    find_permutation_identity,
    format_subset,
    is_medial,
    is_unitary,
    relabel,
    run_sweep,
    separator,
    validate,
    verify_theorem2_forward,
)
from sglab import catalog, cli, sweep
from sglab.reports import failed
from sglab.sweep import _instance, _random_families


def fields(text):
    """The (case, check, status) of each record line in text."""
    return [tuple(f.partition("=")[2] for f in line.split(" ")[2:5])
            for line in text.splitlines()]


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

    def test_lemma3_does_not_count_the_empty_set(self, catalog2, catalog3):
        # The empty set is not a subsemigroup, so lemma 3 does not apply
        # to it.  The convention is load-bearing: Sep(empty) is all of S
        # and the empty set is vacuously unitary, so lemma 3 would fail
        # on it in every table.
        for S in catalog2 + catalog3:
            empty = ElementSet.empty(S.order)
            rep = check_lemma3(S, empty)
            assert (rep.status, rep.detail) == ("precondition-unmet", "not a subsemigroup")
            assert separator(S, empty) == ElementSet.full(S.order)
            assert is_unitary(S, empty) == (True, None)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.max_order == 4 and cfg.random_families == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_order": 0},
            {"min_order": 3, "max_order": 2},
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


def test_every_check_agrees_on_a_table_and_its_transpose():
    # The paper's conditions are left-right symmetric: a subset, a
    # partition or a permutation identity holds in S exactly when its
    # mirror holds in the opposite semigroup, whose table is S's
    # transposed.  So every class representative of orders 1-4 and its
    # opposite give the same (case, check, status) records, up to order.
    cfg = SweepConfig(random_families=0)
    representatives = 0
    for n in range(1, 5):
        for S in enumerate_semigroups(n, up_to_iso=True):
            op = validate([list(col) for col in zip(*S.table)])
            mine, theirs = (sorted(fields(_instance(cfg, n, 0, T)[0])) for T in (S, op))
            assert mine == theirs, S.table
            representatives += 1
    assert representatives == 218


def test_theorem_families_are_every_subset_then_every_class_family():
    # Theorem 1 forward runs on each subset as a one-set family, in mask
    # order, then on each congruence's classes, in enumeration order.
    # Theorem 2 forward runs on the same families, then on the instance's
    # seeded random families, wherever a permutation identity is found.
    cfg = SweepConfig()
    permutative = 0
    for n in range(1, 4):
        subsets = [format_subset(ElementSet.of(n, [e for e in range(n) if bits >> e & 1]))
                   for bits in range(1 << n)]
        for idx, S in enumerate(enumerate_semigroups(n)):
            checks = fields(_instance(cfg, n, idx, S)[0])
            families = subsets + [sigma.literal() for sigma in enumerate_congruences(S)]
            assert [c for c, check, _ in checks if check == "theorem1-forward"] == families
            randoms = [";".join(format_subset(ElementSet._from_bits(n, bits)) for bits in masks)
                       for masks in _random_families(cfg, n, idx)]
            assert len(randoms) == cfg.random_families
            if find_permutation_identity(S, sweep._IDENTITY_LENGTH) is None:
                families = randoms = []
            else:
                permutative += 1
            assert [c for c, check, _ in checks if check == "theorem2-forward"] == families + randoms
    assert permutative == 116


def test_records_through_the_representative_equal_the_direct_ones():
    # The sweep asks each check of a table's class representative and
    # moves the answer onto the table.  Each table of orders 1-3, asked
    # directly as its own representative, must give the same records.
    # That catalog holds every relabeling of every class, so this covers
    # every push the sweep makes there.
    cfg = SweepConfig(max_order=3, parallelism=1)
    direct, moved = [], 0
    for n in range(1, 4):
        for idx, S in enumerate(enumerate_semigroups(n)):
            T = validate(S.table)
            moved += canonical_form(T) != T.table
            direct += _instance(cfg, n, idx, T)[0].splitlines()
    assert run_sweep(cfg).records == direct
    assert moved == 122 - 30


def test_a_moved_table_keeps_its_own_first_witness():
    # S relabels its class representative R so that S's subset {1} is
    # R's {0}, which is not medial.  R's first witness, moved to S's
    # labels, reads y=1, but S's own first witness has y=0: a report
    # with a witness is asked of the table itself.
    S = validate([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    R = validate(canonical_form(S))
    assert R.table == ((0, 0, 0), (0, 1, 2), (2, 2, 2))
    p = (1, 0, 2)  # S's label of each element of R
    assert relabel(R, p) == S
    assert [p[v] for v in is_medial(R, eset(3, 0))[1]] == [0, 1, 2, 1]
    h = sweep._table_hash(S)
    records = run_sweep(SweepConfig(min_order=3, max_order=3, parallelism=1)).records
    assert [line for line in records
            if line.startswith(f"order=3 table={h} case={{1}} ") and "witness=-" not in line] == [
        f"order=3 table={h} case={{1}} check=corollary1 status=precondition-unmet"
        " witness=x=0,a=1,b=2,y=0 detail=subset not medial",
        f"order=3 table={h} case={{1}} check=theorem1-forward status=precondition-unmet"
        " witness=x=0,a=1,b=2,y=0 detail=set 0 not medial",
    ]


@pytest.mark.parametrize("group", sweep.THEOREM_GROUPS)
def test_each_group_through_the_representative_equals_the_direct_route(group):
    # A class's records are rendered once per theorem group, so each
    # group's sweep of orders 1-3 must give the records and the summary
    # that asking every table as its own representative gives.
    cfg = SweepConfig(max_order=3, theorem=group, parallelism=1)
    direct = sweep.SweepReport()
    for n in range(1, 4):
        for idx, S in enumerate(enumerate_semigroups(n)):
            direct.records += direct.add(_instance(cfg, n, idx, validate(S.table))).splitlines()
    rep = run_sweep(cfg)
    assert rep.records == direct.records
    assert rep.summary_lines() == direct.summary_lines()


def test_a_report_asked_of_a_copy_must_keep_its_class_status(monkeypatch):
    # Every table of a class is counted with its representative's
    # statuses.  A report with a witness is asked of the labeled table
    # itself, so one that came out with another status would be counted
    # wrong: it is an error that names the table, the check and the case.
    check = sweep._CHECKS["corollary1"]

    def flipped(T, bits, ident):
        rep = check(T, bits, ident)
        if rep.witness is None or canonical_form(T) == T.table:
            return rep
        return failed(rep.check, rep.witness, rep.detail)

    monkeypatch.setitem(sweep._CHECKS, "corollary1", flipped)
    with pytest.raises(StatusNotInvariant,
                       match=r"^table=[0-9a-f]{12} case=\{[\d,]+\} check=corollary1: status fail, "
                       "but its class representative's is precondition-unmet$"):
        run_sweep(SweepConfig(min_order=3, max_order=3, parallelism=1))


def test_a_random_family_asked_of_a_copy_must_keep_its_class_status(monkeypatch):
    # A random family whose report on the representative has a witness
    # is asked of the labeled table itself, and must keep the status
    # too.  Here the representative's reports are planted, in the one
    # batched call that answers all of its random families: each fails
    # with a witness on every random family (2-3 sets that cover less
    # than the whole table, so never a congruence's classes).  The copy
    # is asked through sweep._CHECKS, one family at a time, so its own
    # reports keep their real status.
    forward = sweep._theorem2_forward

    def planted(T, families, ident):
        reports = forward(T, families, ident)
        if canonical_form(T) != T.table:
            return reports
        full = (1 << T.order) - 1
        out = []
        for masks, rep in zip(families, reports):
            covered = 0
            for m in masks:
                covered |= m
            if len(masks) > 1 and covered != full:
                rep = failed(rep.check, (("a", 0),), "planted")
            out.append(rep)
        return out

    monkeypatch.setattr(sweep, "_theorem2_forward", planted)
    with pytest.raises(StatusNotInvariant,
                       match=r"^table=[0-9a-f]{12} case=\{[\d,]*\}(;\{[\d,]*\})+ "
                       r"check=theorem2-forward: status (pass|precondition-unmet), "
                       "but its class representative's is fail$"):
        run_sweep(SweepConfig(min_order=3, max_order=3, theorem="2", parallelism=1))


def test_each_sweep_asks_its_own_representatives(monkeypatch):
    # The catalog index is built once per process, but every sweep
    # builds its own class representatives, so no answer on one
    # outlives its sweep.
    seen = []
    worker = sweep._instance_worker

    def recording(item):
        seen.append(item[3])
        return worker(item)

    monkeypatch.setattr(sweep, "_instance_worker", recording)
    cfg = SweepConfig(max_order=3, theorem="cor1", parallelism=1)
    run_sweep(cfg)
    first = {id(R) for R in seen}
    run_sweep(cfg)
    # seen holds every representative, so no id is reused.
    second = {id(R) for R in seen[len(seen) // 2:]}
    assert len(first) == len(second) == 1 + 4 + 25
    assert not first & second


def test_no_class_without_a_short_identity_has_a_longer_one():
    # The sweep searches identities up to one fixed length.  Searching
    # further would change no verdict: no class of orders 1-4 without
    # an identity up to that length has one of the next two lengths.
    length = sweep._IDENTITY_LENGTH
    searched = []
    for n in range(1, 5):
        for S in enumerate_semigroups(n, up_to_iso=True):
            if find_permutation_identity(S, length) is None:
                assert find_permutation_identity(S, length + 2) is None, S.table
                searched.append(n)
    assert (searched.count(3), searched.count(4), len(searched)) == (2, 34, 36)


def test_a_random_family_is_a_list_and_a_partition_a_tuple():
    # The sweep's theorem 2 case is a random family's own masks when it
    # is a list and a partition's class_of when it is a tuple: (0, 1) is
    # both an order-2 class_of and a 2-set family.  On (0, 0, 1) the two
    # readings give different reports on some permutative tables.
    check = sweep._CHECKS["theorem2-forward"]
    told_apart = 0
    for n, masks in ((2, [0, 1]), (3, [0, 1, 1]), (3, [0, 0, 1])):
        for S in enumerate_semigroups(n, up_to_iso=True):
            ident = find_permutation_identity(S, sweep._IDENTITY_LENGTH)
            if ident is None:
                continue
            family = [ElementSet._from_bits(n, m) for m in masks]
            classes = Congruence._from_rgs(n, tuple(masks)).classes()
            as_family = check(S, list(masks), ident)
            as_partition = check(S, tuple(masks), ident)
            assert as_family == verify_theorem2_forward(S, family, ident), S.table
            assert as_partition == verify_theorem2_forward(S, classes, ident), S.table
            told_apart += as_family != as_partition
    assert told_apart
    with pytest.raises(TypeError):
        sweep._class_bits([0, 1])


class TestRunSweep:
    def test_small_catalog_counts_and_zero_fails(self):
        rep = run_sweep(SweepConfig(max_order=2, random_families=3))
        assert rep.instances == 9
        assert rep.fails == []
        assert all(st != "fail" for (_, st) in rep.counts)
        assert sum(rep.counts.values()) == len(rep.records)
        # Every (check, status) count, random families and labeled copies
        # included, is the number of records that carry it.
        rep = run_sweep(SweepConfig(max_order=3, random_families=50, seed=3, parallelism=1))
        assert rep.counts == Counter(tuple(f.partition("=")[2] for f in line.split(" ")[3:5])
                                     for line in rep.records)

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

    def test_parallel_matches_serial(self, monkeypatch):
        # Orders 1-3 are 8 chunks, so three workers start on any machine.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
        serial = run_sweep(SweepConfig(max_order=3, parallelism=1))
        parallel = run_sweep(SweepConfig(max_order=3, parallelism=3))
        assert serial.records == parallel.records
        assert serial.counts == parallel.counts and serial.fails == parallel.fails

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

    def test_random_families_count_toward_the_budget(self, monkeypatch):
        # Each table is estimated with its random families where the
        # group checks theorem 2.  The acceptance sweep's 100 families at
        # orders 1-4 stay well inside the budget; ten million families on
        # the 8 order-2 tables are refused before the catalog index is
        # read.  The groups without theorem 2 never draw the families, so
        # 1000 of them cost those groups nothing.
        est = lambda tables, families: tables * (
            sweep._INSTANCE_SECONDS + families * sweep._FAMILY_SECONDS)
        assert est(3614, 100) < 5 < 10 < est(3614, 1000) < est(8, 10_000_000)
        sweep.iter_sweep(SweepConfig(max_order=4, random_families=100, parallelism=1)).close()
        for group in ("lemmas", "1", "cor1", "cor2"):
            sweep.iter_sweep(SweepConfig(max_order=4, random_families=1000, theorem=group,
                                         parallelism=1)).close()

        def indexed(n):
            raise AssertionError(f"the order-{n} catalog index was read")

        monkeypatch.setattr(sweep, "_orbit_index", indexed)
        with pytest.raises(WorkBudgetExceeded,
                           match="the sweep of 8 labeled tables with up to 10,000,000 random "
                                 "families each needs about 240 s"):
            sweep.iter_sweep(SweepConfig(min_order=2, max_order=2, random_families=10_000_000))
        for group in ("2", "all"):
            with pytest.raises(WorkBudgetExceeded,
                               match="the sweep of 3,614 labeled tables with up to 1,000 random "
                                     "families each needs about 11.9 s"):
                sweep.iter_sweep(SweepConfig(max_order=4, random_families=1000, theorem=group))

    def test_summary_lines(self):
        rep = run_sweep(SweepConfig(max_order=2, theorem="lemmas"))
        lines = rep.summary_lines()
        assert lines[0] == "instances: 9"
        assert lines[1].startswith("checks: pass=")


    @pytest.mark.parametrize("cpus", [1, 64])
    def test_budget_is_the_serial_estimate_on_any_machine(self, started_workers, monkeypatch,
                                                          cpus):
        # Whether a sweep is refused never depends on how many CPUs
        # would share it.  started_workers keeps the accepted sweeps
        # from forking.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        for lo in range(1, 5):
            sweep.iter_sweep(SweepConfig(min_order=lo, max_order=4, parallelism=cpus)).close()
        with pytest.raises(WorkBudgetExceeded, match="the sweep of 183,732 labeled tables"):
            sweep.iter_sweep(SweepConfig(min_order=5, max_order=5, parallelism=cpus))


@pytest.fixture
def started_workers(monkeypatch):
    """Replaces the forking starter with a recorder of worker counts that
    runs the items in this process, so no worker is ever started."""
    counts = []

    def recorder(items, owners, workers):
        counts.append(workers)
        return (sweep._instance_worker(item) for item in items)

    monkeypatch.setattr(sweep, "_forked", recorder)
    return counts


@pytest.mark.parametrize(
    "cpus,jobs,started", [(3, 64, [3]), (16, 4, [4]), (1, 8, []), (None, 8, [])]
)
def test_jobs_capped_at_cpu_count(started_workers, monkeypatch, cpus, jobs, started):
    # Without an affinity mask the cap is the CPU count, an unknown
    # count read as one.  Orders 1-3 are 8 chunks.
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    rep = run_sweep(SweepConfig(max_order=3, theorem="lemmas", parallelism=jobs))
    assert started_workers == started
    serial = run_sweep(SweepConfig(max_order=3, theorem="lemmas", parallelism=1))
    assert rep.records == serial.records


def test_workers_capped_by_affinity_and_chunks(started_workers, monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_sweep(SweepConfig(max_order=3, theorem="lemmas", parallelism=8))
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(64)))
    run_sweep(SweepConfig(max_order=3, theorem="lemmas", parallelism=64))
    # The 9 tables of orders 1-2 are one chunk: no worker starts.
    run_sweep(SweepConfig(max_order=2, theorem="lemmas", parallelism=64))
    assert started_workers == [2, 8]


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestWorkers:
    """The forked route on two workers, whatever this machine's CPUs."""

    CFG = SweepConfig(max_order=3, theorem="lemmas", parallelism=2)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def failing_at(self, monkeypatch):
        """Makes the worker function call ``fail`` on order 3, index 5."""
        worker = sweep._instance_worker

        def plant(fail):
            def patched(item):
                if item[1:3] == (3, 5):
                    fail()
                return worker(item)

            monkeypatch.setattr(sweep, "_instance_worker", patched)

        return plant

    @pytest.fixture
    def logging_items(self, monkeypatch, tmp_path):
        """Makes the worker function log (pid, order, idx) of each item
        it starts; returns a reader of the log."""
        log = tmp_path / "started"
        worker = sweep._instance_worker

        def plant():
            log.touch()

            def patched(item):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {item[1]} {item[2]}\n")
                return worker(item)

            monkeypatch.setattr(sweep, "_instance_worker", patched)
            return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

        return plant

    def test_no_class_is_planned_in_two_workers(self, monkeypatch, tmp_path):
        # Each class belongs to one worker, so its plan is built once,
        # whichever labeled copy of it comes first.
        log = tmp_path / "planned"
        log.touch()
        plan = sweep._plan

        def logging(R, group):
            if group not in R._memo["plan"]:
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {R.table}\n")
            return plan(R, group)

        monkeypatch.setattr(sweep, "_plan", logging)
        with deadline(30):
            run_sweep(SweepConfig(max_order=3, theorem="cor1", parallelism=2))
        planned = [line.split(" ", 1) for line in log.read_text().splitlines()]
        pids = {}
        for pid, table in planned:
            pids.setdefault(table, set()).add(pid)
        assert len(pids) == 1 + 5 + 24
        assert all(len(p) == 1 for p in pids.values())
        assert len({pid for pid, _ in planned}) == 2
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cpus_run_every_item_once(self, logging_items, monkeypatch):
        # Six workers share the 122 tables of orders 1-3, whatever this
        # machine's CPUs.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 6)
        serial = run_sweep(replace(self.CFG, parallelism=1))
        started = logging_items()
        with deadline(30):
            parallel = run_sweep(replace(self.CFG, parallelism=6))
        assert parallel.records == serial.records
        items = [(n, idx) for _, n, idx in started()]
        assert sorted(items) == sorted(set(items)) and len(items) == serial.instances
        assert multiprocessing.active_children() == []

    def test_a_stalled_reader_holds_each_worker_at_its_pipe(self, logging_items):
        # The full checks on orders 1-3 make chunks larger than a 64 KiB
        # pipe, so a worker is held in send once the parent holds one
        # of its chunks and stops reading: at most two chunks per worker
        # start.  Corollary 1 alone would not show this: its chunks
        # (about 13 KB each) all fit in the pipes, and every table
        # starts.
        started = logging_items()
        instances = sweep.iter_sweep(SweepConfig(max_order=3, parallelism=2))
        next(instances)
        time.sleep(1)
        assert len(started()) <= 2 * 2 * sweep._CHUNK
        instances.close()
        assert multiprocessing.active_children() == []

    def test_a_killed_parent_leaves_no_worker(self):
        # The parent stalls on a full stdout with each worker held in
        # send; once it is killed, each worker finds its pipe closed
        # and exits without a traceback.
        proc = subprocess.Popen(
            [sys.executable, "-m", "sglab.cli", "verify", "--max-order", "4", "--structured"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().startswith(b"order=1 ")
            time.sleep(2)
            proc.kill()
            proc.wait()
            t0 = time.monotonic()
            with pytest.raises(ProcessLookupError):
                while time.monotonic() - t0 < 10:
                    os.killpg(proc.pid, 0)
                    time.sleep(0.05)
            assert b"Traceback" not in proc.stderr.read()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_dead_worker_is_an_error_not_a_hang(self, failing_at):
        failing_at(lambda: os._exit(1))
        t0 = time.monotonic()
        with deadline(30), pytest.raises(WorkerDied, match="exit code 1 "):
            run_sweep(self.CFG)
        assert time.monotonic() - t0 < 10
        assert multiprocessing.active_children() == []

    def test_a_clean_exit_that_owes_a_chunk_is_a_death(self, failing_at):
        # Exit code 0 is no excuse while the worker's chunk is unsent.
        failing_at(lambda: os._exit(0))
        with deadline(30), pytest.raises(WorkerDied, match="exit code 0 "):
            run_sweep(self.CFG)
        assert multiprocessing.active_children() == []

    def test_verify_exits_nonzero_when_a_worker_dies(self, failing_at, capsys):
        failing_at(lambda: os._exit(1))
        with deadline(30):
            code = cli.run_command(["verify", "--max-order", "3", "--theorem", "lemmas",
                                    "--structured", "--jobs", "2"])
        assert code == 2 and "exit code 1" in capsys.readouterr().err

    def test_worker_exception_is_raised_with_its_type(self, failing_at):
        def planted():
            raise NotACongruence("planted")

        failing_at(planted)
        with deadline(30), pytest.raises(NotACongruence, match="planted"):
            run_sweep(self.CFG)
        assert multiprocessing.active_children() == []

    def test_early_close_stops_the_workers(self):
        # Each worker's chunks exceed its pipe, so a worker is held in
        # send until the sweep is closed, and both are alive here.
        instances = sweep.iter_sweep(SweepConfig(max_order=3, parallelism=2))
        next(instances)
        assert len(multiprocessing.active_children()) == 2
        instances.close()
        assert multiprocessing.active_children() == []
