import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from sglab import (
    ElementSet,
    FiniteSemigroup,
    NotACongruence,
    SweepConfig,
    WorkBudgetExceeded,
    WorkerDied,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    run_sweep,
    validate,
)
from sglab import catalog, cli, sweep
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
    runs the chunks in this process, so no worker is ever started."""
    counts = []

    def recorder(chunks, workers):
        counts.append(workers)
        return (sweep._instance_worker(item) for chunk in chunks for item in chunk)

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

    def test_dead_worker_is_an_error_not_a_hang(self, failing_at):
        failing_at(lambda: os._exit(1))
        t0 = time.monotonic()
        with deadline(30), pytest.raises(WorkerDied, match="exit code 1 "):
            run_sweep(self.CFG)
        assert time.monotonic() - t0 < 10
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
        # A chunk of full order-3 records is over a pipe's 64 KiB, so
        # neither worker can finish before the close.
        instances = sweep.iter_sweep(SweepConfig(max_order=3, parallelism=2))
        next(instances)
        assert len(multiprocessing.active_children()) == 2
        instances.close()
        assert multiprocessing.active_children() == []
