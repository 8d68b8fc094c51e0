import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

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
    enumerate_semigroups,
    find_permutation_identity,
    run_sweep,
    validate,
)
from sglab import catalog, cli, sweep
from sglab.sweep import _instance_checks, _random_families


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
            checks = [_instance_checks(cfg, n, 0, T) for T in (S, op)]
            mine, theirs = (sorted((c, r.check, r.status) for c, r in out) for out in checks)
            assert mine == theirs, S.table
            representatives += 1
    assert representatives == 218


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

    def test_searches_past_length_four_are_the_catalog_count(self):
        # The tables whose identity search goes on past length 4, counted
        # on the catalog itself.
        for n in range(1, 5):
            tables = enumerate_semigroups(n)
            searching = sum(find_permutation_identity(S, 4) is None for S in tables)
            assert sweep._SEARCHES_PAST_FOUR[n] == searching, n

    def test_identity_searches_past_length_four_are_estimated(self, started_workers):
        # Order 4's 584 searching tables are over the budget from length
        # 6 on (about 13.3 s with the sweep); order 3's 6 stay under it
        # up to length 8, the last its search accepts.  The default bound
        # adds nothing, and a sweep that runs no search is not charged.
        for lo, hi, n_max in ((1, 3, 8), (1, 3, 9), (1, 4, 4), (4, 4, 5)):
            sweep.iter_sweep(SweepConfig(min_order=lo, max_order=hi, n_max_permutation=n_max))
        sweep.iter_sweep(SweepConfig(min_order=4, max_order=4, n_max_permutation=8,
                                     theorem="lemmas"))
        for n_max in (6, 7, 8):
            with pytest.raises(WorkBudgetExceeded, match="the sweep of 3,492 labeled tables"):
                sweep.iter_sweep(SweepConfig(min_order=4, max_order=4, n_max_permutation=n_max))

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

    @pytest.fixture
    def logging_items(self, monkeypatch, tmp_path):
        """Makes the worker function log (pid, order, idx) of each item
        it starts, after a 20 ms sleep on the (order, idx) pairs in
        ``slow``; returns a reader of the log."""
        log = tmp_path / "started"
        worker = sweep._instance_worker

        def plant(slow=()):
            log.touch()

            def patched(item):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {item[1]} {item[2]}\n")
                if item[1:3] in slow:
                    time.sleep(0.02)
                return worker(item)

            monkeypatch.setattr(sweep, "_instance_worker", patched)
            return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

        return plant

    def test_a_slow_chunk_does_not_hold_back_the_next_ones(self, logging_items):
        serial = run_sweep(replace(self.CFG, parallelism=1))
        items = [(n, idx) for n in range(1, 4) for idx, _ in enumerate(enumerate_semigroups(n))]
        chunk = lambda c: items[c * sweep._CHUNK:(c + 1) * sweep._CHUNK]
        started = logging_items(slow=set(chunk(0)))
        with deadline(30):
            parallel = run_sweep(self.CFG)
        assert parallel.records == serial.records
        assert parallel.counts == serial.counts and parallel.fails == serial.fails
        # While one worker sleeps through chunk 0 (about 0.3 s), the
        # other claims chunks 1, 2 and 3.
        pid = {(n, idx): p for p, n, idx in started()}
        assert {pid[item] for item in chunk(0)}.isdisjoint(pid[item] for item in chunk(2))
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cpus_claim_each_chunk_once(self, logging_items, monkeypatch):
        # Six workers share the 8 chunks of orders 1-3 and their claims
        # pipe, whatever this machine's CPUs.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 6)
        serial = run_sweep(replace(self.CFG, parallelism=1))
        started = logging_items()
        with deadline(30):
            parallel = run_sweep(replace(self.CFG, parallelism=6))
        assert parallel.records == serial.records
        items = [(n, idx) for _, n, idx in started()]
        assert sorted(items) == sorted(set(items)) and len(items) == serial.instances
        assert multiprocessing.active_children() == []

    def test_claims_stop_a_window_ahead_of_the_reader(self, logging_items):
        # Corollary 1 on the 122 tables of orders 1-3 takes well under
        # the pause, and its chunks (about 13 KB each) all fit in the
        # result pipes, so without the window every table would start.
        started = logging_items()
        instances = sweep.iter_sweep(SweepConfig(max_order=3, theorem="cor1", parallelism=2))
        next(instances)
        time.sleep(1)
        assert len(started()) <= 2 * 2 * sweep._CHUNK
        instances.close()
        assert multiprocessing.active_children() == []

    def test_a_killed_parent_leaves_no_worker(self):
        # The parent stalls on a full stdout with the window claimed;
        # once it is killed, each worker finds its pipes closed and
        # exits without a traceback.
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
        # The window holds the workers' claims to four of the eight
        # chunks ahead of the reader, and a worker waits for its next
        # claim until the sweep is closed, so both are alive here.
        instances = sweep.iter_sweep(SweepConfig(max_order=3, parallelism=2))
        next(instances)
        assert len(multiprocessing.active_children()) == 2
        instances.close()
        assert multiprocessing.active_children() == []
