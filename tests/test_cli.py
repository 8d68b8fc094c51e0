import contextlib
import hashlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sglab import (
    CheckReport,
    FiniteSemigroup,
    SweepConfig,
    cli,
    format_sg,
    run_sweep,
    sweep,
    validate,
)
from sglab.cli import run_command


@pytest.fixture
def sg_file(tmp_path):
    def write(name, S):
        p = tmp_path / name
        p.write_text(format_sg(S))
        return str(p)

    return write


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestQueries:
    def test_validate_good(self, capsys, sg_file, z2):
        code, out, _ = run(capsys, "validate", sg_file("z2.sg", z2))
        assert code == 0 and out == "valid: order 2\n"

    def test_validate_bad_table(self, capsys, tmp_path):
        p = tmp_path / "bad.sg"
        p.write_text("2\n1 1\n0 0\n")
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and out.startswith("invalid:")

    def test_validate_parse_error(self, capsys, tmp_path):
        p = tmp_path / "short.sg"
        p.write_text("2\n0 1\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sep", "no-such.sg", "{0}")
        assert code == 2 and "error" in err

    def test_sep(self, capsys, sg_file, z2):
        code, out, _ = run(capsys, "sep", sg_file("z2.sg", z2), "{0}")
        assert code == 0 and out == "{0}\n"

    def test_idealizer(self, capsys, sg_file, min2):
        code, out, _ = run(capsys, "idealizer", sg_file("m.sg", min2), "{0}")
        assert code == 0 and out == "{0,1}\n"

    def test_medial_true_and_false(self, capsys, sg_file, lz2, lz2mon):
        code, out, _ = run(capsys, "medial", sg_file("l.sg", lz2), "{0}")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "medial", sg_file("m.sg", lz2mon), "{1}")
        assert code == 0 and out == "false witness x=0 a=1 b=2 y=0\n"

    def test_pcong(self, capsys, sg_file, chain3):
        code, out, _ = run(capsys, "pcong", sg_file("c.sg", chain3), "{0}")
        assert code == 0 and out == "{0};{1,2}\n"

    def test_pcong_bad_family_literal(self, capsys, sg_file, chain3):
        code, _, err = run(capsys, "pcong", sg_file("c.sg", chain3), "{0};{9}")
        assert code == 2 and "error" in err

    def test_quotient(self, capsys, sg_file, chain3):
        code, out, _ = run(capsys, "quotient", sg_file("c.sg", chain3), "{0,1};{2}")
        assert code == 0
        assert out == "# projection 0 0 1\n2\n0 0\n0 1\n"

    def test_quotient_rejects_non_congruence(self, capsys, sg_file, chain3):
        code, out, _ = run(capsys, "quotient", sg_file("c.sg", chain3), "{0,2};{1}")
        assert code == 1 and out.startswith("not a congruence")

    def test_quotient_rejects_an_empty_class(self, capsys, sg_file, chain3):
        code, out, err = run(capsys, "quotient", sg_file("c.sg", chain3), "{0,1,2};{}")
        assert code == 2 and out == "" and "class 1 is empty" in err

    def test_congruences(self, capsys, sg_file, chain3):
        code, out, _ = run(capsys, "congruences", sg_file("c.sg", chain3))
        assert code == 0
        assert out.splitlines() == ["{0,1,2}", "{0,1};{2}", "{0};{1,2}", "{0};{1};{2}"]

    def test_congruences_above_order_six(self, capsys, sg_file):
        # Every partition of a null table is a congruence: Bell(7) = 877.
        null7 = validate([[0] * 7 for _ in range(7)])
        code, out, _ = run(capsys, "congruences", sg_file("n7.sg", null7))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 877 and lines[0] == "{0,1,2,3,4,5,6}"
        assert lines[-1] == "{0};{1};{2};{3};{4};{5};{6}"

    def test_congruences_over_the_work_budget_exit_2(self, capsys, sg_file, monkeypatch):
        # Order 12 (Bell(12) = 4213597 partitions) is refused before the
        # first partition is generated.
        from sglab import congruences

        def generated(n):
            raise AssertionError(f"a partition of order {n} was generated")

        monkeypatch.setattr(congruences, "_rgs_strings", generated)
        null12 = validate([[0] * 12 for _ in range(12)])
        code, out, err = run(capsys, "congruences", sg_file("n12.sg", null12))
        assert code == 2 and out == ""
        assert "the congruence search of an order-12 table" in err
        assert "over the budget of 10 s" in err

    def test_permid(self, capsys, sg_file, lz2):
        code, out, _ = run(capsys, "permid", sg_file("l.sg", lz2), "--max-n", "3")
        assert code == 0 and out == "n=3 perm 1 3 2\n"

    def test_permid_not_found(self, capsys, sg_file, lz2mon):
        code, out, _ = run(capsys, "permid", sg_file("m.sg", lz2mon))
        assert code == 0 and out == "none found up to n=4\n"

    def test_permid_over_work_budget_exits_2(self, capsys, sg_file, monkeypatch):
        # A left-zero band of 35 elements with an identity adjoined
        # satisfies no permutation identity.  Lengths 2-4 are searched as
        # usual; length 5 (119 comparisons of 36**5 cells) is refused
        # before its word tensor exists.
        n = 36
        S = validate([list(range(n))] + [[a] * n for a in range(1, n)])
        asked = []
        word_tensor = FiniteSemigroup.word_tensor

        def recording(S, k):
            asked.append(k)
            return word_tensor(S, k)

        monkeypatch.setattr(FiniteSemigroup, "word_tensor", recording)
        code, out, err = run(capsys, "permid", sg_file("m.sg", S), "--max-n", "40")
        assert code == 2 and out == ""
        assert "length-5 identity search" in err and "over the budget" in err
        assert max(asked) == 4

    def test_permid_within_budget_still_searches_long_lengths(self, capsys, sg_file, lz2mon):
        code, out, _ = run(capsys, "permid", sg_file("m.sg", lz2mon), "--max-n", "7")
        assert code == 0 and out == "none found up to n=7\n"

    def test_medial_on_a_large_table(self, capsys, sg_file):
        # Order 46: the length-4 word tensor has 46**4 (about 4.5M) cells,
        # well inside the cell budget.
        n = 46
        S = validate([list(range(n))] + [[a] * n for a in range(1, n)])
        code, out, _ = run(capsys, "medial", sg_file("big.sg", S), "{1}")
        assert code == 0 and out == "false witness x=0 a=1 b=2 y=0\n"

    def test_table_over_the_validation_budget_exits_2(self, capsys, sg_file, monkeypatch, lz2mon):
        from sglab import core

        path = sg_file("m.sg", lz2mon)
        # 27 triples at 40 ns are over a 0.1 us budget.
        monkeypatch.setattr(core, "_BUDGET_SECONDS", 1e-7)
        for argv in (("validate", path), ("sep", path, "{1}")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert "the associativity check of an order-3 table" in err, argv
            assert "over the budget of 1e-07 s" in err, argv

    def test_lemma4(self, capsys, sg_file, lz2, lz2mon):
        code, out, _ = run(capsys, "lemma4", sg_file("l.sg", lz2))
        assert code == 0 and out == "k=1\n"
        code, out, _ = run(capsys, "lemma4", sg_file("m.sg", lz2mon))
        assert code == 0
        assert out.splitlines()[0] == "absent"
        assert "k=1 counterexample u=0 x=1 y=2 v=0" in out

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0 and len(out.splitlines()) == 8
        code, out, _ = run(capsys, "enumerate", "2", "--up-to-iso")
        assert len(out.splitlines()) == 5
        code, out, _ = run(capsys, "enumerate", "4", "--up-to-iso")
        assert code == 0 and len(out.splitlines()) == 188

    def test_enumerate_order_five_up_to_iso(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--up-to-iso")
        assert code == 0 and len(out.splitlines()) == 1915

    def test_enumerate_above_catalog_bound_is_refused(self, capsys, no_tables):
        # Order 6 (17,061,118 labeled tables) is over the work budget,
        # labeled and up to isomorphism alike, before any table is built.
        for argv in (("enumerate", "6"), ("enumerate", "6", "--up-to-iso")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert "the order-6 catalog" in err and "over the budget of 10 s" in err, argv


class TestVerify:
    def test_summary_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "2", "--theorem", "lemmas")
        assert code == 0
        assert out.splitlines()[0] == "instances: 8"

    def test_structured_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "1", "--structured")
        assert code == 0
        for line in out.splitlines():
            assert line.startswith("order=1 table=")

    @pytest.mark.parametrize("structured", [(), ("--structured",)])
    def test_bare_verify_sweeps_the_default_config(self, capsys, monkeypatch, structured):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            yield from ()

        monkeypatch.setattr(cli, "iter_sweep", capture)
        code, _, _ = run(capsys, "verify", *structured)
        assert code == 0 and seen == [SweepConfig()]

    @pytest.mark.parametrize("structured", [(), ("--structured",)])
    @pytest.mark.parametrize(
        "scope", [(), ("--theorem", "lemmas"), ("--theorem", "2")]
    )
    def test_default_workers_match_a_serial_run(self, capsys, structured, scope):
        # The 113 tables of order 3 are 8 chunks, so the default route
        # forks one worker per usable CPU.
        argv = ("verify", "--order", "3", *scope, *structured)
        default = run(capsys, *argv)
        assert default == run(capsys, *argv, "--jobs", "1")
        assert default[0] == 0 and default[1]

    def test_order_and_max_order_conflict(self, capsys):
        code, out, err = run(capsys, "verify", "--order", "2", "--max-order", "3")
        assert code == 2 and out == ""
        # argparse's error line, after the usage, names both flags.
        assert {"--order", "--max-order"} <= {w.strip(":") for w in err.splitlines()[-1].split()}

    def test_max_order_covers_small_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "2", "--theorem", "lemmas")
        assert code == 0
        assert out.splitlines()[0] == "instances: 9"

    def test_explicit_family_mode_is_rejected(self, capsys):
        # Every sweep checks the theorems on one family list: there is no
        # family mode to pick, and naming one is a usage error.
        code, out, err = run(capsys, "verify", "--order", "2", "--family-mode",
                             "congruence-classes")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --family-mode congruence-classes" in err

    def test_explicit_identity_length_is_rejected(self, capsys):
        # The sweep searches permutation identities up to one fixed
        # length: there is no bound to pick, and naming one is a usage
        # error.
        code, out, err = run(capsys, "verify", "--order", "2", "--n-max-perm", "5")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --n-max-perm 5" in err

    def test_order_above_catalog_bound_is_refused(self, capsys, no_tables):
        # A sweep that includes order 5 is over the work budget and exits
        # 2 before any table is built.
        for argv in (("--order", "5"), ("--max-order", "5"), ("--max-order", "5", "--structured")):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2 and out == "", argv
            assert "labeled tables" in err and "over the budget of 10 s" in err, argv

    # Frozen stdout of `sglab verify --max-order 3 --structured --seed N`:
    # (line count, sha256).  Any change to a record's bytes, order or
    # count breaks it.
    @pytest.mark.parametrize(
        "seed,lines,digest",
        [
            (0, 10696, "a89ee1a1087357ef1352be8cf848502467c82c2d0e4ec7f434e684148b53267a"),
            (1, 10696, "3d254d52f7dbcbb1804668c509c7eb631020264eecc8829a89d8094992fa946b"),
        ],
    )
    def test_structured_output_matches_frozen_digest(self, capsys, seed, lines, digest):
        code, out, _ = run(capsys, "verify", "--max-order", "3", "--structured",
                           "--seed", str(seed))
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class _RecordingSink(io.TextIOBase):
    """Stands in for stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, s):
        self.writes.append(s)
        return len(s)


class TestStructuredOutput:
    ARGV = ("verify", "--max-order", "2", "--structured")

    def writes(self):
        sink = _RecordingSink()
        with contextlib.redirect_stdout(sink):
            assert run_command(list(self.ARGV)) == 0
        return sink.writes

    def test_matches_one_print_per_line(self):
        expected = io.StringIO()
        for line in run_sweep(SweepConfig(max_order=2)).records:
            print(line, file=expected)
        assert "".join(self.writes()) == expected.getvalue()

    def test_no_write_exceeds_the_chunk_bound(self):
        # Each write is one instance's records: one write of every record
        # would hold the whole output twice over at once; one write per
        # line costs more than the checks.
        writes = self.writes()
        assert len(writes) == 1 + 8
        for w in writes:
            assert w.endswith("\n")
            assert len({line.split()[1] for line in w.splitlines()}) == 1

    def test_records_go_out_before_the_sweep_ends(self, monkeypatch):
        # The first write must not wait for the last instance: holding
        # every record until the end makes the whole output resident.
        calls = []
        worker = sweep._instance_worker

        def counting_worker(item):
            calls.append(item)
            return worker(item)

        monkeypatch.setattr(sweep, "_instance_worker", counting_worker)
        done_at_write = []

        class Sink(_RecordingSink):
            def write(self, s):
                done_at_write.append(len(calls))
                return super().write(s)

        with contextlib.redirect_stdout(Sink()):
            # In this process, so the calls can be counted here.
            assert run_command(["verify", "--max-order", "3", "--structured", "--jobs", "1"]) == 0
        assert len(calls) == 1 + 8 + 113
        assert done_at_write[0] < len(calls)

    def test_record_hook_reaches_the_output(self, monkeypatch):
        # The benchmark's smoke test corrupts the first record through
        # this hook and expects the output to change.
        out = "".join(self.writes())
        record = CheckReport.record
        seen = []

        def failing_once(rep):
            line = record(rep)
            if not seen:
                seen.append(line)
                line = line.replace("status=pass", "status=fail")
            return line

        monkeypatch.setattr(CheckReport, "record", failing_once)
        changed = "".join(self.writes())
        differing = [a for a, b in zip(out.splitlines(), changed.splitlines()) if a != b]
        assert len(seen) == 1 and len(differing) == 1 and "status=fail" in changed


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_readme_command_lines_parse(self, capsys):
        # Every command line README shows, in a shell block or inline,
        # still parses; an inline span of one word after `sglab` names a
        # command, and so must take --help.  Nothing is run.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("sglab ")]
        lines += re.findall(r"`(sglab [^`]*)`", text)
        commands = [shlex.split(line, comments=True)[1:] for line in lines]
        commands = [argv if len(argv) > 1 else [*argv, "--help"] for argv in commands]
        assert len(commands) > 20

        def exit_code(argv):
            try:
                cli._build_parser().parse_args(argv)
            except SystemExit as e:
                return e.code
            return 0

        assert [argv for argv in commands if exit_code(argv) != 0] == []


def test_reader_hanging_up_stops_a_parallel_sweep():
    # The reader takes one line and closes the pipe: the next write
    # fails, the workers are torn down and the command still exits 0.
    proc = subprocess.Popen(
        [sys.executable, "-m", "sglab.cli", "verify", "--max-order", "4", "--structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"order=1 ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert b"Traceback" not in proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_console_script_end_to_end(tmp_path):
    p = tmp_path / "z2.sg"
    p.write_text("2\n0 1\n1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sglab.cli", "sep", str(p), "{1}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "{0}\n"
