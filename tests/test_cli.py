import subprocess
import sys

import pytest

from sglab import format_sg
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

    def test_congruences(self, capsys, sg_file, chain3):
        code, out, _ = run(capsys, "congruences", sg_file("c.sg", chain3))
        assert code == 0
        assert out.splitlines() == ["{0,1,2}", "{0,1};{2}", "{0};{1,2}", "{0};{1};{2}"]

    def test_permid(self, capsys, sg_file, lz2):
        code, out, _ = run(capsys, "permid", sg_file("l.sg", lz2), "--max-n", "3")
        assert code == 0 and out == "n=3 perm 1 3 2\n"

    def test_permid_not_found(self, capsys, sg_file, lz2mon):
        code, out, _ = run(capsys, "permid", sg_file("m.sg", lz2mon))
        assert code == 0 and out == "none found up to n=4\n"

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

    def test_enumerate_above_catalog_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "enumerate", "5")
        assert code == 2 and out == "" and "order 5 exceeds the configured bound 4" in err


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

    def test_order_and_max_order_conflict(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "2", "--max-order", "3")
        assert code == 2 and "not both" in err

    def test_max_order_covers_small_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "2", "--theorem", "lemmas")
        assert code == 0
        assert out.splitlines()[0] == "instances: 9"

    def test_explicit_family_mode_is_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--order", "2", "--family-mode", "explicit",
                             "--theorem", "1")
        assert code == 2 and out == "" and "explicit" in err

    def test_order_above_catalog_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--order", "5")
        assert code == 2 and out == "" and "order 5 exceeds the configured bound 4" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


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
