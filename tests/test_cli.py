import json
import os
import subprocess
import sys
from pathlib import Path

from trisum import cli
from trisum.cli import main
from trisum.core_arith import ConstructionFailed, Quad1
from trisum.squares import NotRepresentable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "decompose", "201", "--theorem", "1")
        assert code == 0
        assert out == "thm1(201): a=7 b=5 c=5 d=2 [ok]\n"
        assert err == ""

    def test_json_output_field_order(self, capsys):
        code, out, _ = run(capsys, "decompose", "20001", "--theorem", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["n", "form", "witness", "check"]
        assert payload == {
            "n": 20001,
            "form": "thm2",
            "witness": [48, 19, 50, 6],
            "check": True,
        }

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "decompose", "0", "--theorem", "2", "--json")
        assert code == 0
        assert json.loads(out)["witness"] == [0, 0, 0, 0]

    def test_oversized_input_is_usage_error(self, capsys):
        code, out, err = run(capsys, "decompose", str(2**58 + 1), "--theorem", "1")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_second_form_above_two_to_the_56(self, capsys):
        code, out, err = run(capsys, "decompose", "144115188075855872", "--theorem", "2")
        assert code == 0
        assert out.startswith("thm2(144115188075855872): ")
        assert out.endswith(" [ok]\n")
        assert err == ""

    def test_theorem_flag_required(self, capsys):
        code, _, _ = run(capsys, "decompose", "5")
        assert code == 2

    def test_negative_input(self, capsys):
        assert run(capsys, "decompose", "--theorem", "1", "--", "-5")[0] == 2

    def test_wrong_witness_is_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "represent_thm1", lambda n: Quad1(0, 0, 0, 0))
        code, out, err = run(capsys, "decompose", "201", "--theorem", "1")
        assert code == 1
        assert out == "thm1(201): a=0 b=0 c=0 d=0 [MISMATCH]\n"
        assert err == ""
        code, out, _ = run(capsys, "decompose", "201", "--theorem", "1", "--json")
        assert code == 1
        assert json.loads(out) == {"n": 201, "form": "thm1", "witness": [0, 0, 0, 0], "check": False}


class TestVerify:
    def test_conjecture_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--form", "conjecture", "--to", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("conjecture on [0, 1000]: exceptions: 8, 68 (")
        assert lines[0].endswith(" ms)")
        assert lines[1] == "as expected"

    def test_clean_form_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--form", "thm1", "--to", "4000")
        assert code == 0
        assert "exceptions: none" in out

    def test_json_has_exactly_seven_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--form", "thm2", "--to", "2000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["form", "lo", "hi", "exceptions", "elapsed_ms", "stages", "holes"]
        assert payload["form"] == "thm2"
        assert payload["lo"] == 0
        assert payload["hi"] == 2000
        assert payload["exceptions"] == []
        assert isinstance(payload["elapsed_ms"], float)

    def test_json_stages_are_name_ms_pairs(self, capsys):
        # a list of [name, ms] pairs in the order the stages ran, the output
        # format of `verify --json`
        code, out, _ = run(capsys, "verify", "--form", "thm1", "--to", "2000", "--json")
        assert code == 0
        stages = json.loads(out)["stages"]
        names = [name for name, _ in stages]
        assert names == ["full odd+odd", "partial even+even", "lookup"]
        assert all(isinstance(ms, float) and ms >= 0.0 for _, ms in stages)

    def test_conjecture_json_exceptions(self, capsys):
        code, out, _ = run(capsys, "verify", "--form", "conjecture", "--to", "100", "--json")
        assert code == 0
        assert json.loads(out)["exceptions"] == [8, 68]

    def test_partial_forms_are_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "--form", "conj_a", "--to", "200")
        assert code == 0
        assert "informational" in out
        code, out, _ = run(capsys, "verify", "--form", "conj_b", "--to", "200")
        assert code == 0

    def test_cap_requires_full_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--form", "thm1", "--to", str(2 * 10**8))
        assert code == 2
        assert "--full" in err

    def test_negative_range(self, capsys):
        assert run(capsys, "verify", "--form", "thm1", "--to", "-1")[0] == 2

    def test_unknown_form(self, capsys):
        assert run(capsys, "verify", "--form", "thm3", "--to", "10")[0] == 2

    def test_wrong_exceptions_are_a_mismatch(self, capsys, monkeypatch):
        real = cli.verify_range

        def one_off(form, lo, hi, *, full=False):
            # drops the first exception of conjecture, adds 7 to thm1's none
            report = real(form, lo, hi, full=full)
            return report._replace(exceptions=report.exceptions[1:] or (7,))

        monkeypatch.setattr(cli, "verify_range", one_off)
        code, out, err = run(capsys, "verify", "--form", "conjecture", "--to", "100")
        assert code == 1
        assert out.startswith("conjecture on [0, 100]: exceptions: 68 (")
        assert "as expected" not in out
        assert err == "MISMATCH: expected exceptions: 8, 68\n"
        code, out, err = run(capsys, "verify", "--form", "thm1", "--to", "100", "--json")
        assert code == 1
        assert json.loads(out)["exceptions"] == [7]
        assert err == "MISMATCH: expected exceptions: none\n"


class TestSelftest:
    def test_small_range(self, capsys):
        code, out, _ = run(capsys, "selftest", "--to", "300")
        assert code == 0
        assert "checked 301 inputs against brute force: 0 failures" in out
        assert "theorem-2 branches:" in out
        # one count per branch; the paper's descent is no branch of the construction
        summary = out.split("theorem-2 branches: ", 1)[1].split(";", 1)[0]
        assert [kv.split("=")[0] for kv in summary.split()] == ["brute", "square", "doubled"]

    def test_with_random_inputs(self, capsys):
        code, out, _ = run(capsys, "selftest", "--to", "20", "--random", "5", "--seed", "11")
        assert code == 0
        assert "checked 5 random large inputs" in out

    def test_random_block_reports_its_own_failures(self, capsys, monkeypatch):
        real, wrong = cli.represent_thm2, []

        def one_wrong_each(n):
            # a wrong witness for n = 3 and for the first random input
            if n == 3 or (n >= cli._RANDOM_LO and len(wrong) < 2):
                wrong.append(n)
                return (0, 0, 0, 0)
            return real(n)

        monkeypatch.setattr(cli, "represent_thm2", one_wrong_each)
        code, out, err = run(capsys, "selftest", "--to", "5", "--random", "3", "--seed", "11")
        assert code == 1
        assert "checked 6 inputs against brute force: 1 failures" in out
        assert "checked 3 random large inputs: 1 failures" in out
        assert f"FAIL thm2 n={wrong[-1]} witness=(0, 0, 0, 0)" in err

    def test_seed_changes_nothing_about_verdict(self, capsys):
        for seed in (0, 1, 2):
            code, _, _ = run(capsys, "selftest", "--to", "5", "--random", "2", "--seed", str(seed))
            assert code == 0

    def test_rejects_negative_counts(self, capsys):
        assert run(capsys, "selftest", "--to", "-1")[0] == 2
        assert run(capsys, "selftest", "--to", "5", "--random", "-2")[0] == 2


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_failed_construction_is_not_a_usage_error(capsys, monkeypatch):
    def fail(n):
        raise ConstructionFailed(f"no witness for n={n}")

    monkeypatch.setattr(cli, "represent_thm1", fail)
    code, out, err = run(capsys, "decompose", "12345", "--theorem", "1")
    assert code == 1
    assert out == ""
    assert "error: no witness for n=12345" in err
    code, _, err = run(capsys, "selftest", "--to", "3")
    assert code == 1
    assert "FAIL thm1 n=3 witness=None" in err


def test_selftest_counts_a_typed_error_as_a_failed_input(capsys, monkeypatch):
    # any ValueError on an input in range is a FAIL line and exit 1, never a usage error
    real = cli.represent_thm2

    def fail_at_four(n):
        if n == 4:
            raise NotRepresentable(f"forced for n={n}")
        return real(n)

    monkeypatch.setattr(cli, "represent_thm2", fail_at_four)
    code, out, err = run(capsys, "selftest", "--to", "5")
    assert code == 1
    assert "checked 6 inputs against brute force: 1 failures" in out
    assert err == "FAIL thm2 n=4 witness=None\n"


def test_module_entry_point_in_a_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def trisum(*argv):
        return subprocess.run(
            [sys.executable, "-m", "trisum.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    done = trisum("decompose", "201", "--theorem", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "thm1(201): a=7 b=5 c=5 d=2 [ok]\n", "")
    done = trisum("decompose", str(2**58 + 1), "--theorem", "1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
