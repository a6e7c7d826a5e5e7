"""CLI behaviour: subcommands, formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stringc
from stringc.cli import run_cli
from stringc.families import family_catalog

GOLDENS = Path(__file__).parent / "goldens"


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


class TestInstantiate:
    def test_dsl_output(self):
        code, text = run(["instantiate", "T8#1", "--n", "14"])
        assert code == 0
        assert text.startswith("prg 14 7\n")
        assert (GOLDENS / "t8_1_n14.prg").read_text() == text

    def test_dot_golden(self):
        code, text = run(["instantiate", "T4#1", "--n", "14", "--format", "dot"])
        assert code == 0
        assert (GOLDENS / "t4_1_n14.dot").read_text() == text

    def test_json_output(self):
        code, text = run(["instantiate", "T6#17", "--n", "14", "--i", "2",
                          "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["vertices"] == 14 and payload["rank"] == 7

    def test_domain_error_exit_2(self):
        code, _ = run(["instantiate", "T4#1", "--n", "16"])
        assert code == 2

    def test_unknown_flag_exit_2(self):
        code, _ = run(["instantiate", "T4#1", "--n", "14", "--bogus"])
        assert code == 2

    def test_missing_subcommand_exit_2(self):
        code, _ = run([])
        assert code == 2


class TestVerifyCommand:
    def test_single_pass_exit_0(self):
        code, text = run(["verify", "P61#2", "--n", "14", "--no-timing"])
        assert code == 0
        assert "PASS P61#2" in text

    def test_fail_exit_1(self):
        code, text = run(["verify", "T8#5", "--n", "14", "--no-timing"])
        assert code == 1
        assert "FAIL T8#5" in text

    def test_json_reports(self):
        code, text = run(["verify", "T5#13", "--n", "14", "--format", "json",
                          "--no-timing"])
        assert code == 0
        payload = json.loads(text)
        assert payload[0]["status"] == "PASS"
        assert "timing_ms" not in payload[0]

    def test_undecided_exit_1(self, monkeypatch):
        monkeypatch.setattr("stringc.sggi._ORBIT_CAP", 0)
        code, text = run(["verify", "P61#2", "--n", "14", "--no-timing"])
        assert code == 1
        assert text.startswith("UNDECIDED P61#2 ")
        assert "skipped=intersection_property,naive_oracle" in text
        assert text.endswith("# 0/1 instances pass, 1 undecided\n")
        code, text = run(["verify", "P61#2", "--n", "14", "--format", "json",
                          "--no-timing"])
        assert code == 1 and json.loads(text)[0]["status"] == "UNDECIDED"

    def test_jobs_must_be_positive(self, capsys):
        for argv in (["verify", "--n", "14", "--all", "--jobs", "0"],
                     ["search", "--ambient", "sym4-deg4", "--min-rank", "2",
                      "--jobs", "-1"]):
            code, text = run(argv)
            assert code == 2 and text == ""
            assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_runtime_error_exit_2(self, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker process died")

        monkeypatch.setattr("stringc.cli.verify_catalog", broken)
        code, text = run(["verify", "--n", "14", "--all", "--jobs", "2"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "stringc: error: a worker process died\n")

    @pytest.mark.parametrize("argv, message", [
        (["T8#1", "--n", "13"], "T8#1: requires even degree n, got 13"),
        (["T6#17", "--n", "14"], "T6#17: requires parameters ['i'], got []"),
        (["T8#1", "--n", "14", "--x", "3"],
         "T8#1: requires parameters [], got ['x']"),
        (["REP2N#1", "--n", "3"], "REP2N#1: requires n >= 7, got 3"),
        (["T8#1", "--n", "14", "--all"],
         "verify takes a family id or --all, not both"),
        (["--n", "14", "--all", "--i", "2"], "verify --all takes no --i or --x"),
        (["--n", "14", "--all", "--x", "1"], "verify --all takes no --i or --x"),
    ])
    def test_bad_parameters_exit_2(self, argv, message, capsys):
        code, text = run(["verify", "--no-timing"] + argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"stringc: error: {message}\n"

    def test_all_names_every_skipped_family(self):
        # At n = 5 only HIGHC#1 has an instance; every other family gets a
        # skip line with its reason, in catalog order.
        code, text = run(["verify", "--n", "5", "--all", "--no-timing"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("PASS HIGHC#1 ")
        skipped = [line.split()[2].rstrip(":") for line in lines
                   if line.startswith("# skipped ")]
        assert skipped == [d.id for d in family_catalog()
                           if d.id != "HIGHC#1"]
        assert "# skipped HIGHC#2: requires n >= 7, got 5" in lines
        assert lines[-1] == "# 1/1 instances pass"

    def test_byte_identical_with_no_timing(self):
        args = ["verify", "T6#21", "--n", "14", "--format", "json", "--no-timing"]
        assert run(args) == run(args)


class TestOtherCommands:
    def test_schlafli(self):
        code, text = run(["schlafli", "T8#1", "--n", "14"])
        assert code == 0 and text.strip() == "{2,3,3,3,3,3}"

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(stringc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "stringc", "catalog"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(["catalog"])[1]

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_2_quietly(self, unbuffered):
        # Unbuffered, the first write fails inside the command; buffered,
        # the output waits for the final flush.
        src = str(Path(stringc.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "stringc", "verify", "--n", "5", "--all"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == b""

    def test_catalog_counts(self):
        code, text = run(["catalog", "--format", "json"])
        assert code == 0
        rows = json.loads(text)
        assert len(rows) == 41
        assert {r["id"] for r in rows} >= {"T4#1", "T8#7", "P61#2", "REP2N#1"}

    def test_dual_partner(self):
        code, text = run(["dual", "T8#4", "--n", "14", "--i", "2"])
        assert code == 0
        assert "partner: T8#4" in text

    def test_dual_unlisted(self):
        code, text = run(["dual", "T5#13", "--n", "14"])
        assert code == 0
        assert "partner: unlisted" in text

    def test_search_table1_row(self):
        code, text = run(["search", "--ambient", "alt5-deg6", "--min-rank", "3",
                          "--no-timing"])
        assert code == 0
        assert "{3,5}" in text and "{5,5}" in text

    @pytest.mark.parametrize("extra, message", [
        (["--min-rank", "2", "--subgroup-order", "0"],
         "--subgroup-order: must be at least 1"),
        (["--min-rank", "2", "--max-rank", "0"],
         "--max-rank: must be at least 1"),
        (["--min-rank", "2", "--max-rank", "-1"],
         "--max-rank: must be at least 1"),
        (["--min-rank", "4", "--max-rank", "3"],
         "max_rank 3 is below min_rank 4"),
        (["--min-rank", "2", "--budget-sec", "nan"],
         "budget_sec must be positive, got nan"),
        (["--min-rank", "2", "--budget-sec", "0"],
         "budget_sec must be positive, got 0.0"),
        (["--min-rank", "2", "--budget-sec", "-1"],
         "budget_sec must be positive, got -1.0"),
    ])
    def test_search_bad_input_exit_2(self, extra, message, capsys):
        code, text = run(["search", "--ambient", "sym4-deg4", "--no-timing"]
                         + extra)
        assert code == 2 and text == ""
        assert message in capsys.readouterr().err
