import json
import subprocess
import sys

import pytest

from irrseq import FpPoly, cli
from irrseq.cli import main
from irrseq.errors import InternalInvariantError
from irrseq.sequence import SeqTrace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTransform:
    def test_published_values(self, capsys):
        assert run_cli(capsys, "transform", "--p", "7", "--poly", "x^2+2") == \
            (0, "x^4+3x^2+1\n", "")
        assert run_cli(capsys, "transform", "--p", "7", "--poly", "x") == \
            (0, "x^2+1\n", "")
        assert run_cli(capsys, "transform", "--p", "5", "--poly", "x^3+3x^2+2") == \
            (0, "x^6+x^5+3x^4+3x^3+3x^2+x+1\n", "")

    def test_q_variant(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--p", "3", "--poly",
                               "x^2+x+1", "--q-transform")
        assert (code, out) == (0, "x^4+x^3+x+1\n")

    def test_parse_error_names_token(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--p", "7", "--poly", "x^2+zebra")
        assert code == 2
        assert "zebra" in err

    def test_bad_prime(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--p", "9", "--poly", "x")
        assert code == 2 and "9" in err


class TestFactor:
    def test_split_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--p", "5", "--poly", "x^3+3x^2+2")
        assert (code, out) == (0, "split: x^3+3x+3 * x^3+x^2+2\n")

    def test_irreducible_case(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--p", "7", "--poly", "x^2-3x-2")
        assert code == 0
        assert out == "irreducible: x^4+x^3+x^2+x+1\n"

    def test_excluded_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--p", "7", "--poly", "x+1")
        assert code == 2
        assert "x+1" in err and "x-1" in err

    def test_reducible_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--p", "7", "--poly", "x^2+x+1")
        assert code == 3
        assert "reducible" in err


class TestSequence:
    def test_published_summary_from_x(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--p", "7", "--poly", "x",
                               "--steps", "5")
        assert code == 0
        assert out.splitlines()[-1] == "e0=1 e1=4 s1=1 s2=3 backtracked=false"
        assert "f4 deg=4 irreducible x^4+6x^3+5x^2+6x+1" in out

    def test_published_backtracking_run(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--p", "7", "--poly", "x-3",
                               "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "e0=1 e1=4 s1=2 s2=3 backtracked=true"
        assert "f5 deg=4 irreducible x^4+x^3+x^2+x+1" in out

    def test_json_trace_round_trips(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "sequence", "--p", "7", "--poly", "x-3",
                             "--steps", "5", "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["backtracked"] is True
        trace = SeqTrace.from_json(path.read_text())
        assert trace.to_json() == path.read_text()

    def test_deterministic_output(self, capsys):
        a = run_cli(capsys, "sequence", "--p", "13", "--poly", "x^2+2x+3",
                    "--steps", "6")
        b = run_cli(capsys, "sequence", "--p", "13", "--poly", "x^2+2x+3",
                    "--steps", "6")
        assert a == b and a[0] == 0

    def test_invalid_inputs(self, capsys):
        assert run_cli(capsys, "sequence", "--p", "7", "--poly", "x^2+x+1",
                       "--steps", "3")[0] == 3
        assert run_cli(capsys, "sequence", "--p", "7", "--poly", "x",
                       "--steps", "0")[0] == 2


class TestTilde:
    def test_published_value(self, capsys):
        code, out, _ = run_cli(capsys, "tilde", "--p", "7", "--poly", "x^2+1")
        assert (code, out) == (0, "x\ndegree=1\n")

    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "tilde", "--p", "7", "--poly",
                               "x^4+6x^3+5x^2+6x+1")
        assert code == 0
        assert out.splitlines()[0] == "x^2+3x+6"

    def test_excluded(self, capsys):
        assert run_cli(capsys, "tilde", "--p", "7", "--poly", "x-1")[0] == 2
        assert run_cli(capsys, "tilde", "--p", "7", "--poly", "x")[0] == 2


class TestGraph:
    def test_report_tokens(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--p", "7", "--report")
        assert code == 0
        assert "depth=1" in out
        assert "conjugacy=pass" in out
        assert "violations=0" in out

    def test_extension_report(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--p", "3", "--n", "2", "--report")
        assert code == 0
        assert "q=9 nu2(q-1)=3" in out
        assert "depth=3" in out

    def test_dot_output(self, capsys, tmp_path):
        path = tmp_path / "out.dot"
        code, _, _ = run_cli(capsys, "graph", "--p", "5", "--dot", str(path))
        assert code == 0
        text = path.read_text()
        assert "0 -> inf;" in text
        code2, _, _ = run_cli(capsys, "graph", "--p", "5", "--dot", str(path))
        assert path.read_text() == text

    def test_oversize(self, capsys):
        assert run_cli(capsys, "graph", "--p", "1048583")[0] == 2


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p-max", "5", "--n-max", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith(" ")]
        assert all(l.startswith("ok ") for l in lines)
        assert any("sequence-goldens" in l for l in lines)

    def test_bad_bounds(self, capsys):
        assert run_cli(capsys, "verify", "--p-max", "1")[0] == 2


class TestExitCodes:
    @pytest.mark.parametrize("argv, code", [
        (["factor", "--p", "7", "--poly", "x^2+x+1"], 3),
        (["sequence", "--p", "7", "--poly", "x^2+x+1", "--steps", "3"], 3),
        (["tilde", "--p", "7", "--poly", "x^2+x+1"], 3),
        (["sequence", "--p", "7", "--poly", "x-1", "--steps", "3"], 2),
        (["factor", "--p", "9", "--poly", "x"], 2),
        (["sequence", "--p", "7", "--poly", "x", "--steps", "0"], 2),
        (["sequence", "--p", "7", "--poly", "x", "--steps", "2",
          "--json", "{missing}/trace.json"], 2),
        (["graph", "--p", "5", "--dot", "{missing}/out.dot"], 2),
        # refused from n alone: 3^30000000 is never computed
        (["graph", "--p", "3", "--n", "30000000"], 2),
    ])
    def test_table(self, capsys, tmp_path, argv, code):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_internal_invariant_is_verification_failure(self, capsys, monkeypatch):
        def broken(f):
            raise InternalInvariantError("split factors do not multiply back")

        monkeypatch.setattr(cli, "factor_r", broken)
        code, _, err = run_cli(capsys, "factor", "--p", "7", "--poly", "x^2+1")
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sequence_tests_seed_once(self, capsys, monkeypatch):
        seed = FpPoly("x^2+1", 7)
        calls = []
        original = FpPoly.is_irreducible

        def counting(self):
            if self == seed:
                calls.append(self)
            return original(self)

        monkeypatch.setattr(FpPoly, "is_irreducible", counting)
        assert run_cli(capsys, "sequence", "--p", "7", "--poly", "x^2+1",
                       "--steps", "3")[0] == 0
        assert len(calls) == 1


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "irrseq", "transform", "--p", "7", "--poly", "x"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "x^2+1\n"

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "irrseq"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
