import json
import math

import pytest

from kway.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestViolationCommand:
    def test_n2_at_pi(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi", "3.14159265358979")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "n,phi,delta_numeric,delta_closed_form,regime,B_quantum,B_classical_bound"
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(cells[5]) == pytest.approx(2.0, abs=1e-9)
        assert cells[6] == "1"

    def test_delta_max_search_when_phi_absent(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "3")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert float(cells[2]) == pytest.approx(2 / 3, abs=1e-6)
        assert cells[4] == "violation"

    def test_phi_deg(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi-deg", "180")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[2]) == pytest.approx(1.0, abs=1e-9)

    def test_guard(self, capsys):
        code, _, err = run(capsys, "violation", "--n", "1")
        assert code == 2

    def test_n2_row_uses_one_phase_pattern(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi", "0.7759")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[2] == cells[3]
        assert float(cells[2]) == pytest.approx((math.sqrt(5 - 4 * math.cos(0.7759)) - 1) / 2, abs=1e-12)
        assert cells[4] == "violation"

    @pytest.mark.parametrize("command,n", [("violation", "4"), ("witness", "3")])
    @pytest.mark.parametrize("flag", ["--phi", "--phi-deg"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_phase_is_usage_error(self, capsys, command, n, flag, value):
        code, out, err = run(capsys, command, "--n", n, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "4", "--phi", "1.0", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 4
        assert rows[0]["delta_numeric"] == pytest.approx(rows[0]["delta_closed_form"], abs=1e-8)

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, "violation", "--n", "5", "--phi", "0.7")
        _, b, _ = run(capsys, "violation", "--n", "5", "--phi", "0.7")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi", "3.1", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")


class TestPolytopeCommand:
    def test_n2_k1(self, capsys):
        code, out, _ = run(capsys, "polytope", "--n", "2", "--k", "1")
        assert code == 0
        assert "vertices 6" in out
        assert "max_B 1" in out

    def test_n3_k2(self, capsys):
        code, out, _ = run(capsys, "polytope", "--n", "3", "--k", "2")
        assert code == 0
        assert "max_B 2" in out

    def test_size_guard(self, capsys):
        code, _, _ = run(capsys, "polytope", "--n", "5", "--k", "2")
        assert code == 2


class TestGroverCommand:
    def test_n4_curve(self, capsys):
        code, out, _ = run(capsys, "grover", "--n", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,p_quantum,p_classical,gap"
        assert "4,1,0.875,0.625,0.25" in lines

    def test_kmax_zero(self, capsys):
        code, out, _ = run(capsys, "grover", "--n", "16", "--kmax", "0")
        assert code == 0
        assert out.strip().split("\n")[1] == "16,0,0.5,0.5,0"

    def test_guard(self, capsys):
        assert run(capsys, "grover", "--n", "1")[0] == 2
        assert run(capsys, "grover", "--n", "4", "--kmax", "9")[0] == 2


class TestWitnessCommand:
    def test_n2_pi(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--phi", "3.14159265358979")
        assert code == 0
        assert "member_k1 false" in out
        b = float(next(l for l in out.split("\n") if l.startswith("B ")).split()[1])
        assert b == pytest.approx(2.0, abs=1e-9)

    def test_n3_violation(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3", "--phi", str(math.pi / 2))
        assert code == 0
        b = float(next(l for l in out.split("\n") if l.startswith("B ")).split()[1])
        assert b > 2
        assert "member_k2 false" in out

    def test_n3_identity_oracle_is_member(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3", "--phi", "0")
        assert code == 0
        b = float(next(l for l in out.split("\n") if l.startswith("B ")).split()[1])
        assert b == pytest.approx(2.0, abs=1e-9)
        assert "member_k2 true" in out

    def test_guards(self, capsys):
        assert run(capsys, "witness", "--n", "4", "--phi", "1.0")[0] == 2
        assert run(capsys, "witness", "--n", "3")[0] == 2  # phi required


class TestScanCommand:
    def test_small_range(self, capsys):
        code, out, _ = run(capsys, "scan", "--n-max", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header + N=2,3,4
        deltas = [float(l.split(",")[2]) for l in lines[1:]]
        assert deltas == sorted(deltas, reverse=True)

    def test_guard(self, capsys):
        assert run(capsys, "scan", "--n-min", "5", "--n-max", "4")[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
