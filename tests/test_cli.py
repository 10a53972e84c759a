import json
import math
import random

import pytest

from kway import cli, grover, polytope, single_query
from kway.cli import main
from kway.linalg import NotHermitianError
from kway.polytope import PolytopeSizeError


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

    @pytest.mark.parametrize("n,phi,delta", [(100_000, "0.00447222912674", "1.0000500019e-15"),
                                             (1_000_000, "0.00141421650866", "1.00000500002e-18")])
    def test_maximum_at_the_largest_n(self, capsys, n, phi, delta):
        # the 60-digit values; subtracting O(N) terms in floats once printed phi* = pi and delta = 0
        code, out, _ = run(capsys, "violation", "--n", str(n))
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert (cells[1], cells[2], cells[3], cells[4]) == (phi, delta, delta, "violation")

    @pytest.mark.parametrize("n,phi", [("3", "1e-200"), ("6", "-1e-170"), ("4", "5e-324")])
    def test_phase_whose_d_underflows(self, capsys, n, phi):
        # 4 sin^2(phi/2) rounds to 0 while sin(phi) does not: delta_numeric takes the phase-0 exit
        code, out, err = run(capsys, "violation", "--n", n, f"--phi={phi}")
        assert code == 0 and err == ""
        cells = out.strip().split("\n")[1].split(",")
        assert (cells[2], cells[3]) == ("0", "0")

    def test_phi_deg(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi-deg", "180")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[2]) == pytest.approx(1.0, abs=1e-9)
        # the parser converts: every command reads the phase, in radians, from args.phi
        args = cli.build_parser().parse_args(["violation", "--n", "5", "--phi-deg", "30"])
        assert args.phi == math.radians(30) and not hasattr(args, "phi_deg")

    def test_guard(self, capsys):
        code, _, err = run(capsys, "violation", "--n", "1")
        assert code == 2

    def test_size_cap_exits_before_building_a_pattern(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("pattern built above the cap")

        monkeypatch.setattr(single_query.PhasePattern, "half_half", refuse)
        cap = single_query.MAX_N_STRUCTURED
        for argv in (("violation", "--n", str(cap + 1), "--phi", "1"), ("violation", "--n", str(cap + 1))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: violation requires 2 <= n <= {cap}\n"

    def test_largest_rows_never_list_the_locations(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("phases expanded")

        monkeypatch.setattr(single_query.PhasePattern, "phases", property(refuse))
        cap = str(single_query.MAX_N_STRUCTURED)
        for argv in (("violation", "--n", cap), ("violation", "--n", cap, "--phi", "1"),
                     ("scan", "--n-min", str(single_query.MAX_N_STRUCTURED - 20), "--n-max", cap)):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv

    def test_numeric_matches_closed_form_at_large_n(self, capsys):
        rows = []
        for phi in ("0.2", "1", "2.5"):
            rows += [run(capsys, "violation", "--n", str(n), "--phi", phi)[1].split("\n")[1]
                     for n in range(200, 301, 5)]
        rows += run(capsys, "scan", "--n-min", "200", "--n-max", "300")[1].strip().split("\n")[1:]
        assert len(rows) == 3 * 21 + 101
        for row in rows:
            cells = row.split(",")
            assert float(cells[2]) == pytest.approx(float(cells[3]), abs=1e-12), row

    def test_n2_row_uses_one_phase_pattern(self, capsys):
        code, out, _ = run(capsys, "violation", "--n", "2", "--phi", "0.7759")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[2] == cells[3]
        assert float(cells[2]) == pytest.approx((math.sqrt(5 - 4 * math.cos(0.7759)) - 1) / 2, abs=1e-12)
        assert cells[4] == "violation"

    @pytest.mark.parametrize("phi", ["1e6", "1e10", "-1e10", "1e12"])
    def test_large_phase_reduced_by_the_exact_period(self, capsys, phi):
        # the pattern's phases and the closed form's cos and sin agree however large |phi|
        code, out, _ = run(capsys, "violation", "--n", "5", f"--phi={phi}")
        cells = out.strip().split("\n")[1].split(",")
        assert code == 0
        assert float(cells[2]) == pytest.approx(float(cells[3]), abs=1e-12), cells

    @pytest.mark.parametrize("command,n", [("violation", "4"), ("witness", "3")])
    @pytest.mark.parametrize("flag", ["--phi", "--phi-deg"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_phase_is_usage_error(self, capsys, command, n, flag, value):
        code, out, err = run(capsys, command, "--n", n, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "head,flag,value,tail",
        [
            (("violation", "--n", "5"), "--phi", "-1e10", ()),
            (("violation", "--n", "5"), "--phi-deg", "-1e3", ()),
            (("witness", "--n", "3"), "--phi", "-2.5e-1", ()),
            (("violation",), "--phi", "-1E-3", ("--n", "4", "--format", "json")),
            (("violation", "--n", "5"), "--phi-d", "-1e3", ()),
            (("witness", "--n", "3"), "--phi-", "-2.5e-1", ()),
            (("violation", "--n", "5"), "--phi-de", "-1e-3", ("--format", "json")),
        ],
    )
    def test_negative_phase_in_exponent_notation(self, capsys, head, flag, value, tail):
        # argparse's negative-number pattern has no exponent, so it took -1e10 for an option;
        # an abbreviated --phi-deg is bound like the full flag
        spaced = run(capsys, *head, flag, value, *tail)
        assert spaced[0] == 0
        assert spaced == run(capsys, *head, f"{flag}={value}", *tail)

    @pytest.mark.parametrize("flag", ["--phi", "--phi-deg"])
    def test_negative_infinite_phase_is_the_non_finite_error(self, capsys, flag):
        assert run(capsys, "violation", "--n", "5", flag, "-inf") == (2, "", "error: the phase must be a finite number\n")

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
        code, out, err = run(capsys, "polytope", "--n", str(polytope.MAX_N_LP + 1), "--k", "2")
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= k <= n <= MAX_N_LP = {polytope.MAX_N_LP}, got n={polytope.MAX_N_LP + 1}, k=2\n"
        code, out, err = run(capsys, "polytope", "--n", "3", "--k", "4")
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= k <= n <= MAX_N_LP = {polytope.MAX_N_LP}, got n=3, k=4\n"

    def test_closed_forms_enumerate_nothing(self, capsys):
        assert not hasattr(polytope, "enumerate_vertices")
        code, out, _ = run(capsys, "polytope", "--n", "4", "--k", "4")
        assert code == 0
        assert out == "n 4\nk 4\nvertices 65536\nmax_B 4\nexpected 4\n"
        code, out, _ = run(capsys, "polytope", "--n", str(polytope.MAX_N_LP), "--k", "3")
        assert code == 0 and "max_B 7\n" in out

    def test_a_vertex_bound_off_n_minus_1_fails_the_consistency_check(self, capsys, monkeypatch):
        monkeypatch.setattr(polytope, "max_B_over_vertices", lambda n, k: float(n))
        code, out, err = run(capsys, "polytope", "--n", "3", "--k", "2")
        assert code == 1 and "max_B 3\nexpected 2\n" in out
        assert err == "consistency FAILED: vertex bound does not match\n"


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

    def test_above_the_dense_cap(self, capsys):
        n = 8193  # past 8192, where one dense N x N float matrix takes 512 MiB
        code, out, _ = run(capsys, "grover", "--n", str(n), "--kmax", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [int(r[1]) for r in rows] == [0, 1, 2, 3]
        for _, k, p_quantum, _, _ in rows:
            assert p_quantum == f"{grover.quantum_win_prob(n, int(k)):.12g}"

    def test_row_cap_refuses_before_any_loop(self, capsys, monkeypatch):
        monkeypatch.setattr(grover, "quantum_win_prob", lambda n, k: pytest.fail("looped"))
        for argv in (["--n", "10" * 12], ["--n", "100000", "--kmax", str(grover.MAX_CURVE_ROWS)]):
            code, out, err = run(capsys, "grover", *argv)
            assert code == 2 and out == "" and err.startswith("error: "), argv

    def test_guard(self, capsys):
        assert run(capsys, "grover", "--n", "1")[0] == 2
        for kmax in ("9", "-1"):
            code, out, err = run(capsys, "grover", "--n", "4", "--kmax", kmax)
            assert code == 2 and out == ""
            assert err == f"error: k_max must lie in [0, N], got k_max={kmax}, N=4\n"


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

    def test_n3_small_phase_violation_is_proved(self, capsys):
        # B - 2 = 6.6e-9: the separation that HiGHS's dual ray proposes checks exactly
        code, out, _ = run(capsys, "witness", "--n", "3", "--phi", "0.000244140625")
        assert code == 0
        assert out.splitlines()[2:] == ["B 2.00000000662", "member_k2 false"]

    def test_a_member_verdict_past_the_bound_fails_exactly(self, capsys, monkeypatch):
        # B - 2 = 4.1e-10, which a float check with a 1e-9 margin let through
        monkeypatch.setattr(polytope, "is_k_way", lambda *args, **kwargs: polytope.MembershipResult(True, {}))
        code, out, err = run(capsys, "witness", "--n", "3", "--phi", "0.00006103515625")
        assert code == 1
        assert out.splitlines()[2:] == ["B 2.00000000041", "member_k2 true"]
        assert err == "consistency FAILED: violation accepted by the LP\n"

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

    def test_a_row_evaluates_the_closed_form_once(self, capsys, monkeypatch):
        # a maximum row reuses delta_max's delta*; a row at a given phase makes the one call
        calls = []
        closed_form = single_query.delta_closed_form

        def counted(n, phi):
            calls.append((n, phi))
            return closed_form(n, phi)

        monkeypatch.setattr(single_query, "delta_closed_form", counted)
        for n in range(2, 41):
            single_query.delta_max(n)
        alone, calls[:] = calls[:], []
        assert run(capsys, "scan", "--n-min", "2", "--n-max", "40")[0] == 0
        assert calls == alone
        calls.clear()
        assert run(capsys, "violation", "--n", "40", "--phi", "1")[0] == 0
        assert calls == [(40, 1.0)]

    def test_size_cap(self, capsys):
        cap = single_query.MAX_N_STRUCTURED
        code, out, err = run(capsys, "scan", "--n-min", str(cap - 1), "--n-max", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: scan requires 2 <= n-min <= n-max <= {cap}\n"

    def test_run_length_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_delta_max_row", lambda n: (n,) + (0.0,) * 6)
        cap, top = cli.MAX_SCAN_ROWS, single_query.MAX_N_STRUCTURED
        code, out, _ = run(capsys, "scan", "--n-min", str(top - cap + 1), "--n-max", str(top))
        assert code == 0 and out.count("\n") == cap + 1  # cap rows at the largest N
        code, out, err = run(capsys, "scan", "--n-min", "2", "--n-max", str(cap + 2))
        assert code == 2 and out == ""  # cap + 1 rows
        assert err == f"error: scan caps its rows, n-max - n-min + 1, at {cap}\n"


@pytest.mark.parametrize("command", ["violation", "witness"])
def test_phi_and_phi_deg_together_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--n", "3", "--phi", "1", "--phi-deg", "2")
    assert code == 2 and out == ""
    assert "not allowed with argument --phi" in err


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize(
    "error,code",
    [(ValueError("bad table"), 2), (PolytopeSizeError("capped"), 2), (NotHermitianError("not Hermitian"), 1)],
)
def test_library_errors_map_to_exit_codes(capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(single_query, "delta_numeric", fail)
    got, out, err = run(capsys, "violation", "--n", "4", "--phi", "1")
    assert got == code and out == ""
    assert err == f"error: {error}\n"


def test_unwritable_out_file_is_usage_error(capsys, tmp_path):
    for path in (str(tmp_path / "missing" / "row.csv"), ""):  # an empty path names no file, not stdout
        code, out, err = run(capsys, "violation", "--n", "4", "--out", path)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_argv_fuzz_exits_cleanly(capsys, tmp_path):
    """Every generated command line exits 0 or 2 without a traceback."""
    # (valid values, invalid values) per kind of flag
    far = [str(10 * single_query.MAX_N_STRUCTURED), "10" * 12]  # above the N caps of violation, scan, polytope, witness
    caps = [str(polytope.MAX_N_LP + 1), str(cli.MAX_N_WITNESS + 1), str(cli.MAX_SCAN_ROWS + 2)]  # scan 2 ... cap + 2
    sizes = (["2", "3", str(polytope.MAX_N_LP)], ["-3", "0", "1", "nan", "abc", "", "2.5"] + caps + far)
    # grover runs past N = 8192, where a dense route would not, and refuses an N whose default curve passes MAX_CURVE_ROWS
    grover_sizes = (sizes[0] + ["8193"], sizes[1] + [str(4 * grover.MAX_CURVE_ROWS ** 2)])
    phases = (["-1", "0", "1", "3.14159", "1e308", "-1e308"], ["nan", "inf", "-inf", "abc", ""])
    formats = (["csv", "json"], ["xml"])
    outs = ([str(tmp_path / "out.csv")], [str(tmp_path / "missing" / "out.csv"), str(tmp_path)])
    flags = {
        "violation": {"--n": sizes, "--phi": phases, "--phi-deg": phases, "--format": formats, "--out": outs},
        "polytope": {"--n": sizes, "--k": sizes},
        "grover": {"--n": grover_sizes, "--kmax": sizes, "--format": formats, "--out": outs},
        "witness": {"--n": sizes, "--phi": phases, "--phi-deg": phases},
        "scan": {"--n-min": sizes, "--n-max": sizes, "--format": formats, "--out": outs},
        "frobnicate": {"--n": sizes},
    }
    rng = random.Random(20261018)
    codes = []
    for _ in range(400):
        command = rng.choice(sorted(flags))
        argv = [command]
        for flag, (valid, invalid) in flags[command].items():
            if rng.random() < 0.6:
                argv += [flag, rng.choice(valid if rng.random() < 0.8 else invalid)]
        if rng.random() < 0.05:
            argv.append(rng.choice(["--help", "--bogus", "5"]))
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    assert 50 < codes.count(0) < 350
