import json
import math
import time
from pathlib import Path

import pytest

import cvteleport as cv
from cvteleport.cli import _fmt, main, sweep_rows
from cvteleport.entanglement import _contangle
from cvteleport.optimize import _phi


FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def record(out):
    header, row = out.strip().splitlines()
    return {k: float(v) for k, v in zip(header.split(","), row.split(",")) if v}


def eta_n(N, n1, n2, rbar):
    return math.sqrt(N * n1 * n2 / (2 * math.exp(4 * rbar) + (N - 2) * n1 / n2))


def eta_split(N, n1, n2, rbar, d):
    """1|(N-1) PT eigenvalue from the two-mode reduction (mode 1, symmetric
    mode of the rest) of the resource CM; the small root is det / lam_max."""
    r1, r2 = rbar + d, rbar - d
    v1x, v1p = n1 * math.exp(2 * r1), n1 * math.exp(-2 * r1)
    v2x, v2p = n2 * math.exp(-2 * r2), n2 * math.exp(2 * r2)
    cx, cp = (v1x - v2x) / N, (v1p - v2p) / N
    ax, ap = v2x + cx, v2p + cp
    bx, bp = ax + (N - 2) * cx, ap + (N - 2) * cp
    trace = ax * ap + bx * bp - 2 * (N - 1) * cx * cp
    det = v1x * v2x * v1p * v2p
    lam_max = 0.5 * (trace + math.sqrt(trace * trace - 4 * det))
    return min(math.sqrt(det / lam_max), n2)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("field,argv", [
        ("rbar", ("fidelity", "--N", "4", "--rbar", "nan")),
        ("n1", ("fidelity", "--N", "4", "--n1", "inf", "--rbar", "1")),
        ("n1", ("entanglement", "--N", "2", "--n1", "inf", "--rbar", "1")),
        ("d", ("fidelity", "--N", "4", "--rbar", "1", "--d", "nan")),
        ("rbar", ("optimize", "--N", "4", "--rbar", "inf", "--method", "numerical")),
    ])
    def test_exit_2_naming_the_field(self, capsys, field, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be finite")


class TestLargeSqueezing:
    """Figures the dense path lost or refused from rbar of about 3."""

    @pytest.mark.parametrize("N", [2, 8])
    def test_fidelity(self, capsys, N):
        code, out, _ = run(capsys, "fidelity", "--N", str(N), "--rbar", "6")
        assert code == 0
        assert record(out)["fidelity"] == pytest.approx(1 / (1 + eta_n(N, 1, 1, 6)), rel=1e-11)

    def test_localize(self, capsys):
        code, out, _ = run(capsys, "localize", "--N", "150", "--rbar", "6",
                           "--n1", "1.5", "--n2", "1.2")
        assert code == 0
        assert abs(record(out)["eta_localized"] - eta_n(150, 1.5, 1.2, 6)) < 1e-9

    def test_entanglement(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--N", "200", "--rbar", "6")
        assert code == 0
        rec = record(out)
        assert rec["eta"] == pytest.approx(eta_split(200, 1, 1, 6, rec["d"]), rel=1e-9)

    def test_fidelity_beyond_exp_overflow(self, capsys):
        # e^{4 rbar} overflows above rbar of about 177
        code, out, _ = run(capsys, "fidelity", "--N", "4", "--rbar", "200")
        assert code == 0
        assert record(out)["fidelity"] == 1.0

    @pytest.mark.parametrize("command", ["entanglement", "localize"])
    def test_localized_eof_where_E_T_rounds_to_1(self, capsys, command):
        code, out, _ = run(capsys, command, "--N", "4", "--rbar", "100")
        assert code == 0
        rec = record(out)
        assert rec["E_T"] == 1.0
        # f(x) = ln(1/(4x)) + 1 + O(x ln x) as x -> 0, in bits
        want = (1 - math.log(4 * rec["eta_N"])) / math.log(2)
        assert rec["E_F_loc"] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("command", ["entanglement", "localize"])
    @pytest.mark.parametrize("N", ["2", "4"])
    def test_eta_products_past_exp_overflow_exit_2(self, capsys, command, N):
        # their products reach e^{4 rbar}; past rbar of about 177 they must
        # refuse, not print eta = 0
        assert run(capsys, command, "--N", N, "--rbar", "177")[0] == 0
        code, out, err = run(capsys, command, "--N", N, "--rbar", "178")
        assert (code, out) == (2, "")
        assert "overflows e^(4 rbar)" in err

    def test_sweep_where_E_T_rounds_to_1(self, capsys):
        code, out, _ = run(capsys, "sweep", "--rbar-min", "17", "--rbar-max", "19",
                           "--steps", "3", "--N-list", "4")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [float(r["rbar"]) for r in rows] == [17, 18, 19]
        for r in rows:
            want = (1 - math.log(4 * float(r["eta_N"]))) / math.log(2)
            assert float(r["E_F_loc"]) == pytest.approx(want, rel=1e-11)

    def test_pure_three_mode_contangle_where_E_T_rounds_to_1(self, capsys):
        # E_tau -> [(ln eta_N + ln(sqrt(3)/2))^2 - ln^2(3)/2] / ln^2(2) bits as E_T -> 1
        def want(eta):
            return ((math.log(eta) + math.log(math.sqrt(3) / 2)) ** 2
                    - 0.5 * math.log(3) ** 2) / math.log(2) ** 2

        runs = [run(capsys, "entanglement", "--N", "3", "--rbar", r) for r in ("10", "20")]
        runs.append(run(capsys, "sweep", "--rbar-min", "17", "--rbar-max", "19",
                        "--steps", "3", "--N-list", "3"))
        for code, out, _ in runs:
            assert code == 0
            header, *lines = out.strip().splitlines()
            for line in lines:
                row = dict(zip(header.split(","), line.split(",")))
                assert float(row["E_tau"]) == pytest.approx(want(float(row["eta_N"])), rel=1e-9)

    @pytest.mark.parametrize("command", ["fidelity", "entanglement", "localize"])
    def test_ten_thousand_modes_under_50_ms(self, capsys, command):
        argv = (command, "--N", "10000", "--n1", "1.3", "--rbar", "4")
        times = []
        for _ in range(3):  # best of three: the least noisy estimate on a shared machine
            t0 = time.perf_counter()
            code, out, _ = run(capsys, *argv)
            times.append(time.perf_counter() - t0)
        assert code == 0
        rec = record(out)
        eta = 1 / rec["fidelity"] - 1 if command == "fidelity" else rec["eta_N"]
        assert eta == pytest.approx(eta_n(10000, 1.3, 1, 4), rel=1e-9)
        assert min(times) < 0.05, times


class TestFidelityCommand:
    def test_two_mode_headline(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--N", "2", "--n1", "1", "--n2", "1",
                           "--rbar", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["fidelity"]) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-10)

    def test_zero_squeezing_classical(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--N", "3", "--rbar", "0")
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert code == 0
        assert float(values["fidelity"]) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_N_exits_2(self, capsys):
        code, _, err = run(capsys, "fidelity", "--N", "1", "--rbar", "0.5")
        assert code == 2
        assert "error" in err

    def test_json_output_matches_csv(self, capsys):
        _, csv_out, _ = run(capsys, "fidelity", "--N", "3", "--rbar", "0.5")
        _, json_out, _ = run(capsys, "fidelity", "--N", "3", "--rbar", "0.5",
                             "--output", "json")
        header, row = csv_out.strip().splitlines()
        csv_vals = dict(zip(header.split(","), row.split(",")))
        doc = json.loads(json_out)
        assert doc["fidelity"] == float(csv_vals["fidelity"])

    def test_byte_stable(self, capsys):
        _, a, _ = run(capsys, "fidelity", "--N", "4", "--rbar", "1.25", "--n1", "1.5")
        _, b, _ = run(capsys, "fidelity", "--N", "4", "--rbar", "1.25", "--n1", "1.5")
        assert a == b


class TestOptimizeCommand:
    def test_closed_vs_numerical(self, capsys):
        _, out_c, _ = run(capsys, "optimize", "--N", "3", "--rbar", "0.5")
        _, out_n, _ = run(capsys, "optimize", "--N", "3", "--rbar", "0.5",
                          "--method", "numerical")
        for out in (out_c, out_n):
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            assert float(vals["fidelity_opt"]) == pytest.approx(0.696356133684, abs=1e-9)


class TestEntanglementCommand:
    def test_pure_three_mode_has_contangle(self, capsys):
        code, out, _ = run(capsys, "entanglement", "--N", "3", "--rbar", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["E_tau"]) > 0

    def test_mixed_three_mode_empty_contangle(self, capsys):
        _, out, _ = run(capsys, "entanglement", "--N", "3", "--n1", "1.5", "--rbar", "0.5")
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["E_tau"] == ""

    @pytest.mark.parametrize("n1", ["1", "1.0000000001"])
    def test_contangle_agrees_with_sweep(self, capsys, n1):
        _, out, _ = run(capsys, "entanglement", "--N", "3", "--n1", n1, "--rbar", "0.5")
        header, row = out.strip().splitlines()
        entanglement = dict(zip(header.split(","), row.split(",")))["E_tau"]
        _, out, _ = run(capsys, "sweep", "--N-list", "3", "--n1", n1,
                        "--rbar-min", "0.5", "--rbar-max", "0.5", "--steps", "2")
        header, row = out.strip().splitlines()[:2]
        assert dict(zip(header.split(","), row.split(",")))["E_tau"] == entanglement
        assert (entanglement != "") == (n1 == "1")


class TestLocalizeCommand:
    def test_theorem_deviation_small(self, capsys):
        code, out, _ = run(capsys, "localize", "--N", "4", "--rbar", "0.75")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["deviation"]) < 1e-9


class TestSweepCommand:
    def test_header_and_ordering(self, capsys):
        code, out, _ = run(capsys, "sweep", "--rbar-min", "0", "--rbar-max", "1",
                           "--steps", "3", "--N-list", "2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,rbar,F_opt,F_equal,F_unbiased,F_worst,eta_N,E_T,E_F_loc,E_tau"
        Ns = [int(line.split(",")[0]) for line in lines[1:]]
        assert Ns == sorted(Ns)  # N-major row order
        assert len(lines) == 1 + 2 * 3

    def test_rbar_zero_rows_classical(self, capsys):
        _, out, _ = run(capsys, "sweep", "--rbar-min", "0", "--rbar-max", "1",
                        "--steps", "2", "--N-list", "2,3,8")
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            if float(cells[1]) == 0.0:
                assert float(cells[2]) == pytest.approx(0.5, abs=1e-12)

    def test_per_row_ordering(self, capsys):
        _, out, _ = run(capsys, "sweep", "--rbar-min", "0.1", "--rbar-max", "2",
                        "--steps", "5", "--N-list", "2,3,4,8")
        for line in out.strip().splitlines()[1:]:
            c = line.split(",")
            F_opt, F_equal, F_unbiased, F_worst = map(float, c[2:6])
            assert F_worst <= F_equal + 1e-12
            assert F_equal <= F_opt + 1e-12
            assert F_unbiased <= F_opt + 1e-12
            assert F_opt > 0.5

    def test_contangle_column_only_for_pure_three_mode(self, capsys):
        _, out, _ = run(capsys, "sweep", "--rbar-min", "0.5", "--rbar-max", "0.5",
                        "--steps", "2", "--N-list", "2,3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for cells in rows:
            if cells[0] == "3":
                assert cells[-1] != ""
            else:
                assert cells[-1] == ""

    def test_byte_stable(self, capsys):
        args = ("sweep", "--rbar-min", "0", "--rbar-max", "2", "--steps", "5")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_json_matches_csv_values(self, capsys):
        args = ("sweep", "--rbar-min", "0.5", "--rbar-max", "1", "--steps", "2",
                "--N-list", "2,3")
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--output", "json")
        doc = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        for csv_cells, json_row in zip(csv_rows, doc["rows"]):
            assert float(csv_cells[2]) == json_row["F_opt"]
            assert float(csv_cells[6]) == json_row["eta_N"]

    def test_default_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        assert out == (FIXTURES / "sweep_default.csv").read_text()

    def test_invalid_ranges_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--steps", "1")
        assert code == 2
        code, _, _ = run(capsys, "sweep", "--rbar-min", "2", "--rbar-max", "1")
        assert code == 2


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "100000")
        assert code == 0
        assert "PASS" in out

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "100000", "--inject-fault")
        assert code == 1
        assert "FAIL" in out


class TestSweepRows:
    def test_library_entry_point(self):
        rows = sweep_rows([3], [0.5], 1.0, 1.0)
        assert rows[0]["F_opt"] == pytest.approx(0.696356133684, abs=1e-9)
        assert rows[0]["E_tau"] == pytest.approx(1.1330665667, abs=1e-8)

    @pytest.mark.parametrize("n1,n2", [(1.0, 1.0), (1.5, 1.2), (1.1, 2.0)])
    def test_rows_equal_the_validated_functions(self, n1, n2):
        """Bit for bit: the rows skip the per-row validation, nothing else."""
        Ns, rbars = [2, 3, 4, 8, 50, 10_000], [0.0, 0.05, 0.65, 1.7, 6.0, 12.0]
        rows = iter(sweep_rows(Ns, rbars, n1, n2))
        for N in Ns:
            for rbar in rbars:
                row = next(rows)
                opt = cv.optimal_fidelity(N, n1, n2, rbar)
                E_T = cv.entanglement_of_teleportation(opt.eta_N)
                key = (N, n1, n2, rbar)
                pure = N == 3 and n1 == n2 == 1.0
                assert row == {
                    "N": N, "rbar": rbar,
                    "F_opt": opt.fidelity_opt,
                    "F_equal": _phi(key, 0.0, opt.g_opt) ** -0.5,
                    "F_unbiased": _phi(key, cv.d_unbiased(*key), opt.g_opt) ** -0.5,
                    "F_worst": cv.worst_case(*key).fidelity_worst,
                    "eta_N": cv.eta_generalized(cv.ResourceSpec(*key)),
                    "E_T": E_T,
                    "E_F_loc": cv.eof_symmetric(opt.eta_N),
                    "E_tau": _contangle(opt.eta_N) if pure else None,
                }

    @pytest.mark.parametrize("rbars,n1,message", [
        ([0.5, math.nan, 1.0], 1.0, "rbar must be finite"),
        ([0.5, math.inf], 1.0, "rbar must be finite"),
        ([0.5, -0.1, 1.0], 1.0, "rbar must be >= 0"),
        ([0.5, 1.0], 0.5, "thermal noise"),
    ])
    def test_every_row_still_validated(self, rbars, n1, message):
        with pytest.raises(ValueError, match=message):
            sweep_rows([4], rbars, n1, 1.0)

    def test_fixture_cell_at_50_digits(self):
        """The default sweep's N = 4, rbar = 0.65 F_unbiased is 0.72731717643049...;
        the former bisection printed 0.727317176431."""
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        N, r = 4, mp.mpf(0.65)
        d = mp.log((3 + mp.exp(-4 * r)) / (1 + 3 * mp.exp(-4 * r))) / 4
        g = 1 - N / ((N - 2) + 2 * mp.exp(4 * r))
        v1p, v2x, v2p = mp.exp(-2 * (r + d)), mp.exp(-2 * (r - d)), mp.exp(2 * (r - d))
        var_p = ((2 + (N - 2) * g) ** 2 * v1p + 2 * (g - 1) ** 2 * (N - 2) * v2p) / N
        want = ((2 * v2x + 2) * (var_p + 2) / 4) ** mp.mpf(-0.5)
        assert mp.nstr(want, 14) == "0.72731717643049"
        got = sweep_rows([4], [0.65], 1.0, 1.0)[0]["F_unbiased"]
        assert abs(got - want) <= 1e-15 * want
        assert _fmt(got) == "0.72731717643"
