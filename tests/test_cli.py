import ast
import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport as cv
from cvteleport import cli
from cvteleport.cli import SWEEP_COLUMNS, _fmt, _round_trip, main, sweep_rows


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

    @pytest.mark.parametrize("argv,message", [
        (("--rbar-max", "inf", "--steps", "3", "--N-list", "3"),
         "--rbar-max must be finite, got inf"),
        (("--rbar-min", "nan"), "--rbar-min must be finite, got nan"),
        (("--N-list", "3,x"), "--N-list takes comma-separated integers, got '3,x'"),
        (("--N-list", "3.5"), "--N-list takes comma-separated integers, got '3.5'"),
        (("--rbar-min=-0.5",), "average squeezing rbar must be >= 0"),
        (("--steps", "1"), "sweep needs at least 2 steps"),
        (("--rbar-min", "2", "--rbar-max", "1"), "rbar-max must be >= rbar-min"),
    ])
    def test_usage_error_names_the_flag(self, capsys, argv, message):
        assert run(capsys, "sweep", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_negative_rbar_min_rejected_before_the_width_overflows(self, capsys, output):
        # 1.7e308 - (-1e308) overflows to inf, which made the first rbar -1e308 + 0 * inf = nan
        argv = ("--rbar-min=-1e308", "--rbar-max", "1.7e308", "--steps", "2", "--N-list", "3")
        assert run(capsys, "sweep", *argv, "--output", output) == (
            2, "", "error: average squeezing rbar must be >= 0\n")

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_negative_rbar_min_output_unchanged(self, capsys, output):
        assert run(capsys, "sweep", "--rbar-min=-1", "--output", output) == (
            2, "", "error: average squeezing rbar must be >= 0\n")

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_one_class_per_row(self, capsys, monkeypatch, output):
        """Every row validates its own (N, n1, n2, rbar), N-major: a sweep of
        R rows builds R classes, never one shared per sweep."""
        built = []

        def counting(*key):
            built.append(key)
            return cv.IsoEntangledClass(*key)

        monkeypatch.setattr(cli, "IsoEntangledClass", counting)
        code, out, _ = run(capsys, "sweep", "--rbar-max", "1", "--steps", "3",
                           "--N-list", "2,7", "--n2", "1.5", "--output", output)
        assert code == 0
        assert built == [(N, 1.0, 1.5, r) for N in (2, 7) for r in (0.0, 0.5, 1.0)]
        built.clear()
        assert len(sweep_rows([4, 5], [0.1, 0.2], 1.0, 1.0)) == len(built) == 4


@settings(max_examples=60, deadline=None)
@given(
    Ns=st.lists(st.integers(2, 10_000), min_size=1, max_size=4),
    ends=st.lists(st.floats(0.0, 170.0), min_size=2, max_size=2),
    steps=st.integers(2, 5),
    n1=st.floats(1.0, 10.0),
    n2=st.floats(1.0, 10.0),
    log_base=st.sampled_from(["2", "e"]),
)
def test_sweep_csv_and_json_render_sweep_rows(Ns, ends, steps, n1, n2, log_base):
    """Each CSV line is _fmt over the library's row, and each JSON row renders
    to the same line."""
    lo, hi = sorted(ends)
    argv = ["sweep", "--rbar-min", repr(lo), "--rbar-max", repr(hi), "--steps", str(steps),
            "--N-list", ",".join(map(str, Ns)), "--n1", repr(n1), "--n2", repr(n2),
            "--log-base", log_base]
    outputs = []
    for output in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--output", output]) == 0
        outputs.append(out.getvalue())
    rbars = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    rows = sweep_rows(Ns, rbars, n1, n2, base=2.0 if log_base == "2" else math.e)
    header, *lines = outputs[0].splitlines()
    assert header == ",".join(SWEEP_COLUMNS)
    assert lines == [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    json_rows = json.loads(outputs[1])["rows"]
    assert [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in json_rows] == lines


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "100000")
        assert code == 0
        assert "PASS" in out
        assert len(out.splitlines()) == 6  # five suites, then the verdict

    def test_validations_per_request(self, capsys, monkeypatch):
        """Counts, not clocks: every matrix goes through the validation kernel once.
        Suite 1 passes one stack of 48 resources per N (5 calls, 240 matrices);
        suite 3 passes its 18 built resources and 18 localized states one by one."""
        stacks = []
        validated = cv.gaussian.validated

        def counting(m):
            stacks.append(np.shape(m)[:-2])
            return validated(m)

        monkeypatch.setattr(cv.gaussian, "validated", counting)
        code, _, _ = run(capsys, "verify", "--samples", "1000000", "--seed", "42")
        assert code == 0
        assert sum(math.prod(shape) for shape in stacks) == 276
        assert len(stacks) == 41
        assert sorted(stacks) == [()] * 36 + [(48,)] * 5

    def test_pull_back_suite_sees_a_p_variance_off_by_1e_9(self, capsys, monkeypatch):
        """The exact check that the sampler's power reduces to trips at 1 + 1e-9,
        which the Monte Carlo suite cannot see."""
        form_variances = cv.mc.form_variances
        monkeypatch.setattr(cv.mc, "form_variances", lambda *args: (
            lambda vx, vp: (vx, vp * (1 + 1e-9)))(*form_variances(*args)))
        code, out, _ = run(capsys, "verify", "--samples", "100000")
        lines = out.splitlines()
        assert code == 1
        assert lines[3].startswith("Monte Carlo vs analytic") and lines[3].endswith(" ok")
        assert lines[4].startswith("Monte Carlo pull-back") and lines[4].endswith(" FAIL")
        assert lines[5:] == ["verify: FAIL"]

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
        """Bit for bit, from public functions only: F_equal and F_unbiased are
        the network fidelity of the member at d = 0 and d = d_unbiased, at the
        optimum's gain, and E_tau is the report's, present only for the pure
        three-mode resource."""
        Ns, rbars = [2, 3, 4, 8, 50, 10_000], [0.0, 0.05, 0.65, 1.7, 6.0, 12.0]
        rows = iter(sweep_rows(Ns, rbars, n1, n2))
        for N in Ns:
            for rbar in rbars:
                key = (N, n1, n2, rbar)
                opt = cv.optimal_fidelity(*key)
                gain = cv.ProtocolParams(gain=opt.g_opt)

                def fidelity(d):
                    spec = cv.ResourceSpec(*key, d, constrain_bias=False)
                    return cv.fidelity_network(spec, gain).fidelity

                rep = cv.entanglement_report(cv.ResourceSpec(*key))
                assert (rep.E_tau is not None) == (N == 3 and n1 == n2 == 1.0)
                assert next(rows) == {
                    "N": N, "rbar": rbar,
                    "F_opt": opt.fidelity_opt,
                    "F_equal": fidelity(0.0),
                    "F_unbiased": fidelity(cv.d_unbiased(*key)),
                    "F_worst": cv.worst_case(*key).fidelity_worst,
                    "eta_N": rep.eta_N,
                    "E_T": cv.entanglement_of_teleportation(opt.eta_N),
                    "E_F_loc": cv.eof_symmetric(opt.eta_N),
                    "E_tau": rep.E_tau,
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


def test_integers_render_as_integers():
    """numbers.Integral covers numpy integers; a bool (bias_clamped) is an int."""
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(True) == "1"
    assert _round_trip(np.int64(7)) == 7


def test_non_finite_floats_keep_their_sign():
    """The sweep's %.12g row format renders every float as _fmt does."""
    for x, text in ((-math.inf, "-inf"), (math.inf, "inf"), (math.nan, "nan")):
        assert _fmt(x) == "%.12g" % x == text
    assert _round_trip(-math.inf) == "-inf"
    assert _round_trip(math.inf) == "inf"


def test_cli_imports_no_underscored_name():
    """The CLI reaches the package through its public names only."""
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert "IsoEntangledClass" in imported
    private = [name for name in imported + attributes for part in name.split(".")
               if part.startswith("_") and not part.endswith("__")]
    assert private == []
