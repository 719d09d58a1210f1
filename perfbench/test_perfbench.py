"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

import reference
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent


# --- tail-percentile rule -------------------------------------------------

def test_tail_percentile_leaves_ten_requests_beyond():
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(30) == pytest.approx(200.0 / 3.0)
    values = list(range(1, 41))  # 40 requests
    tail = stats.tail_value(reversed(values))
    assert tail == 30
    assert sum(v > tail for v in values) == 10


def test_tail_needs_more_than_ten_requests():
    assert stats.tail_value(range(11)) == 1  # mean of 0, 1, 2: the window is cut at 0
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def test_percentiles_average_the_neighbouring_ranks():
    values = [float(v) for v in range(1, 31)]
    assert stats.median_value(values) == 15.5  # ranks 13..18
    assert stats.tail_value(values) == 20.0  # ranks 18..22 around the 20th smallest


def test_loglog_slope_recovers_power_law():
    xs = [20, 50, 100, 200]
    assert stats.loglog_slope(xs, [x ** 4 for x in xs]) == pytest.approx(4.0)
    assert stats.loglog_slope([5, 5], [1.0, 2.0]) == 0.0


# --- spans and self time --------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf_traced()
        leaf_traced()

    def outer():
        clock.now += 4.0
        middle_traced()

    leaf_traced = tracer.wrap("gaussian.leaf", leaf)
    middle_traced = tracer.wrap("teleport.middle", middle)
    tracer.wrap("cli.outer", outer)()

    cols = tracer.columns()
    dur, self_t = spans.self_times(cols)
    by_name = {tracer.names[n]: (d, s) for n, d, s in zip(cols["name"], dur, self_t)}
    assert by_name["cli.outer"] == (8.0, 4.0)
    assert by_name["teleport.middle"] == (4.0, 2.0)
    assert by_name["gaussian.leaf"] == (1.0, 1.0)
    assert list(cols["parent"]) == [-1, 0, 1, 1]


def test_errors_count_only_exceptions_leaving_a_layer():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("bad")

    inner_traced = tracer.wrap("gaussian.inner", inner)
    same_layer = tracer.wrap("gaussian.outer", lambda: inner_traced())

    def caller():
        try:
            same_layer()
        except ValueError:
            return 2

    tracer.wrap("cli.main", caller)()
    m = spans.layer_metrics(tracer.columns(), tracer.names, tracer.objective_evals)
    assert m["gaussian.errors"] == 1.0  # inner -> outer stays inside gaussian
    assert m["cli.errors"] == 0.0
    assert m["cli.requests"] == 1.0


def test_install_patches_every_binding_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    mods = {}
    for layer in spans.LAYERS:
        mods[layer] = types.ModuleType(f"fakepkg.{layer}")
        monkeypatch.setitem(sys.modules, f"fakepkg.{layer}", mods[layer])
        setattr(pkg, layer, mods[layer])
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)

    def n_splitter(N):
        return N * 2

    n_splitter.__module__ = "fakepkg.gaussian"
    mods["gaussian"].n_splitter = n_splitter
    mods["mc"].n_splitter = n_splitter  # imported by name elsewhere
    pkg.localize = n_splitter  # a function bound over a module name

    tracer = spans.Tracer()
    patches = spans.install(tracer, pkg)
    assert mods["mc"].n_splitter(3) == 6
    assert mods["gaussian"].n_splitter is not n_splitter
    assert pkg.localize is not n_splitter
    patches.restore()
    assert mods["gaussian"].n_splitter is n_splitter
    assert mods["mc"].n_splitter is n_splitter
    assert pkg.localize is n_splitter
    m = spans.layer_metrics(tracer.columns(), tracer.names, tracer.objective_evals)
    assert m["gaussian.n_splitter.calls"] == 1.0


def test_traced_cli_request_reports_layers():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cvteleport
        from cvteleport import cli
    finally:
        sys.path.remove(str(ROOT / "src"))
    tracer = spans.Tracer()
    patches = spans.install(tracer, cvteleport)
    try:
        tracer.request_id = 0
        assert cli.main(["localize", "--N", "5", "--rbar", "0.5"]) == 0
    finally:
        patches.restore()
    assert cvteleport.gaussian.CovarianceMatrix.__post_init__.__name__ == "__post_init__"
    assert not hasattr(cli.main, "__wrapped__")
    m = spans.layer_metrics(tracer.columns(), tracer.names, tracer.objective_evals)
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead"}
    assert m["cli.requests"] == 1.0
    assert m["localize.localizable_eta.calls"] == 1.0
    assert m["localize.homodyne_condition.calls"] == 3.0
    assert m["gaussian.cm_bytes"] > 8 * 10 ** 2


# --- reference check ------------------------------------------------------

def _fidelity_response(params, fidelity):
    header = "N,n1,n2,rbar,d,gain,var_x_rel,var_p_tot,fidelity"
    d = reference.d_opt(**params)
    row = f"{params['N']},{params['n1']},{params['n2']},{params['rbar']},{d:.12g},0,0,0,{fidelity:.12g}"
    return f"{header}\n{row}\n"


def test_checker_accepts_reference_fidelity_and_flags_perturbed_one():
    p = {"N": 30, "n1": 1.5, "n2": 1.2, "rbar": 0.7}
    F = reference.fidelity_opt(reference.eta_n(**p))
    assert reference.check("fidelity", p, 0, _fidelity_response(p, F)) is None
    cause = reference.check("fidelity", p, 0, _fidelity_response(p, F + 1e-7))
    assert cause == "mismatch_fidelity"
    assert reference.is_new_wrong_answer("fidelity." + cause)


def _localize_response(p, eta_localized):
    eta = reference.eta_n(**p)
    fields = {"N": p["N"], "n1": p["n1"], "n2": p["n2"], "rbar": p["rbar"], "eta_N": eta,
              "eta_localized": eta_localized, "d_opt": reference.d_opt(**p),
              "E_T": reference.entanglement_of_teleportation(eta), "E_F_loc": 0,
              "deviation": abs(eta_localized - eta)}
    return ",".join(fields) + "\n" + ",".join(f"{v:.12g}" for v in fields.values()) + "\n"


def test_checker_tells_known_imprecision_from_new_wrong_answers():
    high = {"N": 60, "n1": 1.2, "n2": 1.7, "rbar": 4.6}
    low = dict(high, rbar=1.0)
    eta_high, eta_low = reference.eta_n(**high), reference.eta_n(**low)
    assert reference.check("localize", high, 0, _localize_response(high, eta_high)) is None
    # 1% off at rbar 4.6 is the known loss of precision: a failure, not a new wrong answer
    cause = reference.check("localize", high, 0, _localize_response(high, 1.01 * eta_high))
    assert cause == "imprecise_eta_localized"
    assert not reference.is_new_wrong_answer("localize." + cause)
    # the same error at rbar 1, an error beyond the envelope, or NaN is a new wrong answer
    for p, value in ((low, 1.01 * eta_low), (high, 1e3 * eta_high), (high, math.nan)):
        cause = reference.check("localize", p, 0, _localize_response(p, value))
        assert cause == "mismatch_eta_localized", (p, value)
        assert reference.is_new_wrong_answer("localize." + cause)


def test_eta_pt_closed_form_matches_the_dense_path_at_moderate_squeezing():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from cvteleport.entanglement import entanglement_report
        from cvteleport.gaussian import ResourceSpec
    finally:
        sys.path.remove(str(ROOT / "src"))
    for N, n1, n2, rbar in ((2, 1.3, 1.6, 0.8), (3, 1.0, 1.9, 0.0), (8, 1.4, 1.1, 1.2),
                            (30, 1.8, 1.2, 0.5)):
        d = reference.d_opt(N, n1, n2, rbar)
        want = reference.eta_pt(N, n1, n2, rbar, d)
        got = entanglement_report(ResourceSpec(N, n1, n2, rbar, d, constrain_bias=False)).eta
        assert got == pytest.approx(want, rel=1e-10), (N, rbar)
    # two modes: the split is the pair, and eta_pt is eta_N
    assert reference.eta_pt(2, 1.3, 1.6, 2.0, reference.d_opt(2, 1.3, 1.6, 2.0)) == \
        pytest.approx(reference.eta_n(2, 1.3, 1.6, 2.0), rel=1e-12)


def test_checker_flags_nonzero_exit():
    p = {"N": 30, "n1": 1.0, "n2": 1.0, "rbar": 5.0}
    cause = reference.check("fidelity", p, 2, "",
                            "error: unphysical covariance matrix: min symplectic eigenvalue 0.5\n")
    assert cause == "exit_2_unphysical_covariance_matrix"
    assert not reference.is_new_wrong_answer("fidelity." + cause)
    out = ("Monte Carlo vs analytic (sigmas): max deviation 3.2 (tolerance 3) FAIL\n"
           "verify: FAIL\n")
    assert reference.check("verify", {}, 1, out) == "verify_fail_monte_carlo_vs_analytic_sigmas"


def test_checker_verify_and_sweep():
    assert reference.check("verify", {}, 0, "a: max deviation 0 (tolerance 1) ok\nverify: PASS\n") is None
    p = {"rbar_min": 0.0, "rbar_max": 1.0, "steps": 2, "N_list": [3], "n1": 1.0, "n2": 1.0}
    rows = [f"3,{r},{reference.fidelity_opt(reference.eta_n(3, 1.0, 1.0, r)):.12g}" for r in (0.0, 1.0)]
    good = "N,rbar,F_opt\n" + "\n".join(rows) + "\n"
    assert reference.check("sweep", p, 0, good) is None
    assert reference.check("sweep", p, 0, "N,rbar,F_opt\n" + rows[0] + "\n") == "mismatch_rows"


# --- workloads and the benchmark contract ---------------------------------

def test_workloads_depend_only_on_seed():
    for name, build in workloads.WORKLOADS.items():
        assert build(7) == build(7), name
        assert build(7) != build(8), name


def test_dense_large_n_uses_distinct_N_in_range():
    reqs = workloads.dense_large_n(3)
    Ns = [r.params["N"] for r in reqs]
    assert len(set(Ns)) == len(Ns) == 30
    assert all(20 <= N <= 200 for N in Ns)
    assert {r.kind for r in reqs} == {"fidelity", "entanglement", "localize"}
    assert all(0.0 <= r.params["rbar"] <= 6.0 for r in reqs)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
