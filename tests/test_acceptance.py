"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (visible with ``pytest -s tests/test_acceptance.py``).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

import cvteleport as cv
from cvteleport.teleport import teleported_variances

NOISE_GRID = [1.0, 1.5, 2.0]
RBAR_GRID = [0.25 * k for k in range(9)]  # 0, 0.25, ..., 2
N_GRID = [2, 3, 4, 8, 20, 50]


def report(num, name, elapsed, limit):
    print(f"[PASS] criterion {num}: {name} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_01_classical_bound():
    t0 = time.perf_counter()
    for N in range(2, 51):
        spec = cv.ResourceSpec(N, 1.0, 1.0, 0.0, cv.d_N_opt(N, 1, 1, 0.0))
        g = 1.0 if N == 2 else cv.g_N_opt(N, 1, 1, 0.0)
        g_eff = 0.0 if N == 2 else g
        vx, vp = cv.network_variances(spec.N, spec.variances, g_eff)
        fid = cv.fidelity_from_variances(vx, vp)
        assert abs(fid - 0.5) < 1e-12, (N, fid)
    report(1, "classical bound F=1/2 at zero squeezing", time.perf_counter() - t0, 1)


def test_criterion_02_two_mode_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n1, n2, rbar in itertools.product(NOISE_GRID, NOISE_GRID, RBAR_GRID):
        d = cv.d_N_opt(2, n1, n2, rbar)
        spec = cv.ResourceSpec(2, n1, n2, rbar, d, constrain_bias=False)
        out = cv.fidelity_network(spec)
        expected = 1.0 / (1.0 + math.sqrt(n1 * n2) * math.exp(-2 * rbar))
        worst = max(worst, abs(out.fidelity - expected))
    assert worst < 1e-10, worst
    report(2, "two-mode pipeline vs F=1/(1+eta)", time.perf_counter() - t0, 1)


def test_criterion_03_network_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for N, n1, n2, rbar in itertools.product(N_GRID, NOISE_GRID, NOISE_GRID, RBAR_GRID):
        res = cv.optimal_fidelity(N, n1, n2, rbar)  # unconstrained bias
        spec = cv.ResourceSpec(N, n1, n2, rbar, res.d_opt, constrain_bias=False)
        out = cv.fidelity_network(spec)
        worst = max(worst, abs(out.fidelity - 1.0 / (1.0 + res.eta_N)))
    assert worst < 1e-10, worst
    report(3, "network pipeline vs F=1/(1+eta_N)", time.perf_counter() - t0, 5)


def test_criterion_04_optimizer_oracle():
    t0 = time.perf_counter()
    worst_d = worst_g = worst_gd = 0.0
    for N, n1, n2, rbar in itertools.product(N_GRID, NOISE_GRID, NOISE_GRID, RBAR_GRID):
        num = cv.numerical_optimum(N, n1, n2, rbar)
        worst_d = max(worst_d, abs(num.d_opt - cv.d_N_opt(N, n1, n2, rbar)))
        if N > 2:
            worst_g = max(worst_g, abs(num.g_opt - cv.g_N_opt(N, n1, n2, rbar)))
    # g-optimum independence of d, probed numerically at three biases
    for N, rbar in [(3, 0.5), (8, 1.0), (20, 0.25)]:
        g_ref = None
        for dfrac in (-0.5, 0.0, 0.5):
            spec = cv.ResourceSpec(N, 1.5, 1.0, rbar, dfrac * rbar)
            g_num = cv.golden_section(
                lambda g: cv.network_variances(spec.N, spec.variances, g)[1], -3, 3
            )
            if g_ref is None:
                g_ref = g_num
            worst_gd = max(worst_gd, abs(g_num - g_ref))
    assert worst_d < 1e-8, worst_d
    assert worst_g < 1e-8, worst_g
    assert worst_gd < 1e-8, worst_gd
    report(4, "numerical optimum matches closed forms", time.perf_counter() - t0, 30)


def test_criterion_05_localization_theorem():
    t0 = time.perf_counter()
    worst = 0.0
    for N, n1, n2, rbar in itertools.product(
        (3, 4, 8), (1.0, 1.5), (1.0, 1.5), (0.25, 0.5, 1.0)
    ):
        spec = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar),
                               constrain_bias=False)
        worst = max(worst, abs(cv.localizable_eta(spec) - cv.eta_generalized(spec)))
    assert worst < 1e-9, worst
    report(5, "homodyne-localized eta equals eta_N", time.perf_counter() - t0, 5)


def test_criterion_06_monotone_fidelity_figure():
    t0 = time.perf_counter()
    rbars = [0.05 * k for k in range(1, 41)]  # (0, 2]
    by_N = {N: [cv.optimal_fidelity(N, 1, 1, r).fidelity_opt for r in rbars]
            for N in N_GRID}
    for N, fids in by_N.items():
        assert all(f > 0.5 for f in fids), N
        assert all(b > a for a, b in zip(fids, fids[1:])), N
    for i, r in enumerate(rbars):
        col = [by_N[N][i] for N in N_GRID]
        assert all(b < a for a, b in zip(col, col[1:])), r
    report(6, "F_opt nonclassical, monotone in rbar and N", time.perf_counter() - t0, 5)


def test_criterion_07_equal_squeezer_subclassical_window():
    t0 = time.perf_counter()

    def min_equal_squeezer_fidelity(N):
        best = 1.0
        for k in range(1, 1001):
            rbar = 5.0 * k / 1000
            spec = cv.ResourceSpec(N, 1.0, 1.0, rbar, 0.0)
            g = cv.g_N_opt(N, 1, 1, rbar)
            vx, vp = cv.network_variances(spec.N, spec.variances, g)
            best = min(best, cv.fidelity_from_variances(vx, vp))
        return best

    for N in (2, 3, 4, 8, 16, 20):
        assert min_equal_squeezer_fidelity(N) >= 0.5, N
    N_star = next(N for N in range(21, 41) if min_equal_squeezer_fidelity(N) < 0.5)
    assert 28 <= N_star <= 32, N_star
    report(7, f"equal-squeezer sub-classical threshold N*={N_star}",
           time.perf_counter() - t0, 10)


def test_criterion_08_worst_case_asymptotes():
    t0 = time.perf_counter()
    for N, n in itertools.product((2, 4, 8, 20), (1.0, 1.5, 2.0)):
        w = cv.worst_case(N, n, n, 6.0)
        assert abs(w.fidelity_worst - 1 / math.sqrt(1 + N * n / 2)) < 1e-3, (N, n)
    for n in (1.5, 2.0, 4.0):
        w = cv.worst_case(2, 1.0, n, 6.0)
        assert w.fidelity_worst <= 1 / math.sqrt(n), n
    report(8, "worst-case boundary asymptotes", time.perf_counter() - t0, 1)


def test_criterion_09_measure_consistency():
    t0 = time.perf_counter()
    for N, rbar in [(3, 0.5), (4, 1.0), (8, 0.25)]:
        spec = cv.ResourceSpec(N, 1.0, 1.0, rbar, cv.d_N_opt(N, 1, 1, rbar),
                               constrain_bias=False)
        eta_loc = cv.localizable_eta(spec)
        E_T = cv.entanglement_of_teleportation(cv.eta_generalized(spec))
        assert abs(cv.eof_localizable(E_T) - cv.eof_symmetric(eta_loc)) < 1e-9
    grid = [0.999 * k / 400 for k in range(401)]
    vals = [cv.contangle_from_ET(E) for E in grid]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert cv.contangle_from_ET(1 - 1e-6) >= 10 * cv.contangle_from_ET(0.9)
    report(9, "E_F_loc/E_tau consistency and divergence", time.perf_counter() - t0, 1)


def test_criterion_10_monte_carlo_agreement():
    t0 = time.perf_counter()
    cases = [(2, 1.0, 1.0, 0.5), (3, 1.0, 1.0, 0.5), (3, 1.5, 1.2, 1.0),
             (4, 1.0, 1.0, 1.0), (8, 1.5, 1.0, 0.5)]
    for N, n1, n2, rbar in cases:
        spec = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar),
                               constrain_bias=False)
        analytic = cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt
        hits = 0
        for seed in range(10):
            est = cv.simulate(cv.McConfig(samples=1_000_000, seed=seed, spec=spec))
            if abs(est.fidelity_mean - analytic) < 3 * est.std_error:
                hits += 1
        assert hits >= 9, (N, n1, n2, rbar, hits)
    report(10, "Monte Carlo within 3 sigma in >= 9/10 seeds", time.perf_counter() - t0, 60)


def test_criterion_11_p_variance_normalization():
    t0 = time.perf_counter()
    for n1, rbar, d in [(1.0, 0.5, 0.0), (1.5, 0.8, 0.2), (2.0, 1.2, -0.3)]:
        spec = cv.ResourceSpec(2, n1, 1.3, rbar, d)
        sigma = cv.build_resource(spec)
        _, vp = teleported_variances(sigma, 0, 1, 0.0)
        over_N = 2 * n1 * math.exp(-2 * spec.r1)  # [2+(N-2)g]^2 n1 e^{-2r1} / N at N=2
        over_4 = n1 * math.exp(-2 * spec.r1)
        assert abs(vp - over_N) < 1e-10, (n1, rbar, d)
        assert abs(vp - over_4) > 1e-2, "the /4 normalization must be rejected"
    report(11, "p_tot variance carries the 1/N normalization", time.perf_counter() - t0, 1)
