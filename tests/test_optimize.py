import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport as cv
from oracles import phi_two_mode


class TestDOptTwoMode:
    """d_N_opt at N = 2 is (1/4) ln(n1/n2), whatever rbar."""

    def test_equal_noises(self):
        for rbar in (0.0, 1.0, 300.0):
            assert cv.d_N_opt(2, 1, 1, rbar) == 0.0

    def test_value(self):
        assert cv.d_N_opt(2, 2, 1, 1.0) == pytest.approx(0.25 * math.log(2), rel=1e-15)

    def test_antisymmetry(self):
        for n1, n2 in [(1, 2), (1.5, 1.2), (1.0, 7.3)]:
            assert cv.d_N_opt(2, n1, n2, 1.0) == pytest.approx(
                -cv.d_N_opt(2, n2, n1, 1.0), rel=1e-15)

    def test_is_zero_of_phi_derivative(self):
        # oracle: central finite difference of phi at the claimed optimum
        for n1, n2 in [(1.5, 1.0), (2.0, 1.3), (1.0, 2.0)]:
            d0 = cv.d_N_opt(2, n1, n2, 1.0)
            h = 1e-6
            deriv = (phi_two_mode(1.0, d0 + h, n1, n2)
                     - phi_two_mode(1.0, d0 - h, n1, n2)) / (2 * h)
            assert abs(deriv) < 1e-7


@pytest.mark.parametrize("fn", [cv.g_N_opt, cv.d_N_opt, cv.optimal_fidelity, cv.worst_case,
                                cv.d_unbiased])
@pytest.mark.parametrize("args", [(1, 1, 1, 0.5), (3, 1, 1, -0.2), (2, 1, 1, math.nan),
                                  (3, 0.5, 1, 0.5), (3, 1, 1, math.inf)],
                         ids=["N=1", "rbar<0", "rbar=nan", "n1<1", "rbar=inf"])
def test_closed_forms_reject_what_resource_spec_rejects(fn, args):
    """Each closed form validates (N, n1, n2, rbar) with ResourceSpec's message."""
    with pytest.raises(ValueError) as rejected:
        cv.ResourceSpec(*args)
    with pytest.raises(ValueError) as also_rejected:
        fn(*args)
    assert str(also_rejected.value) == str(rejected.value)


class TestGNOpt:
    def test_three_mode_value(self):
        assert cv.g_N_opt(3, 1, 1, 0.5) == pytest.approx(
            1 - 3 / (1 + 2 * math.e ** 2), rel=1e-15
        )

    def test_zero_squeezing(self):
        assert cv.g_N_opt(3, 1, 1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_large_squeezing_limit(self):
        assert cv.g_N_opt(3, 1, 1, 10.0) == pytest.approx(1.0, abs=1e-15)

    def test_minimizes_p_variance_independent_of_d(self):
        N, n1, n2, rbar = 5, 1.4, 1.1, 0.8
        g_closed = cv.g_N_opt(N, n1, n2, rbar)
        for dfrac in (-0.5, 0.0, 0.5):
            d = dfrac * rbar
            spec = cv.ResourceSpec(N, n1, n2, rbar, d)
            g_num = cv.golden_section(
                lambda g: cv.network_variances(spec.N, spec.variances, g)[1], -3, 3
            )
            assert g_num == pytest.approx(g_closed, abs=1e-8)


class TestDNOpt:
    def test_reduces_to_two_mode(self):
        for rbar in (0.0, 0.5, 2.0):
            assert cv.d_N_opt(2, 1, 1, rbar) == pytest.approx(0.0, abs=1e-14)
        assert cv.d_N_opt(2, 2, 1, 0.7) == pytest.approx(0.25 * math.log(2), rel=1e-15)

    def test_three_mode_value(self):
        expected = 0.5 + 0.25 * math.log(3 / (1 + 2 * math.e ** 2))
        assert cv.d_N_opt(3, 1, 1, 0.5) == pytest.approx(expected, rel=1e-15)

    def test_zero_squeezing_equal_noise(self):
        assert cv.d_N_opt(3, 1, 1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_clamp(self):
        raw = cv.d_N_opt(50, 2, 1, 0.0)
        assert raw > 0.0
        assert cv.optimal_fidelity(50, 2, 1, 0.0, constrain_bias=True).d_opt == 0.0


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 10_000),
    n1=st.floats(1.0, 10.0),
    n2=st.floats(1.0, 10.0),
    rbar=st.floats(0.0, 300.0),
)
def test_q_forms_match_the_exp_forms_at_50_digits(N, n1, n2, rbar):
    """g_N_opt, d_N_opt and eta_N, written with q = e^{-4 rbar}, against the
    e^{4 rbar} forms evaluated at 50 digits, past the old overflow at 177."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    E = mp.exp(4 * mp.mpf(rbar))
    den = (N - 2) + 2 * E * mp.mpf(n2) / n1
    g, d = 1 - N / den, rbar + mp.log(N / den) / 4
    eta = mp.sqrt(N * mp.mpf(n1) * n2 / (2 * E + (N - 2) * mp.mpf(n1) / n2))
    assert abs(cv.g_N_opt(N, n1, n2, rbar) - g) <= 1e-15 * max(1, abs(g))
    assert abs(cv.d_N_opt(N, n1, n2, rbar) - d) <= 1e-15 * max(1, abs(d))
    got = cv.eta_generalized(cv.ResourceSpec(N, n1, n2, rbar))
    assert abs(got - eta) <= 1e-15 * eta


class TestOptimalFidelity:
    def test_values(self):
        assert cv.optimal_fidelity(2, 1, 1, 0.5).fidelity_opt == pytest.approx(
            1 / (1 + math.exp(-1)), rel=1e-14
        )
        eta3 = math.sqrt(3 / (2 * math.e ** 2 + 1))
        assert cv.optimal_fidelity(3, 1, 1, 0.5).fidelity_opt == pytest.approx(
            1 / (1 + eta3), rel=1e-14
        )

    def test_zero_squeezing_hits_classical_bound(self):
        for N in (2, 7, 50):
            assert cv.optimal_fidelity(N, 1, 1, 0.0).fidelity_opt == pytest.approx(
                0.5, abs=1e-14
            )

    def test_matches_pipeline(self):
        for N, n1, n2, rbar in [(3, 1, 1, 0.5), (8, 1.5, 1.2, 1.0), (4, 2, 1, 0.25)]:
            res = cv.optimal_fidelity(N, n1, n2, rbar)
            spec = cv.ResourceSpec(N, n1, n2, rbar, res.d_opt, constrain_bias=False)
            out = cv.fidelity_network(spec)
            assert out.fidelity == pytest.approx(res.fidelity_opt, abs=1e-10)

    def test_clamped_mode_flags_and_is_lower(self):
        raw = cv.optimal_fidelity(50, 2, 1, 0.05)
        clamped = cv.optimal_fidelity(50, 2, 1, 0.05, constrain_bias=True)
        assert abs(raw.d_opt) > 0.05
        assert clamped.bias_clamped and abs(clamped.d_opt) <= 0.05
        assert clamped.fidelity_opt <= raw.fidelity_opt + 1e-12

    def test_monotone_in_rbar_and_N(self):
        rbars = np.arange(0.25, 2.01, 0.25)
        for N in (2, 3, 8):
            fids = [cv.optimal_fidelity(N, 1, 1, r).fidelity_opt for r in rbars]
            assert all(b > a for a, b in zip(fids, fids[1:]))
        for rbar in (0.5, 1.0):
            fids = [cv.optimal_fidelity(N, 1, 1, rbar).fidelity_opt
                    for N in (2, 3, 4, 8, 20, 50)]
            assert all(b < a for a, b in zip(fids, fids[1:]))


class TestNumericalOptimum:
    def test_two_mode_equal_noise(self):
        num = cv.numerical_optimum(2, 1, 1, 0.8)
        assert abs(num.d_opt) < 1e-9

    def test_three_mode_agreement(self):
        num = cv.numerical_optimum(3, 1, 1, 0.5)
        assert num.d_opt == pytest.approx(cv.d_N_opt(3, 1, 1, 0.5), abs=1e-8)
        assert num.g_opt == pytest.approx(cv.g_N_opt(3, 1, 1, 0.5), abs=1e-8)

    def test_phi_min_identity(self):
        # objective value at the optimum is (1 + eta_N)^2
        for N, n1, n2, rbar in [(3, 1, 1, 0.5), (8, 1.5, 1.0, 1.0)]:
            num = cv.numerical_optimum(N, n1, n2, rbar)
            eta = cv.eta_generalized(cv.ResourceSpec(N, n1, n2, rbar))
            assert num.fidelity_opt ** -2 == pytest.approx((1 + eta) ** 2, abs=1e-9)

    def test_grid_agreement(self):
        for N, rbar, (n1, n2) in itertools.product(
            (2, 3, 8, 50), (0.0, 0.5, 1.5), ((1.0, 1.0), (2.0, 1.5))
        ):
            num = cv.numerical_optimum(N, n1, n2, rbar)
            assert num.d_opt == pytest.approx(cv.d_N_opt(N, n1, n2, rbar), abs=1e-8)
            if N > 2:
                assert num.g_opt == pytest.approx(cv.g_N_opt(N, n1, n2, rbar), abs=1e-8)
            assert num.fidelity_opt == pytest.approx(
                cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt, abs=1e-10
            )

    def test_gain_from_the_parabola_vertex(self):
        for N, rbar, (n1, n2) in itertools.product(
            (3, 8, 50), (0.0, 0.5, 1.5), ((1.0, 1.0), (2.0, 1.5))
        ):
            g = cv.g_N_opt(N, n1, n2, rbar)
            assert abs(cv.numerical_optimum(N, n1, n2, rbar).g_opt - g) <= 1e-14 * max(1.0, abs(g))

    def test_bias_to_1e_8_up_to_rbar_6(self):
        # phi_min = (1 + eta_N)^2 nears 1 at large rbar; phi - 1 keeps the minimum sharp
        for N, rbar, (n1, n2) in itertools.product(
            (2, 3, 5, 8, 20, 100, 1000, 10**4),
            (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0),
            ((1.0, 1.0), (1.5, 1.2), (2.0, 1.0), (1.0, 2.0)),
        ):
            d = cv.numerical_optimum(N, n1, n2, rbar).d_opt
            assert abs(d - cv.d_N_opt(N, n1, n2, rbar)) <= 1e-8, (N, n1, n2, rbar)

    def test_bias_to_1e_10_over_the_numerical_optimize_domain(self):
        """d to 1e-10 (relative past |d| = 1) and F_opt to 1e-12 where `optimize
        --method numerical` is asked: 400 stratified draws of N log-uniform in [2, 10^4],
        rbar in [0, 6] and n1, n2 in [1, 2], then a grid to N = 1000 and rbar = 8 with
        four noise pairs.  The worst bias error is about 2.5e-11 on either grid."""
        rng = np.random.default_rng(2005)
        k = 400

        def strata(lo, hi):  # one uniform draw in each of k equal strata, shuffled
            return rng.permutation(lo + (np.arange(k) + rng.random(k)) * (hi - lo) / k)

        Ns = np.rint(np.exp(strata(math.log(2), math.log(1e4)))).astype(int)
        draws = zip(Ns.tolist(), rng.uniform(1, 2, k).tolist(), rng.uniform(1, 2, k).tolist(),
                    strata(0.0, 6.0).tolist())
        grid = [(N, n1, n2, rbar) for N in (2, 3, 4, 8, 20, 50, 200, 1000)
                for n1, n2 in ((1.0, 1.0), (1.5, 1.2), (2.0, 1.0), (1.0, 2.0))
                for rbar in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)]
        for N, n1, n2, rbar in [*draws, *grid]:
            num, d = cv.numerical_optimum(N, n1, n2, rbar), cv.d_N_opt(N, n1, n2, rbar)
            assert abs(num.d_opt - d) <= 1e-10 * max(1.0, abs(d)), (N, n1, n2, rbar)
            F = cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt
            assert abs(num.fidelity_opt - F) <= 1e-12, (N, n1, n2, rbar)

    def test_at_most_100_objective_calls(self, monkeypatch):
        import cvteleport.optimize as opt
        calls, search = [], opt.golden_section

        def counting(fn, lo, hi):
            return search(lambda x: calls.append(x) or fn(x), lo, hi)

        monkeypatch.setattr(opt, "golden_section", counting)
        cv.numerical_optimum(8, 1.5, 1.0, 1.0)
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("seed", ["42", "43"])
    def test_work_per_verify_request(self, monkeypatch, seed):
        """Counts, not clocks: verify's oracle suite makes 24 searches (4 N x 3 rbar
        x 2 noise pairs) and 756 objective evaluations in them, whatever the seed."""
        import contextlib
        import io

        import cvteleport.optimize as opt
        from cvteleport import cli

        calls, evals = [], []
        numerical_optimum, search = cli.numerical_optimum, opt.golden_section
        monkeypatch.setattr(cli, "numerical_optimum",
                            lambda *args: calls.append(args) or numerical_optimum(*args))
        monkeypatch.setattr(opt, "golden_section", lambda fn, lo, hi: search(
            lambda x: evals.append(x) or fn(x), lo, hi))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--samples", "1000000", "--seed", seed]) == 0
        assert len(calls) == 24
        assert len(evals) == 756


class TestWorstCase:
    def test_two_mode_symmetric_tie(self):
        w = cv.worst_case(2, 1, 1, 0.7)
        iso = cv.IsoEntangledClass(2, 1, 1, 0.7)
        a, b = iso.fidelity(-0.7, 0.0), iso.fidelity(0.7, 0.0)
        assert a == pytest.approx(b, rel=1e-14)
        assert w.fidelity_worst == pytest.approx(a, rel=1e-14)

    def test_two_mode_noisy_bound(self):
        # large squeezing, n2 = 2: worst boundary r2 = 0 approaches 1/sqrt(1+n2)
        w = cv.worst_case(2, 1, 2, 5.0)
        assert w.zeroed_squeezer == "r2"
        assert w.fidelity_worst == pytest.approx(1 / math.sqrt(3), abs=1e-3)
        assert w.fidelity_worst < 1 / math.sqrt(2)  # below 1/sqrt(max noise)

    def test_network_asymptote(self):
        w = cv.worst_case(8, 1.5, 1.5, 3.0)
        assert w.zeroed_squeezer == "r1"
        assert w.fidelity_worst == pytest.approx(1 / math.sqrt(7), abs=1e-3)

    def test_boundary_selection_rule(self):
        # r1 = 0 is worst iff n1 > 2 n2 e^{2rbar} / (N e^{2rbar} + 2 - N)
        for N, n1, n2, rbar in [
            (3, 1.0, 1.0, 0.5), (3, 2.0, 1.0, 0.5), (8, 1.0, 2.0, 0.3),
            (2, 2.0, 1.0, 1.0), (2, 1.0, 2.0, 1.0), (20, 1.5, 1.5, 0.8),
        ]:
            w = cv.worst_case(N, n1, n2, rbar)
            threshold = 2 * n2 * math.exp(2 * rbar) / (N * math.exp(2 * rbar) + 2 - N)
            expected = "r1" if n1 > threshold else "r2"
            if abs(n1 - threshold) > 1e-9:
                assert w.zeroed_squeezer == expected

    def test_worst_never_above_optimal(self):
        for N, rbar in [(2, 0.5), (3, 1.0), (8, 2.0)]:
            assert (cv.worst_case(N, 1.2, 1.1, rbar).fidelity_worst
                    <= cv.optimal_fidelity(N, 1.2, 1.1, rbar).fidelity_opt + 1e-12)


class TestDUnbiased:
    def test_symmetric_two_mode(self):
        assert cv.d_unbiased(2, 1, 1, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_three_mode_root(self):
        d = cv.d_unbiased(3, 1, 1, 0.5)
        lhs = math.sinh(2 * (0.5 + d))
        rhs = 2 * math.sinh(2 * (0.5 - d))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_inputs_validated(self):
        with pytest.raises(ValueError, match="n1 must be finite"):
            cv.d_unbiased(4, math.nan, 1, 1)
        with pytest.raises(ValueError, match="thermal noise"):
            cv.d_unbiased(4, 0.5, 1, 1)
        with pytest.raises(ValueError, match="rbar must be >= 0"):
            cv.d_unbiased(4, 1, 1, -0.1)
        with pytest.raises(ValueError, match="N must be an integer"):
            cv.d_unbiased(1, 1, 1, 0.5)

    def test_resulting_cm_unbiased(self):
        d = cv.d_unbiased(3, 1, 1, 0.5)
        cm = cv.build_resource(cv.ResourceSpec(3, 1, 1, 0.5, d))
        block = cm.mode_block(0, 0)
        assert block[0, 0] == pytest.approx(block[1, 1], abs=1e-10)

    def test_fidelity_ordering(self):
        # worst <= equal squeezers <= optimal, unbiased <= optimal
        for N, n1, n2, rbar in itertools.product(
            (2, 3, 4, 8), (1.0, 1.5), (1.0, 1.3), (0.25, 0.75, 1.5)
        ):
            g = 0.0 if N == 2 else cv.g_N_opt(N, n1, n2, rbar)
            fid = lambda d: cv.IsoEntangledClass(N, n1, n2, rbar).fidelity(d, g)
            f_worst = cv.worst_case(N, n1, n2, rbar).fidelity_worst
            f_equal = fid(0.0)
            f_unbiased = fid(cv.d_unbiased(N, n1, n2, rbar))
            f_opt = cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt
            assert f_worst <= f_equal + 1e-12
            assert f_equal <= f_opt + 1e-12
            assert f_unbiased <= f_opt + 1e-12


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 10_000),
    n1=st.floats(1.0, 10.0),
    n2=st.floats(1.0, 10.0),
    rbar=st.floats(0.0, 20.0, allow_subnormal=False),
)
def test_d_unbiased_is_the_root(N, n1, n2, rbar):
    """The closed form solves n1 sinh(2(rbar+d)) = (N-1) n2 sinh(2(rbar-d)).

    The residual, evaluated at 50 digits at the returned d, is at most 1e-12
    of its slope times rbar: d is a root to 1e-12 of rbar.  (Relative to its
    two terms, no double d reaches 1e-12 when rbar - d << rbar, as for k >> n1.)
    The root matches a 50-digit evaluation of the closed form to 1e-14 of
    max(|d|, rbar).
    """
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    d_float = cv.d_unbiased(N, n1, n2, rbar)
    assert abs(d_float) < rbar or d_float == rbar == 0.0
    r, d, n1m, k = mp.mpf(rbar), mp.mpf(d_float), mp.mpf(n1), (N - 1) * mp.mpf(n2)
    residual = n1m * mp.sinh(2 * (r + d)) - k * mp.sinh(2 * (r - d))
    slope = 2 * n1m * mp.cosh(2 * (r + d)) + 2 * k * mp.cosh(2 * (r - d))
    assert abs(residual) <= 1e-12 * slope * r
    root = mp.log1p((k - n1m) * -mp.expm1(-4 * r) / (n1m + k * mp.exp(-4 * r))) / 4
    assert abs(d - root) <= 1e-14 * max(abs(root), r)
