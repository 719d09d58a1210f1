import math
import time
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

import cvteleport as cv
from cvteleport.gaussian import omega
from cvteleport.structured import input_variances
from oracles import (
    beam_splitter, cascade_resource, cascade_splitter, conjugate, random_symplectic, splitter,
    squeezer, symplectic_min_mp)


NU_MINS = [2.0, 1 + 1e-7, 1 - 5e-10, 1 - 2e-9, 1 - 1e-6, 0.5]


def with_spectrum(N, nu_min):
    """sigma = S (+)_k nu_k I_2 S^T, whose symplectic spectrum is nu by construction,
    with nu_min and N - 1 draws from [1, 3)."""
    rng = np.random.default_rng(100 + N)
    nu = np.r_[nu_min, rng.uniform(1.0, 3.0, N - 1)]
    S = random_symplectic(N, rng)  # squeezings |r| <= 0.8
    sigma = S @ np.diag(np.repeat(nu, 2)) @ S.T
    return 0.5 * (sigma + sigma.T)


class TestVacuum:
    def test_single_mode(self):
        assert np.array_equal(cv.vacuum_cm(1).entries, np.eye(2))

    def test_three_modes(self):
        assert np.array_equal(cv.vacuum_cm(3).entries, np.eye(6))

    def test_guard(self):
        with pytest.raises(ValueError):
            cv.vacuum_cm(0)


class TestSqueezedThermal:
    def test_vacuum_limit(self):
        for axis in ("momentum", "position"):
            assert np.allclose(cv.squeezed_thermal_cm(1, 0, axis).entries, np.eye(2))

    def test_momentum_squeezed(self):
        # oracle: variances n e^{+-2r} evaluated directly
        cm = cv.squeezed_thermal_cm(1, 0.5, "momentum")
        assert np.allclose(cm.entries, np.diag([np.e, 1 / np.e]), atol=1e-15)

    def test_position_squeezed(self):
        cm = cv.squeezed_thermal_cm(2, 0.5, "position")
        assert np.allclose(cm.entries, np.diag([2 / np.e, 2 * np.e]), atol=1e-15)

    def test_unphysical_noise(self):
        with pytest.raises(ValueError):
            cv.squeezed_thermal_cm(0.5, 0.1)

    @pytest.mark.parametrize("r", [7.3, 10.7, 11.0, 0.123, -2.5])
    def test_entries_are_the_resource_inputs(self, r):
        """Bit for bit the closed forms' variances: at these r, numpy's exp and
        math.exp can differ in the last bit, which decides some states' physicality."""
        v1x, v2x, v1p, v2p = input_variances(1.3, 1.1, r, r)
        assert np.diag(cv.squeezed_thermal_cm(1.3, r, "momentum").entries).tolist() == [v1x, v1p]
        assert np.diag(cv.squeezed_thermal_cm(1.1, r, "position").entries).tolist() == [v2x, v2p]

    @pytest.mark.parametrize("r", [355.0, -355.0, 1e6])
    def test_beyond_the_float_range_is_a_value_error(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance matrix has non-finite entries$"):
                cv.squeezed_thermal_cm(1.0, r)


class TestBeamSplitter:
    def test_balanced_on_vacuum(self):
        S = beam_splitter(np.pi / 4, 0, 1, 2)
        out = cv.CovarianceMatrix(conjugate(S, cv.vacuum_cm(2).entries))
        assert np.allclose(out.entries, np.eye(4), atol=1e-14)

    def test_theta_zero_sign_convention(self):
        S = beam_splitter(0.0, 0, 1, 2)
        # mode i untouched, mode j flipped
        assert np.allclose(S, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_symplectic_form_random_theta(self):
        rng = np.random.default_rng(7)
        W = omega(3)
        for theta in rng.uniform(0, 2 * np.pi, size=10):
            S = beam_splitter(theta, 0, 2, 3)
            assert np.max(np.abs(S @ W @ S.T - W)) < 1e-12


class TestNSplitter:
    def test_n2_is_balanced_bs(self):
        assert np.allclose(splitter(2), beam_splitter(np.pi / 4, 0, 1, 2))

    def test_n3_balanced_first_column(self):
        # oracle: multiply the two factor matrices by hand
        t1 = np.arccos(1 / np.sqrt(3))
        by_hand = beam_splitter(np.pi / 4, 1, 2, 3) @ beam_splitter(t1, 0, 1, 3)
        S = splitter(3)
        assert np.allclose(S, by_hand, atol=1e-15)
        x_sector = S[0::2, 0::2]
        assert np.allclose(x_sector[:, 0], 1 / np.sqrt(3), atol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 20, 50])
    def test_symplectic_orthogonal_balanced(self, N):
        S = splitter(N)
        W = omega(N)
        assert np.max(np.abs(S @ W @ S.T - W)) < 1e-12
        assert np.max(np.abs(S @ S.T - np.eye(2 * N))) < 1e-12
        assert np.allclose(S[0::2, 0::2][:, 0], 1 / np.sqrt(N), atol=1e-13)

    def test_equals_cascade(self):
        for N in [*range(2, 17), 31, 32, 63, 64]:
            S = splitter(N)
            assert np.max(np.abs(S - cascade_splitter(N))) < 1e-12, N
            W = omega(N)
            assert np.max(np.abs(S @ W @ S.T - W)) < 1e-12, N

    def test_helmert_is_built_in_place(self):
        """A cold O at 1000 modes allocates its 8.0 MB and np.tril's 1.0 MB mask, not a
        frozen copy on top; a count of bytes, not a clock."""
        tracemalloc.start()
        try:
            O = cv.gaussian._helmert.__wrapped__(1000)  # bypass the memo cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not O.flags.writeable
        assert peak <= 9.2e6, peak


class TestApply:
    """S sigma S^T on a validated state, with the transforms of ``tests/oracles.py``."""

    def test_squeezer_roundtrip(self):
        sigma = cv.vacuum_cm(2)
        fwd = cv.CovarianceMatrix(conjugate(squeezer(0.7, 0, 2), sigma.entries))
        out = cv.CovarianceMatrix(conjugate(squeezer(-0.7, 0, 2), fwd.entries))
        assert np.max(np.abs(out.entries - sigma.entries)) < 1e-12

    def test_preserves_physicality(self):
        rng = np.random.default_rng(3)
        sigma = cv.build_resource(cv.ResourceSpec(3, 1.5, 1.2, 0.8, 0.2))
        for _ in range(5):
            sigma = cv.CovarianceMatrix(conjugate(random_symplectic(3, rng), sigma.entries))
            assert np.min(cv.symplectic_eigenvalues(sigma)) >= 1 - 1e-9


class TestBuildResource:
    def test_vacuum_in_vacuum_out(self):
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.0, 0.0))
        assert np.allclose(cm.entries, np.eye(4), atol=1e-14)

    def test_two_mode_squeezed_form(self):
        # oracle: conjugate the diagonal input CM by the pi/4 beam splitter
        r = 0.5
        inputs = cv.block_diag_cm(
            cv.squeezed_thermal_cm(1, r, "momentum"),
            cv.squeezed_thermal_cm(1, r, "position"),
        )
        expected = cv.CovarianceMatrix(conjugate(beam_splitter(np.pi / 4, 0, 1, 2), inputs.entries))
        built = cv.build_resource(cv.ResourceSpec(2, 1, 1, r, 0.0))
        assert np.allclose(built.entries, expected.entries, atol=1e-14)
        # cosh/sinh structure of the standard two-mode squeezed CM
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        tms = np.array(
            [[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]
        )
        assert np.allclose(built.entries, tms, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        cv.ResourceSpec(3, 1.2, 1.5, 0.7, 0.1),
        cv.ResourceSpec(4, 1.0, 1.0, 1.0, -0.3),
        cv.ResourceSpec(8, 2.0, 1.1, 0.4, 0.0),
    ])
    def test_permutation_symmetric(self, spec):
        cm = cv.build_resource(spec)
        first_block = cm.mode_block(0, 0)
        first_off = cm.mode_block(0, 1)
        for i in range(spec.N):
            assert np.max(np.abs(cm.mode_block(i, i) - first_block)) < 1e-12
            for j in range(i + 1, spec.N):
                assert np.max(np.abs(cm.mode_block(i, j) - first_off)) < 1e-12

    def test_iso_entangled_class_same_pt_spectrum(self):
        # fixed (N, n1, n2, rbar), varying d: local-unitary equivalent states
        rbar = 0.6
        ref = None
        for d in (-rbar, 0.0, rbar / 2, rbar):
            cm = cv.build_resource(cv.ResourceSpec(3, 1.3, 1.1, rbar, d))
            spec = cv.symplectic_eigenvalues(cv.partial_transpose(cm, {0}))
            if ref is None:
                ref = spec
            else:
                assert np.max(np.abs(spec - ref)) < 1e-9

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 20, 50, 200])
    def test_entries_match_the_cascade(self, monkeypatch, N):
        for (n1, n2), rbar in product(((1.0, 1.0), (1.5, 1.2), (2.0, 1.0)), (0.0, 0.5, 2.0, 4.0)):
            for d in (-rbar / 2, 0.0, cv.d_N_opt(N, n1, n2, rbar)):
                spec = cv.ResourceSpec(N, n1, n2, rbar, d, constrain_bias=False)
                want = cascade_resource(spec)
                # the entries as built: near rbar 4, rounding decides whether they validate
                with monkeypatch.context() as m:
                    m.setattr(cv.gaussian.CovarianceMatrix, "__post_init__", lambda self: None)
                    got = cv.build_resource(spec).entries
                bound = 8 * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound, (n1, n2, rbar, d)
                assert not got[0::2, 1::2].any()  # no x-p terms

    @pytest.mark.parametrize("N", [2, 3, 8, 50])
    def test_accepts_and_rejects_as_the_cascade(self, N):
        """On the pure d = 0 resource from rbar 3 to 12, where rounding starts to
        decide physicality a little above rbar 4, both routes agree point by point."""
        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        decisions = []
        for i in range(181):
            spec = cv.ResourceSpec(N, 1.0, 1.0, 3.0 + 0.05 * i, 0.0)
            decisions.append((accepts(lambda: cv.build_resource(spec)),
                              accepts(lambda: cv.CovarianceMatrix(cascade_resource(spec)))))
        assert [a for a, _ in decisions] == [b for _, b in decisions]
        assert decisions[0][0] and not all(a for a, _ in decisions)  # both outcomes occur

    @pytest.mark.parametrize("rbar, d", [(355.0, 0.0), (200.0, 160.0), (200.0, -160.0)])
    def test_beyond_the_float_range_is_a_value_error(self, rbar, d):
        """e^{2 r1} or e^{2 r2} past the float range: the error the non-finite
        entries give, as for every other CovarianceMatrix."""
        spec = cv.ResourceSpec(4, 1.0, 1.0, rbar, d, constrain_bias=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance matrix has non-finite entries$"):
                cv.build_resource(spec)


class TestValidationCounts:
    """Counts, not clocks: the built resource is validated once."""

    @pytest.mark.parametrize("N", [2, 3, 8, 50])
    def test_one_validation_per_build(self, monkeypatch, N):
        validations = []
        validate = cv.gaussian.CovarianceMatrix.__post_init__

        def counting(self):
            validations.append(len(self.entries))
            validate(self)

        monkeypatch.setattr(cv.gaussian.CovarianceMatrix, "__post_init__", counting)
        cv.build_resource(cv.ResourceSpec(N, 1.3, 1.1, 0.6, 0.1))
        assert validations == [2 * N]


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(cv.symplectic_eigenvalues(cv.vacuum_cm(4)), 1.0)

    def test_squeezed_thermal(self):
        nus = cv.symplectic_eigenvalues(cv.squeezed_thermal_cm(2.5, 0.9))
        assert np.allclose(nus, [2.5], atol=1e-12)

    def test_pure_two_mode_squeezed(self):
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.8, 0.0))
        assert np.allclose(cv.symplectic_eigenvalues(cm), [1.0, 1.0], atol=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(ValueError, match="^covariance matrix is not positive definite$"):
            cv.symplectic_eigenvalues(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("rbar", [6.2, 6.55])
    def test_against_80_digits(self, rbar):
        # build_resource's double matrix at N = 2, n1 = n2 = 1; an eigensolve of the
        # non-symmetric -(Omega sigma)^2 is 3e-7 (rbar 6.2) and 3e-6 (rbar 6.55) off
        e = math.exp(2 * rbar)
        S = splitter(2)
        m = S @ np.diag([e, 1 / e, 1 / e, e]) @ S.T
        m = 0.5 * (m + m.T)
        assert cv.symplectic_eigenvalues(m)[0] == pytest.approx(symplectic_min_mp(m), rel=1e-10)

    def test_invariant_under_symplectic(self):
        rng = np.random.default_rng(11)
        sigma = cv.build_resource(cv.ResourceSpec(3, 1.4, 1.2, 0.5, 0.1))
        base = cv.symplectic_eigenvalues(sigma)
        for _ in range(10):
            conj = cv.CovarianceMatrix(conjugate(random_symplectic(3, rng), sigma.entries))
            assert np.max(np.abs(cv.symplectic_eigenvalues(conj) - base)) < 1e-9


class TestPartialTranspose:
    def test_involution(self):
        sigma = cv.build_resource(cv.ResourceSpec(3, 1.2, 1.0, 0.4, 0.1))
        pt = cv.partial_transpose(sigma, {1})
        lam = np.ones(6)
        lam[3] = -1.0  # p of mode 1
        assert np.allclose(pt * np.outer(lam, lam), sigma.entries)

    def test_product_state_spectrum_unchanged(self):
        prod = cv.block_diag_cm(
            cv.squeezed_thermal_cm(1.5, 0.3), cv.squeezed_thermal_cm(2.0, 0.6)
        )
        before = cv.symplectic_eigenvalues(prod)
        after = cv.symplectic_eigenvalues(cv.partial_transpose(prod, {1}))
        assert np.max(np.abs(np.sort(before) - np.sort(after))) < 1e-12

    def test_entangled_two_mode_squeezed(self):
        # oracle: eta = sqrt(n1 n2) e^{-(r1+r2)} = e^{-1} at n=1, rbar=0.5
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        nus = cv.symplectic_eigenvalues(cv.partial_transpose(cm, {1}))
        assert abs(np.min(nus) - np.exp(-1)) < 1e-12

    def test_guards(self):
        sigma = cv.vacuum_cm(2)
        with pytest.raises(ValueError):
            cv.partial_transpose(sigma, set())
        with pytest.raises(ValueError):
            cv.partial_transpose(sigma, {0, 1})


class TestPurity:
    def test_vacuum(self):
        assert cv.purity(cv.vacuum_cm(3)) == pytest.approx(1.0, abs=1e-14)

    def test_two_mode_resource(self):
        # mu = 1/(n1 n2): det of the product of the two input CMs
        cm = cv.build_resource(cv.ResourceSpec(2, 2.0, 1.5, 0.4, 0.1))
        assert cv.purity(cm) == pytest.approx(1 / 3, abs=1e-12)

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(5)
        sigma = cv.build_resource(cv.ResourceSpec(2, 1.7, 1.3, 0.6, 0.0))
        mu = cv.purity(sigma)
        for _ in range(5):
            sigma = cv.CovarianceMatrix(conjugate(random_symplectic(2, rng), sigma.entries))
            assert cv.purity(sigma) == pytest.approx(mu, rel=1e-10)


class TestResourceSpec:
    def test_bias_bounds(self):
        with pytest.raises(ValueError):
            cv.ResourceSpec(2, 1, 1, 0.5, 0.6)
        spec = cv.ResourceSpec(2, 1, 1, 0.5, 0.6, constrain_bias=False)
        assert spec.r2 == pytest.approx(-0.1)

    def test_guards(self):
        with pytest.raises(ValueError):
            cv.ResourceSpec(1, 1, 1, 0.5)
        with pytest.raises(ValueError):
            cv.ResourceSpec(2, 0.9, 1, 0.5)
        with pytest.raises(ValueError):
            cv.ResourceSpec(2, 1, 1, -0.1)

    @pytest.mark.parametrize("field", ["n1", "n2", "rbar", "d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        kwargs = {"N": 3, "n1": 1.0, "n2": 1.0, "rbar": 0.5, "d": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cv.ResourceSpec(**kwargs, constrain_bias=False)

    def test_input_variances(self):
        spec = cv.ResourceSpec(3, 1.5, 1.2, 0.7, 0.2)
        cm = cv.block_diag_cm(cv.squeezed_thermal_cm(1.5, spec.r1, "momentum"),
                              cv.squeezed_thermal_cm(1.2, spec.r2, "position"))
        v1x, v2x, v1p, v2p = spec.variances
        assert (v1x, v1p, v2x, v2p) == tuple(np.diag(cm.entries))

    def test_unphysical_cm_rejected(self):
        with pytest.raises(ValueError):
            cv.CovarianceMatrix(0.5 * np.eye(2))

    def test_asymmetric_matrix_rejected(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            cv.CovarianceMatrix(m)


class TestPhysicalityTolerance:
    """nu_min >= 1 - max(1e-9, 64 eps ||sigma||_2): the norm-scaled slack only
    widens the bound, so it is computed only when 1e-9 alone would reject."""

    SLACK_1E7 = 64 * np.finfo(float).eps * 1e7  # 1.4e-7 for a norm of 1e7

    def test_unphysical_message(self):
        with pytest.raises(ValueError, match=r"^unphysical covariance matrix: "
                                             r"min symplectic eigenvalue 0\.5$"):
            cv.CovarianceMatrix(0.5 * np.eye(2))

    def test_slack_accepts_at_large_norm(self):
        # nu = sqrt(1 - 3e-8): below 1 - 1e-9, within the slack of ||sigma|| = 1e7
        m = np.diag([1e7, (1 - 3e-8) / 1e7])
        nu = cv.symplectic_eigenvalues(m)[0]
        assert 1.0 - self.SLACK_1E7 < nu < 1.0 - cv.gaussian.PHYSICALITY_TOL
        assert cv.CovarianceMatrix(m).entries[0, 0] == 1e7

    def test_slack_rejects_beyond_it(self):
        m = np.diag([1e7, (1 - 1e-6) / 1e7])
        assert cv.symplectic_eigenvalues(m)[0] < 1.0 - self.SLACK_1E7
        with pytest.raises(ValueError, match="^unphysical covariance matrix"):
            cv.CovarianceMatrix(m)

    def test_no_norm_when_physical(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("the slack's SVD ran on a physical matrix")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        cv.build_resource(cv.ResourceSpec(4, 1.3, 1.1, 0.6, 0.1))


class TestCholeskyValidation:
    """sigma + i(1 - 1e-9) Omega > 0 exactly when nu_min > 1 - 1e-9, so one complex
    Cholesky accepts a physical matrix and the spectrum runs only on rejection."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_non_finite_entries(self, value, at):
        m = np.eye(4)
        m[at] = m[at[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance matrix has non-finite entries$"):
                cv.CovarianceMatrix(m)

    @pytest.mark.parametrize("N", [2, 8, 20])
    def test_no_spectrum_when_physical(self, monkeypatch, N):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("the symplectic spectrum ran on a physical matrix")

        monkeypatch.setattr(cv.gaussian, "symplectic_eigenvalues", no_spectrum)
        sigma = cv.build_resource(cv.ResourceSpec(N, 1.3, 1.1, 0.6, 0.1))
        if N > 2:
            assert cv.localize(sigma).cm.n_modes == 2

    @pytest.mark.parametrize("nu_min", NU_MINS)
    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_decision_matches_the_spectrum_rule(self, N, nu_min):
        sigma = with_spectrum(N, nu_min)
        if nu_min >= 1.0 - cv.gaussian.PHYSICALITY_TOL:
            assert np.array_equal(cv.CovarianceMatrix(sigma).entries, sigma)
        else:
            message = f"min symplectic eigenvalue {cv.symplectic_eigenvalues(sigma)[0]:.12g}"
            with pytest.raises(ValueError) as info:
                cv.CovarianceMatrix(sigma)
            assert str(info.value) == f"unphysical covariance matrix: {message}"

    def test_budget_at_20_modes(self):
        m = cv.build_resource(cv.ResourceSpec(20, 1.3, 1.1, 0.6, 0.1)).entries

        def per_validation():
            t0 = time.perf_counter()
            for _ in range(200):
                cv.CovarianceMatrix(m)
            return (time.perf_counter() - t0) / 200

        assert min(per_validation() for _ in range(5)) < 80e-6


# verify's suite-1 grid of (n1, n2, rbar, d)
GRID = [(n1, n2, rbar, dfrac * rbar) for rbar in (0.0, 0.5, 1.0, 2.0)
        for n1 in (1.0, 2.0) for n2 in (1.0, 2.0) for dfrac in (-0.5, 0.0, 0.5)]


def with_entry(m, at, value):
    m = np.array(m, dtype=float)
    m[at] = value
    return m


# each matrix the tests above accept or reject, keyed by the reason
ALONE = {
    **{f"{value}-at-{at}": with_entry(with_entry(np.eye(4), at, value), at[::-1], value)
       for value in (math.nan, math.inf, -math.inf) for at in ((0, 0), (0, 1))},
    "asymmetric": with_entry(np.eye(2), (0, 1), 1e-6),
    "unphysical": 0.5 * np.eye(2),
    "indefinite": np.diag([1.0, -1.0]),
    "slack-accepts": np.diag([1e7, (1 - 3e-8) / 1e7]),
    "slack-rejects": np.diag([1e7, (1 - 1e-6) / 1e7]),
    **{f"N{N}-nu{nu_min}": with_spectrum(N, nu_min) for N in (2, 5, 12) for nu_min in NU_MINS},
}


def physical_stack(dim):
    """Eleven physical states of dim / 2 modes: squeezed thermal or built resources."""
    if dim == 2:
        return np.array([cv.squeezed_thermal_cm(1 + 0.1 * i, 0.2 * i).entries for i in range(11)])
    return np.array([cv.build_resource(cv.ResourceSpec(dim // 2, 1 + 0.1 * i, 1.2, 0.3 * i, 0.0))
                     .entries for i in range(11)])


def outcome(validate, m):
    """The validated entries, or the text of the rejection."""
    try:
        return validate(m)
    except ValueError as error:
        return str(error)


def localization_stack(N):
    """verify's localization grid at N: six resources at d_N_opt, built as one stack."""
    specs = [cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar), constrain_bias=False)
             for rbar in (0.25, 0.5, 1.0) for n1, n2 in ((1.0, 1.0), (1.5, 1.0))]
    return cv.gaussian.validated(
        cv.gaussian.resource_entries(N, np.array([spec.variances for spec in specs]).T))


def random_stack(N, k=12):
    """k random physical states of N modes, x-p correlated: spectra in [1, 3), random
    splitters and squeezers, then a random phase rotation of every mode."""
    rng = np.random.default_rng(50 + N)
    out = []
    for _ in range(k):
        phase = np.zeros((2 * N, 2 * N))
        for j, t in enumerate(rng.uniform(0.0, np.pi, N)):
            phase[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[np.cos(t), np.sin(t)],
                                                       [-np.sin(t), np.cos(t)]]
        S = phase @ random_symplectic(N, rng)
        out.append(S @ np.diag(np.repeat(rng.uniform(1.0, 3.0, N), 2)) @ S.T)
    return cv.gaussian.validated(np.array(out))


def as_entries(state):
    return getattr(state, "entries", state)


# each stack-native dense function: (least modes, the call on a stack or on one matrix)
DENSE = {
    "symplectic_eigenvalues": (1, cv.symplectic_eigenvalues),
    "partial_transpose": (2, lambda m: cv.partial_transpose(m, (0,))),
    "homodyne_condition": (2, lambda m: as_entries(cv.homodyne_condition(m, 1, "x").cm)),
    "localize": (3, lambda m: as_entries(cv.localize(m, (2, 0)).cm)),
    "eta_two_mode": (2, lambda m: cv.eta_two_mode(
        m if cv.gaussian.quadrature_blocks(m).n_modes == 2 else cv.localize(m).cm)),
}


class TestStackedKernels:
    """``resource_entries``, ``validated`` and the stack-native dense functions give over
    a stack, matrix by matrix and bit for bit, what ``build_resource``,
    ``CovarianceMatrix`` and the functions give for one matrix: a single matrix is the
    k = 1 case."""

    VARIANCES = np.array([cv.ResourceSpec(2, *point).variances for point in GRID]).T

    def stack(self, N):
        return cv.gaussian.validated(cv.gaussian.resource_entries(N, self.VARIANCES))

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 20])
    def test_slices_are_the_single_builds(self, N):
        stack = self.stack(N)
        assert stack.shape == (len(GRID), 2 * N, 2 * N)
        for entries, point in zip(stack, GRID):
            assert np.array_equal(entries, cv.build_resource(cv.ResourceSpec(N, *point)).entries)

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 20])
    def test_teleported_variances_per_slice(self, N):
        stack = self.stack(N)
        for (sender, receiver), g in product(((0, 1), (N - 1, 0)), (0.0, 1.0, -0.7)):
            var_x, var_p = cv.teleported_variances(stack, sender, receiver, g)
            assert var_x.shape == var_p.shape == (len(GRID),)
            for i, point in enumerate(GRID):
                sigma = cv.build_resource(cv.ResourceSpec(N, *point))
                one = cv.teleported_variances(sigma, sender, receiver, g)
                assert (var_x[i], var_p[i]) == pytest.approx(one, rel=1e-14, abs=0)

    @pytest.mark.parametrize("at", [0, 5, 11])  # 12 matrices: two Cholesky slices of 8
    @pytest.mark.parametrize("case", sorted(ALONE))
    def test_decides_and_words_as_alone(self, case, at):
        m = ALONE[case]
        stack = np.insert(physical_stack(len(m)), at, m, axis=0)
        alone = outcome(lambda m: cv.CovarianceMatrix(m).entries, m)
        stacked = outcome(cv.gaussian.validated, stack)
        if isinstance(alone, str):
            assert stacked == alone
        else:
            assert not isinstance(stacked, str), stacked
            for got, one in zip(stacked, stack):
                assert np.array_equal(got, cv.CovarianceMatrix(one).entries)

    def test_any_leading_shape(self):
        stack = physical_stack(6)[:10]
        flat = cv.gaussian.validated(stack)
        assert np.array_equal(cv.gaussian.validated(stack.reshape(2, 5, 6, 6)),
                              flat.reshape(2, 5, 6, 6))
        assert np.array_equal(cv.gaussian.validated(stack[0]), flat[0])

    @pytest.mark.parametrize("shape", [(4,), (3, 4, 6), (3, 5, 5)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 2N x 2N, got shape"):
            cv.gaussian.validated(np.ones(shape))

    def test_covariance_matrix_takes_one_matrix(self):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 2N x 2N, "
                                             r"got shape \(1, 4, 4\)$"):
            cv.CovarianceMatrix(np.eye(4)[None])

    @pytest.mark.parametrize("name, states, N", [
        *((name, "verify", N) for name in sorted(DENSE) for N in (3, 4, 8)),
        *((name, "random", N) for name in sorted(DENSE) for N in (2, 3, 5) if N >= DENSE[name][0]),
    ])
    def test_slices_are_the_single_calls(self, name, states, N):
        fn = DENSE[name][1]
        stack = (localization_stack if states == "verify" else random_stack)(N)
        got = fn(stack)
        assert len(got) == len(stack)
        for one, sigma in zip(got, stack):
            assert np.array_equal(one, fn(cv.CovarianceMatrix(sigma)))

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_dense_any_leading_shape(self, name):
        fn = DENSE[name][1]
        stack = random_stack(3)
        flat = fn(stack)
        assert np.array_equal(fn(stack.reshape(3, 4, 6, 6)), flat.reshape(3, 4, *flat.shape[1:]))
        assert np.array_equal(fn(stack[:1]), flat[:1])
        assert np.array_equal(fn(stack[0]), flat[0])

    def test_eta_two_mode_returns_a_float_for_one_matrix(self):
        sigma = random_stack(2)[0]
        assert type(cv.eta_two_mode(sigma)) is type(cv.eta_two_mode(cv.CovarianceMatrix(sigma))) \
            is float

    # a matrix each function rejects: not positive definite, or conditioned to an
    # unphysical or indefinite state (a partial transpose rejects nothing)
    REJECTED = {
        "symplectic_eigenvalues": np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]),
        "homodyne_condition": 0.5 * np.eye(6),
        "localize": np.diag([1.0, 1.0, 1.0, 1.0, -1.0, 1.0]),
        "eta_two_mode": np.diag([1.0, 1.0, -1.0, 1.0]),
    }

    @pytest.mark.parametrize("at", [0, 5, 11])
    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_slice_words_as_alone(self, name, at):
        fn, bad = DENSE[name][1], self.REJECTED[name]
        alone = outcome(fn, bad)
        assert isinstance(alone, str), alone
        stack = np.insert(random_stack(len(bad) // 2, 11), at, bad, axis=0)
        assert outcome(fn, stack) == alone


NOISE_PAIRS = ((1.0, 1.0), (1.5, 1.2), (2.0, 1.0))


def resource_grid(N, rbars, biases=("zero", "optimal")):
    """Input variances, shape (4, k), of the resources (N, n1, n2, rbar, d) over the
    noise pairs and rbars, at d = 0 and at d_N_opt."""
    isos = [cv.IsoEntangledClass(N, n1, n2, rbar) for n1, n2 in NOISE_PAIRS for rbar in rbars]
    return np.array([input_variances(iso.n1, iso.n2, iso.rbar + d, iso.rbar - d)
                     for iso in isos
                     for d in [{"zero": 0.0, "optimal": iso.d_opt}[b] for b in biases]]).T


def raises(fn, *args):
    try:
        fn(*args)
    except np.linalg.LinAlgError:
        return True
    return False


def dense_form(m, w):
    """w^T m w over the whole 2N x 2N matrix, and the sum of its terms' magnitudes."""
    return (np.einsum("...ij,i,j->...", m, w, w),
            np.einsum("...ij,i,j->...", np.abs(m), np.abs(w), np.abs(w)))


class TestBlockKernels:
    """Without x-p correlations each operation is one N x N kernel on the blocks: the
    block check decides as the complex Cholesky of sigma + i(1 - 1e-9) Omega, and the
    spectrum, the homodyne conditioning and the teleported forms agree with the general
    2N x 2N route."""

    @pytest.mark.parametrize("N", [2, 3, 8, 50])
    def test_block_check_decides_as_the_complex_cholesky(self, N):
        """Every resource of the three noise pairs from rbar 0 to 4 in steps of 0.05,
        at d = 0 and at d_N_opt, and each of them scaled by 1 - 1e-8, which takes
        nu_min = 1 below 1 - 1e-9 for the pairs with a unit noise factor."""
        entries = cv.gaussian.resource_entries(N, resource_grid(N, np.arange(81) * 0.05))
        shifted = cv.gaussian._shifted_omega(2 * N)
        decisions = []
        for m in (*entries, *(entries * (1 - 1e-8))):
            blocks = cv.gaussian.quadrature_blocks(m).xp
            decisions.append((raises(cv.gaussian._check_blocks, blocks),
                              raises(np.linalg.cholesky, m + shifted)))
        assert [block for block, _ in decisions] == [dense for _, dense in decisions]
        assert {block for block, _ in decisions} == {True, False}

    @pytest.mark.parametrize("N", [2, 3, 8, 20, 50])
    def test_spectrum_agrees_with_the_dense_route(self, N):
        """Up to rbar 3, of the states and of two partial transposes.  Both routes carry
        about eps e^{4 rbar} of rounding (against 60 digits at N = 8, rbar 3, the block
        spectrum is 6e-12 off and the dense one 1.5e-12), so the bound is 1e-12
        relative to rbar 2 and eps e^{4 rbar} above: 3.6e-11 at rbar 3, where the worst
        seen is 1.3e-11 at N = 50."""
        rbars = np.arange(31) * 0.1
        blocks = cv.gaussian.validated(cv.gaussian.resource_blocks(N, resource_grid(N, rbars)))
        entries = cv.gaussian.interleaved(blocks)
        bound = np.maximum(1e-12, np.finfo(float).eps * np.exp(4 * np.repeat(np.tile(rbars, 3), 2)))
        for modes in ([], [0], list(range(N // 2)))[:3 if N > 2 else 2]:
            b, m = ((cv.gaussian.partial_transpose(s, modes) if modes else s) for s in (blocks, entries))
            got, want = cv.symplectic_eigenvalues(b), cv.gaussian._dense_spectrum(m)
            assert np.all(np.abs(got / want - 1).max(axis=-1) <= bound), modes

    @pytest.mark.parametrize("N", [3, 4, 8, 20])
    @pytest.mark.parametrize("quadrature", ["x", "p"])
    def test_conditioning_agrees_with_the_dense_route(self, N, quadrature):
        """localize and a one-mode homodyne detection, on blocks, against the Schur
        complement of the 2N x 2N matrix against the measured quadratures, to 1e-12
        of the largest entry, up to rbar 3."""
        from cvteleport.localize import _schur

        blocks = cv.gaussian.validated(
            cv.gaussian.resource_blocks(N, resource_grid(N, np.arange(31) * 0.1)))
        entries = cv.gaussian.interleaved(blocks)
        for modes in ([1], list(range(N - 1, 1, -1))):
            if quadrature == "p" and len(modes) == N - 2:
                got = cv.localize(blocks).cm
            elif len(modes) == 1:
                got = cv.homodyne_condition(blocks, modes[0], quadrature).cm
            else:
                continue
            gone = {2 * j + q for j in modes for q in (0, 1)}
            want = _schur(entries, [i for i in range(2 * N) if i not in gone],
                          [2 * j + (quadrature == "p") for j in modes])
            scale = np.abs(want).max(axis=(-1, -2), keepdims=True)
            assert np.abs(cv.gaussian.interleaved(got) - want).max() <= 1e-12 * scale.min()
            assert (np.abs(cv.gaussian.interleaved(got) - want) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("states", ["resources", "correlated"])
    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_forms_agree_with_the_dense_route(self, N, states):
        """teleported_variances reads sigma_x and sigma_p only; against w^T sigma w over
        the whole matrix, with x-p correlations too, to 1e-12 of the sum of the terms'
        magnitudes (at the optimal gain p_tot cancels its terms down to N v1p)."""
        if states == "resources":
            sigma = cv.gaussian.interleaved(cv.gaussian.validated(
                cv.gaussian.resource_blocks(N, resource_grid(N, np.arange(31) * 0.1))))
        else:
            sigma = random_stack(N)
        for (sender, receiver), g in product(((0, 1), (N - 1, 0)), (0.0, 1.0, -0.7)):
            got = cv.teleported_variances(sigma, sender, receiver, g)
            u, v = np.zeros(2 * N), np.zeros(2 * N)
            u[2 * sender], u[2 * receiver] = 1.0, -1.0
            v[1::2] = g
            v[2 * sender + 1] = v[2 * receiver + 1] = 1.0
            for one, w in zip(got, (u, v)):
                want, scale = dense_form(sigma, w)
                assert (np.abs(one - want) <= 1e-12 * scale).all(), (sender, receiver, g)

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_blocks_give_what_their_entries_give(self, name):
        """An XPBlocks stack and its interleaved entries take the same kernels: the
        results agree bit for bit, interleaved where they are states."""
        fn = DENSE[name][1]
        blocks = cv.gaussian.validated(
            cv.gaussian.resource_blocks(4, resource_grid(4, np.arange(7) * 0.5)))
        got, want = fn(blocks), fn(cv.gaussian.interleaved(blocks))
        if isinstance(got, cv.gaussian.XPBlocks):
            got = cv.gaussian.interleaved(got)
        assert np.array_equal(got, want)

    def test_validated_blocks(self):
        blocks = cv.gaussian.resource_blocks(3, resource_grid(3, [0.5, 1.0]))
        checked = cv.gaussian.validated(blocks)
        assert isinstance(checked, cv.gaussian.XPBlocks)
        assert np.array_equal(cv.gaussian.interleaved(checked),
                              cv.gaussian.validated(cv.gaussian.interleaved(blocks)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4, 3, 3), (2, 4, 3, 2)])
    def test_blocks_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^x and p blocks must be \(2, \.\.\., N, N\)"):
            cv.gaussian.validated(cv.gaussian.XPBlocks(np.ones(shape)))

    @pytest.mark.parametrize("at", [0, 5, 11])
    @pytest.mark.parametrize("case", ["unphysical", "indefinite", "slack-accepts",
                                      "slack-rejects", "nan-at-(0, 0)"])
    def test_blocks_decide_and_word_as_alone(self, case, at):
        """A matrix without x-p correlations, inserted into a stack of physical blocks:
        the XPBlocks stack is accepted or rejected, with the same text, as the matrix
        alone."""
        m = ALONE[case]
        stack = np.insert(physical_stack(len(m)), at, m, axis=0)
        alone = outcome(lambda m: cv.CovarianceMatrix(m).entries, m)
        stacked = outcome(lambda s: cv.gaussian.interleaved(
            cv.gaussian.validated(cv.gaussian.quadrature_blocks(s))), stack)
        if isinstance(alone, str):
            assert stacked == alone
        else:
            assert np.array_equal(stacked[at], alone)
