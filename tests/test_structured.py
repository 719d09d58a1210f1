"""The structured symmetric resource against the dense covariance-matrix path.

fidelity_network, eta_one_vs_rest and localizable_eta work on the four input
variances of the resource.  Here they are checked against the dense path
(build_resource with teleported_variances / partial_transpose / localize), a
high-precision dense oracle and properties that hold over the whole domain.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport as cv
from cvteleport.teleport import teleported_variances

DENSE_N = (2, 3, 4, 8, 20)
DENSE_RBAR = (0.0, 0.5, 1.0, 2.0)


def dense_eta_pt(sigma):
    return float(np.min(cv.symplectic_eigenvalues(cv.partial_transpose(sigma, {0}))))


def dense_eta_localized(sigma):
    # eta_two_mode's determinant formula keeps only sqrt(eps) at the double
    # root of separable states, so the localized pair goes through the spectrum
    return dense_eta_pt(sigma if sigma.n_modes == 2 else cv.localize(sigma).cm)


def specs(N_values, rbars, noises=((1.0, 1.0), (1.5, 1.2), (1.1, 2.0))):
    """Resources at the optimal bias and at two other biases."""
    for N, rbar, (n1, n2) in itertools.product(N_values, rbars, noises):
        for d in (cv.d_N_opt(N, n1, n2, rbar), -0.5 * rbar, 0.3 * rbar):
            yield cv.ResourceSpec(N, n1, n2, rbar, d, constrain_bias=False)


class TestAgainstDense:
    @pytest.mark.parametrize("N", DENSE_N)
    def test_fidelity(self, N):
        for spec in specs([N], DENSE_RBAR):
            sigma = cv.build_resource(spec)
            for gain in ("optimal", 0.0, 0.7, 1.3):
                out = cv.fidelity_network(spec, cv.ProtocolParams(gain=gain))
                vx, vp = teleported_variances(sigma, 0, 1, out.gain_used)
                assert out.var_x_rel == pytest.approx(vx, abs=1e-10)
                assert out.var_p_tot == pytest.approx(vp, abs=1e-10)
                assert out.fidelity == pytest.approx(
                    cv.fidelity_from_variances(vx, vp), abs=1e-10)

    @pytest.mark.parametrize("N", DENSE_N)
    def test_eta_one_vs_rest(self, N):
        for spec in specs([N], DENSE_RBAR):
            want = dense_eta_pt(cv.build_resource(spec))
            assert cv.eta_one_vs_rest(spec) == pytest.approx(want, abs=1e-10), spec
            assert cv.entanglement_report(spec).eta == cv.eta_one_vs_rest(spec)

    @pytest.mark.parametrize("N", DENSE_N)
    def test_localizable_eta(self, N):
        for spec in specs([N], DENSE_RBAR):
            want = dense_eta_localized(cv.build_resource(spec))
            assert cv.localizable_eta(spec) == pytest.approx(want, abs=1e-10), spec

    def test_sender_receiver_checked(self):
        spec = cv.ResourceSpec(3, 1.0, 1.0, 0.5)
        for pair in ((0, 3), (-1, 1)):
            with pytest.raises(ValueError):
                cv.fidelity_network(spec, cv.ProtocolParams(*pair))
        other = cv.fidelity_network(spec, cv.ProtocolParams(2, 0, 0.4))
        assert other == cv.fidelity_network(spec, cv.ProtocolParams(0, 1, 0.4))

    def test_gain_checked(self):
        with pytest.raises(ValueError, match="gain"):
            cv.ProtocolParams(gain=math.nan)


class TestAgainstHighPrecisionOracle:
    """The dense algebra carried out in 60-digit arithmetic, N <= 6, rbar <= 8."""

    @staticmethod
    def oracle(spec, gain):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 60
        N = spec.N
        # x sector of the beam-splitter cascade; p transforms identically
        O = mp.eye(N)
        for k in range(1, N):
            t = mp.acos(1 / mp.sqrt(N - k + 1))
            B = mp.eye(N)
            B[k - 1, k - 1], B[k - 1, k] = mp.cos(t), mp.sin(t)
            B[k, k - 1], B[k, k] = mp.sin(t), -mp.cos(t)
            O = B * O
        r1, r2 = mp.mpf(spec.rbar) + spec.d, mp.mpf(spec.rbar) - spec.d
        vx = [spec.n1 * mp.exp(2 * r1)] + [spec.n2 * mp.exp(-2 * r2)] * (N - 1)
        vp = [spec.n1 * mp.exp(-2 * r1)] + [spec.n2 * mp.exp(2 * r2)] * (N - 1)
        X = O * mp.diag(vx) * O.T
        P = O * mp.diag(vp) * O.T
        u = mp.matrix([1, -1] + [0] * (N - 2))
        w = mp.matrix([1, 1] + [gain] * (N - 2))
        fid = ((u.T * X * u)[0] + 2) * ((w.T * P * w)[0] + 2) / 4
        flip = mp.diag([-1] + [1] * (N - 1))

        def min_nu(Xb, Pb):
            """Smallest symplectic eigenvalue of Xb (+) Pb: nu^2 = eig(Xb Pb),
            taken from the symmetric L^T Pb L with Xb = L L^T."""
            L = mp.cholesky(Xb)
            return mp.sqrt(min(mp.eigsy(L.T * Pb * L, eigvals_only=True)))

        eta_pt = min_nu(X, flip * P * flip)
        # momentum detection of modes 2..N-1: Schur complement of their p block
        K, M = [0, 1], list(range(2, N))
        Xk = mp.matrix([[X[i, j] for j in K] for i in K])
        Pk = mp.matrix([[P[i, j] for j in K] for i in K])
        if M:
            Pkm = mp.matrix([[P[i, j] for j in M] for i in K])
            Pmm = mp.matrix([[P[i, j] for j in M] for i in M])
            Pk = Pk - Pkm * mp.inverse(Pmm) * Pkm.T
        eta_loc = min_nu(Xk, mp.diag([-1, 1]) * Pk * mp.diag([-1, 1]))
        return fid ** -0.5, eta_pt, eta_loc

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_agree_to_1e_12(self, N):
        for rbar, (n1, n2) in itertools.product((0.0, 0.3, 2.0, 5.0, 8.0),
                                                ((1.0, 1.0), (1.7, 1.2))):
            for d in (cv.d_N_opt(N, n1, n2, rbar), 0.4 * rbar):
                spec = cv.ResourceSpec(N, n1, n2, rbar, d, constrain_bias=False)
                gain = 0.8
                fid, eta_pt, eta_loc = self.oracle(spec, gain)
                got = cv.fidelity_network(spec, cv.ProtocolParams(gain=gain)).fidelity
                assert got == pytest.approx(float(fid), rel=1e-12), (spec, "F")
                assert cv.eta_one_vs_rest(spec) == pytest.approx(float(eta_pt), rel=1e-12), \
                    (spec, "eta_pt")
                assert cv.localizable_eta(spec) == pytest.approx(float(eta_loc), rel=1e-12), \
                    (spec, "eta_loc")


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 1000),
    n1=st.floats(1.0, 10.0),
    n2=st.floats(1.0, 10.0),
    rbar=st.floats(0.0, 8.0),
    bias=st.floats(-1.0, 1.0),
)
def test_structured_forms_hold_over_the_domain(N, n1, n2, rbar, bias):
    spec = cv.ResourceSpec(N, n1, n2, rbar, bias * rbar)
    opt = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar), constrain_bias=False)
    eta_n = cv.eta_generalized(spec)
    # optimal fidelity theorem, and localization reaching eta_N at every bias
    assert cv.fidelity_network(opt).fidelity == pytest.approx(1 / (1 + eta_n), rel=1e-12)
    assert cv.localizable_eta(spec) == pytest.approx(eta_n, rel=1e-12)
    # eta of the 1|(N-1) split is the same for the whole iso-entangled class,
    # and homodyne detection (local to the N-1 side) cannot lower it
    eta_pt = cv.eta_one_vs_rest(spec)
    assert eta_pt == pytest.approx(cv.eta_one_vs_rest(opt), rel=1e-12)
    assert 0.0 < eta_pt <= eta_n * (1 + 1e-12)
    assert all(math.isfinite(v) for v in cv.fidelity_network(spec).__dict__.values())
