import itertools
import math

import numpy as np
import pytest

import cvteleport as cv
from cvteleport.teleport import teleported_variances
from oracles import phi_two_mode

E_INV = math.exp(-1)


class TestFidelityFromVariances:
    def test_perfect_transfer(self):
        assert cv.fidelity_from_variances(0.0, 0.0) == 1.0

    def test_classical_bound(self):
        assert cv.fidelity_from_variances(2.0, 2.0) == 0.5

    def test_optimal_two_mode(self):
        v = 2 * E_INV
        assert cv.fidelity_from_variances(v, v) == pytest.approx(
            1 / (1 + E_INV), rel=1e-14
        )

    def test_guard(self):
        with pytest.raises(ValueError):
            cv.fidelity_from_variances(-0.1, 1.0)


class TestTeleportedVariances:
    def test_vacuum(self):
        for N in (2, 3, 5):
            vac = cv.vacuum_cm(N)
            vx, vp = teleported_variances(vac, 0, 1, 1.0)
            assert vx == pytest.approx(2.0, abs=1e-14)
            assert vp == pytest.approx(float(N), abs=1e-14)

    def test_two_mode_resource_gain_inert(self):
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        for g in (0.0, 0.5, 1.0, -2.0):
            vx, vp = teleported_variances(cm, 0, 1, g)
            assert vx == pytest.approx(2 * E_INV, abs=1e-12)
            assert vp == pytest.approx(2 * E_INV, abs=1e-12)

    def test_pair_choice_irrelevant(self):
        spec = cv.ResourceSpec(4, 1.3, 1.1, 0.7, 0.2)
        cm = cv.build_resource(spec)
        ref = teleported_variances(cm, 0, 1, 0.8)
        for k, l in [(0, 2), (1, 3), (3, 2), (1, 0)]:
            got = teleported_variances(cm, k, l, 0.8)
            assert got[0] == pytest.approx(ref[0], abs=1e-12)
            assert got[1] == pytest.approx(ref[1], abs=1e-12)

    def test_index_guard(self):
        with pytest.raises(ValueError):
            teleported_variances(cv.vacuum_cm(2), 0, 2, 1.0)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected_as_by_protocol_params(self, gain):
        message = f"^gain must be finite, got {gain}$"
        with pytest.raises(ValueError, match=message):
            cv.ProtocolParams(gain=gain)
        with pytest.raises(ValueError, match=message):
            teleported_variances(cv.build_resource(cv.ResourceSpec(3, 1, 1, 0.5)), 0, 1, gain)


class TestPhiTwoMode:
    def test_vacuum_resource(self):
        assert phi_two_mode(0, 0, 1, 1) == pytest.approx(4.0)
        assert phi_two_mode(0, 0, 1, 1) ** -0.5 == pytest.approx(0.5)

    def test_squeezed_value(self):
        assert phi_two_mode(0.5, 0, 1, 1) == pytest.approx(
            (1 + E_INV) ** 2, rel=1e-14
        )

    def test_matches_pipeline(self):
        for n1, n2, rbar, d in [(1, 1, 0.5, 0.0), (2, 1.5, 0.9, 0.2), (1.2, 1.0, 0.3, -0.1)]:
            spec = cv.ResourceSpec(2, n1, n2, rbar, d)
            out = cv.fidelity_network(spec, cv.ProtocolParams(gain=1.0))
            assert out.fidelity == pytest.approx(
                phi_two_mode(rbar, d, n1, n2) ** -0.5, abs=1e-10
            )

    def test_convex_in_d(self):
        rbar, n1, n2 = 0.8, 1.5, 1.1
        ds = np.linspace(-rbar, rbar, 41)
        phis = [phi_two_mode(rbar, d, n1, n2) for d in ds]
        second = np.diff(phis, 2)
        assert np.all(second >= -1e-12)


class TestClosedFormNetwork:
    def test_two_mode(self):
        spec = cv.ResourceSpec(2, 1, 1, 0.5, 0.0)
        for g in (0.0, 0.7, 1.0):
            vx, vp = cv.network_variances(spec.N, spec.variances, g)
            assert vx == pytest.approx(2 * E_INV, rel=1e-14)
            assert vp == pytest.approx(2 * E_INV, rel=1e-14)

    def test_three_mode_vacuum(self):
        spec = cv.ResourceSpec(3, 1, 1, 0.0)
        vx, vp = cv.network_variances(spec.N, spec.variances, 1.0)
        assert vx == pytest.approx(2.0)
        assert vp == pytest.approx(3.0)

    def test_var_x_gain_independent(self):
        spec = cv.ResourceSpec(5, 1.4, 1.2, 0.6, 0.1)
        vxs = {cv.network_variances(spec.N, spec.variances, g)[0] for g in (0.0, 0.5, 2.0)}
        assert len(vxs) == 1

    def test_grid_equivalence_with_pipeline(self):
        # the central dual-route check: closed form vs CM quadratic forms
        worst = 0.0
        for N, rbar, n1, n2 in itertools.product(
            (2, 3, 4, 8, 20, 50), (0.0, 0.5, 1.0, 2.0), (1.0, 1.5, 2.0), (1.0, 2.0)
        ):
            for dfrac in (-0.5, 0.0, 0.5):
                spec = cv.ResourceSpec(N, n1, n2, rbar, dfrac * rbar)
                sigma = cv.build_resource(spec)
                for g in (0.0, 0.5, 1.0):
                    vx, vp = teleported_variances(sigma, 0, 1, g)
                    cx, cp = cv.network_variances(spec.N, spec.variances, g)
                    worst = max(worst, abs(vx - cx), abs(vp - cp))
        assert worst < 1e-10


class TestFidelityNetwork:
    def test_two_mode_optimal(self):
        out = cv.fidelity_network(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        assert out.fidelity == pytest.approx(1 / (1 + E_INV), abs=1e-12)
        assert out.gain_used == 1.0  # inert by convention for N=2

    def test_three_mode_optimal(self):
        d3 = cv.d_N_opt(3, 1, 1, 0.5)
        out = cv.fidelity_network(cv.ResourceSpec(3, 1, 1, 0.5, d3))
        eta3 = math.sqrt(3 / (2 * math.e ** 2 + 1))
        assert out.fidelity == pytest.approx(1 / (1 + eta3), abs=1e-12)

    def test_separable_never_beats_classical(self):
        for N in (2, 3, 8):
            out = cv.fidelity_network(cv.ResourceSpec(N, 1.5, 1.2, 0.0, 0.0))
            assert out.fidelity <= 0.5 + 1e-12

    def test_optimal_gain_is_argmin(self):
        spec = cv.ResourceSpec(4, 1.2, 1.0, 0.6, 0.1)
        opt = cv.fidelity_network(spec)
        for g in (opt.gain_used - 0.1, opt.gain_used + 0.1):
            assert cv.fidelity_network(spec, cv.ProtocolParams(gain=g)).fidelity <= opt.fidelity

    def test_outcome_invariant(self):
        out = cv.fidelity_network(cv.ResourceSpec(3, 1.1, 1.0, 0.4, 0.0))
        recon = ((out.var_x_rel + 2) * (out.var_p_tot + 2) / 4) ** -0.5
        assert out.fidelity == pytest.approx(recon, rel=1e-14)


class TestProtocolParams:
    def test_sender_receiver_distinct(self):
        with pytest.raises(ValueError):
            cv.ProtocolParams(sender=1, receiver=1)

    def test_bad_gain_string(self):
        with pytest.raises(ValueError):
            cv.ProtocolParams(gain="best")
