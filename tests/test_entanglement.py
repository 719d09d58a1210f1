import math

import numpy as np
import pytest

import cvteleport as cv
from oracles import epr_eta_symmetric, symplectic_min_mp

E_INV = math.exp(-1)
# frozen from term-by-term evaluation of f(e^{-1}) with base-2 logs
F_AT_E_INV = 0.9513895138912786
ETA_3 = math.sqrt(3 / (2 * math.e ** 2 + 1))  # 0.43604680...


def test_nan_rejected_by_public_guards():
    nan = math.nan
    for call in (lambda: cv.entanglement_of_teleportation(nan), lambda: cv.is_entangled(nan),
                 lambda: cv.eof_symmetric(nan), lambda: cv.fidelity_from_variances(nan, 1.0),
                 lambda: cv.eta_closed_form(nan, 1.0, 0.1, 0.1)):
        with pytest.raises(ValueError):
            call()


class TestEtaTwoMode:
    def test_vacuum(self):
        assert cv.eta_two_mode(cv.vacuum_cm(2)) == pytest.approx(1.0, abs=1e-12)

    def test_built_resource(self):
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        assert cv.eta_two_mode(cm) == pytest.approx(E_INV, abs=1e-12)

    def test_separable_thermal_product(self):
        # gamma = 0: both modes thermal with n = 2, so eta = n
        prod = cv.block_diag_cm(
            cv.squeezed_thermal_cm(2.0, 0.0), cv.squeezed_thermal_cm(2.0, 0.0)
        )
        assert cv.eta_two_mode(prod) == pytest.approx(2.0, rel=1e-14)

    def test_separable_resource_against_80_digits(self):
        # separable at d_N_opt, eta = sqrt(1.8): a double root of det-based
        # formulas, which keep only sqrt(eps) here (6e-9)
        d = cv.d_N_opt(2, 1.5, 1.2, 0.0)
        cm = cv.build_resource(cv.ResourceSpec(2, 1.5, 1.2, 0.0, d, constrain_bias=False))
        want = symplectic_min_mp(cv.partial_transpose(cm, {1}))
        assert cv.eta_two_mode(cm) == pytest.approx(want, rel=1e-14)

    def test_agrees_with_pt_pipeline(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            spec = cv.ResourceSpec(
                2,
                rng.uniform(1.0, 2.5),
                rng.uniform(1.0, 2.5),
                rng.uniform(0.0, 1.5),
                0.0,
            )
            spec = cv.ResourceSpec(spec.N, spec.n1, spec.n2, spec.rbar,
                                   rng.uniform(-spec.rbar, spec.rbar))
            cm = cv.build_resource(spec)
            want = cv.eta_closed_form(spec.n1, spec.n2, spec.r1, spec.r2)
            assert cv.eta_two_mode(cm) == pytest.approx(want, abs=1e-10)


class TestEtaClosedForm:
    def test_values(self):
        assert cv.eta_closed_form(1, 1, 0, 0) == 1.0
        assert cv.eta_closed_form(1, 1, 0.5, 0.5) == pytest.approx(E_INV, rel=1e-15)
        assert cv.eta_closed_form(2, 2, 0, 0) == pytest.approx(2.0, rel=1e-15)

    def test_cross_check_pipeline(self):
        spec = cv.ResourceSpec(2, 1.5, 1.2, 0.7, 0.2)
        cm = cv.build_resource(spec)
        assert cv.eta_two_mode(cm) == pytest.approx(
            cv.eta_closed_form(1.5, 1.2, spec.r1, spec.r2), abs=1e-12
        )


class TestIsEntangled:
    def test_threshold(self):
        assert not cv.is_entangled(1.0)
        assert cv.is_entangled(E_INV)
        assert not cv.is_entangled(2.0)

    def test_guard(self):
        with pytest.raises(ValueError):
            cv.is_entangled(0.0)


class TestEofSymmetric:
    def test_separable(self):
        assert cv.eof_symmetric(1.0) == 0.0
        assert cv.eof_symmetric(1.7) == 0.0

    def test_frozen_value(self):
        assert cv.eof_symmetric(E_INV) == pytest.approx(F_AT_E_INV, abs=1e-12)

    def test_coefficient_identity(self):
        # (1+x)^2/4x - (1-x)^2/4x = 1 identically
        for x in np.linspace(1e-3, 1.0, 1000):
            a = (1 + x) ** 2 / (4 * x)
            b = (1 - x) ** 2 / (4 * x)
            assert abs(a - b - 1.0) < 1e-12

    def test_strictly_decreasing(self):
        xs = np.linspace(1e-3, 1.0 - 1e-9, 1000)
        vals = [cv.eof_symmetric(x) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_divergence(self):
        assert cv.eof_symmetric(1e-8) > cv.eof_symmetric(1e-4) > 10

    def test_base_switch(self):
        assert cv.eof_symmetric(E_INV, base=math.e) == pytest.approx(
            F_AT_E_INV * math.log(2), rel=1e-12
        )

    def test_guard(self):
        with pytest.raises(ValueError):
            cv.eof_symmetric(-0.1)

    @pytest.mark.parametrize("rbar", [0.1, 0.5, 1.0, 1.5])
    def test_claim_4_from_the_state(self, rbar):
        """The paper's claim 4 on the dense pure three-mode state: the residual
        contangle ln^2 eta~(1|23) - 2 ln^2 eta~(1|2), from the smallest symplectic
        eigenvalue of the partial transpose of the state and of its modes-(0, 1)
        reduction, is the class's contangle in nats^2 at d = 0 and at d_N_opt
        (Adesso & Illuminati, New J. Phys. 8, 15 (2006))."""
        iso = cv.IsoEntangledClass(3, 1.0, 1.0, rbar)
        for d in (0.0, iso.d_opt):
            sigma = cv.build_resource(cv.ResourceSpec(3, 1.0, 1.0, rbar, d, constrain_bias=False))
            pair = cv.CovarianceMatrix(sigma.entries[:4, :4])
            eta_1_23 = cv.symplectic_eigenvalues(cv.partial_transpose(sigma, [0]))[0]
            eta_1_2 = cv.symplectic_eigenvalues(cv.partial_transpose(pair, [0]))[0]
            tau = math.log(eta_1_23) ** 2 - 2 * math.log(eta_1_2) ** 2
            assert tau == pytest.approx(iso.contangle(math.e), rel=1e-10), d

    def test_against_700_digits(self):
        """a ln a - b ln b cancels as eta -> 0 (0.21 relative error at the
        eta_N of rbar = 18); ln(1 + b) + 4b atanh(eta) keeps every digit."""
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 700
        xs = [10.0 ** -e for e in range(0, 301, 7)] + list(np.linspace(1e-3, 1 - 1e-3, 50))
        xs += [1 - 2.0 ** -k for k in (10, 30, 52)]
        for x in xs:
            if x >= 1.0:
                continue
            m = mp.mpf(x)
            a, b = (1 + m) ** 2 / (4 * m), (1 - m) ** 2 / (4 * m)
            for base in (2.0, math.e):
                want = (a * mp.log(a) - b * mp.log(b)) / mp.log(base)
                assert abs(cv.eof_symmetric(x, base) - want) <= 1e-15 * want, x


class TestEtaGeneralized:
    def test_reduces_to_two_mode(self):
        for n1, n2, rbar in [(1, 1, 0.5), (1.5, 2.0, 0.9), (2, 1, 0.0)]:
            spec = cv.ResourceSpec(2, n1, n2, rbar)
            assert cv.eta_generalized(spec) == pytest.approx(
                cv.eta_closed_form(n1, n2, rbar, rbar), rel=1e-15
            )

    def test_three_mode_value(self):
        assert cv.eta_generalized(cv.ResourceSpec(3, 1, 1, 0.5)) == pytest.approx(
            ETA_3, rel=1e-15
        )

    def test_separable_boundary(self):
        for N in (2, 5, 20):
            assert cv.eta_generalized(cv.ResourceSpec(N, 1, 1, 0.0)) == pytest.approx(1.0)

    def test_ignores_bias(self):
        a = cv.eta_generalized(cv.ResourceSpec(4, 1.3, 1.1, 0.8, 0.0))
        b = cv.eta_generalized(cv.ResourceSpec(4, 1.3, 1.1, 0.8, 0.5))
        assert a == b


class TestEntanglementOfTeleportation:
    def test_values(self):
        assert cv.entanglement_of_teleportation(1.0) == 0.0
        assert cv.entanglement_of_teleportation(ETA_3) == pytest.approx(
            (1 - ETA_3) / (1 + ETA_3), rel=1e-15
        )
        assert cv.entanglement_of_teleportation(2.0) == 0.0  # clamped

    def test_ghz_limit(self):
        assert cv.entanglement_of_teleportation(1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_mobius_roundtrip(self):
        for eta in np.linspace(0.05, 0.999, 50):
            E = cv.entanglement_of_teleportation(eta)
            assert (1 - E) / (1 + E) == pytest.approx(eta, abs=1e-12)

    def test_strictly_decreasing(self):
        etas = np.linspace(0.01, 0.99, 200)
        vals = [cv.entanglement_of_teleportation(e) for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEofLocalizable:
    def test_zero(self):
        assert cv.eof_localizable(0.0) == 0.0

    def test_two_mode_composition(self):
        # for N=2 the localized EF equals the plain EF
        E_T = cv.entanglement_of_teleportation(E_INV)
        assert cv.eof_localizable(E_T) == pytest.approx(F_AT_E_INV, abs=1e-12)

    def test_diverges_near_one(self):
        assert cv.eof_localizable(1 - 1e-9) > cv.eof_localizable(0.99) > 1

    def test_guard(self):
        with pytest.raises(ValueError):
            cv.eof_localizable(1.0)
        with pytest.raises(ValueError):
            cv.eof_localizable(-0.01)


class TestContangle:
    def test_zero(self):
        assert cv.contangle_from_ET(0.0) == 0.0

    def test_golden_value(self):
        # frozen after first verified evaluation of the displayed formula
        E_T = cv.entanglement_of_teleportation(ETA_3)
        assert cv.contangle_from_ET(E_T) == pytest.approx(1.1330665667014066, abs=1e-12)
        assert cv.contangle_from_ET(E_T, base=math.e) == pytest.approx(
            1.1330665667014066 * math.log(2) ** 2, rel=1e-12
        )

    def test_monotone(self):
        grid = np.linspace(0.0, 0.999, 500)
        vals = [cv.contangle_from_ET(E) for E in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ghz_sentinel(self):
        near_ghz = [cv.contangle_from_ET(1 - 10.0 ** -k) for k in (6, 9, 13, 15)]
        assert all(math.isfinite(v) for v in near_ghz)
        assert all(b > a for a, b in zip(near_ghz, near_ghz[1:]))

    @pytest.mark.parametrize("rbar", [0.1, 0.5, 1.0, 1.5])
    def test_claim_4_from_the_state(self, rbar):
        """The paper's claim 4 on the dense pure three-mode state: the residual
        contangle ln^2 eta~(1|23) - 2 ln^2 eta~(1|2), from the smallest symplectic
        eigenvalue of the partial transpose of the state and of its modes-(0, 1)
        reduction, is the class's contangle in nats^2 at d = 0 and at d_N_opt
        (Adesso & Illuminati, New J. Phys. 8, 15 (2006))."""
        iso = cv.IsoEntangledClass(3, 1.0, 1.0, rbar)
        for d in (0.0, iso.d_opt):
            sigma = cv.build_resource(cv.ResourceSpec(3, 1.0, 1.0, rbar, d, constrain_bias=False))
            pair = cv.CovarianceMatrix(sigma.entries[:4, :4])
            eta_1_23 = cv.symplectic_eigenvalues(cv.partial_transpose(sigma, [0]))[0]
            eta_1_2 = cv.symplectic_eigenvalues(cv.partial_transpose(pair, [0]))[0]
            tau = math.log(eta_1_23) ** 2 - 2 * math.log(eta_1_2) ** 2
            assert tau == pytest.approx(iso.contangle(math.e), rel=1e-10), d

    def test_against_700_digits(self):
        """At the eta_N of the pure three-mode resource for rbar in [0.05, 300],
        against the paper's formula at 700 digits.  Its numerator and
        denominator both vanish as E_T -> 1, so in double precision it loses
        every digit from rbar of about 9."""
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 700
        rbars = list(np.geomspace(0.05, 300, 80)) + list(np.linspace(0.05, 0.6, 40))
        for rbar in rbars:
            iso = cv.IsoEntangledClass(3, 1.0, 1.0, float(rbar))
            E = (1 - mp.mpf(iso.eta_N)) / (1 + mp.mpf(iso.eta_N))
            num = 2 * mp.sqrt(2) * E - (E + 1) * mp.sqrt(E ** 2 + 1)
            den = (E - 1) * mp.sqrt(E ** 2 + 4 * E + 1)
            for base in (2.0, math.e):
                first = mp.log(num / den) / mp.log(base)
                second = mp.log((E ** 2 + 1) / (E ** 2 + 4 * E + 1)) / mp.log(base)
                want = first ** 2 - second ** 2 / 2
                assert abs(iso.contangle(base) - want) <= 3e-14 * want, rbar

    def test_small_E_T_against_mpmath(self):
        """rbar in [1e-4, 300], down to E_T ~ 7e-5 where E_tau ~ 16 E_T^3: the
        paper's formula at 700 digits at the same double eta_N, to 1e-14."""
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 700
        rbars = list(np.geomspace(1e-4, 300, 100)) + list(np.geomspace(1e-4, 0.05, 60))
        for rbar in rbars:
            iso = cv.IsoEntangledClass(3, 1.0, 1.0, float(rbar))
            E = (1 - mp.mpf(iso.eta_N)) / (1 + mp.mpf(iso.eta_N))
            ratio = ((2 * mp.sqrt(2) * E - (E + 1) * mp.sqrt(E ** 2 + 1))
                     / ((E - 1) * mp.sqrt(E ** 2 + 4 * E + 1)))
            for base in (2.0, math.e):
                want = (mp.log(ratio) ** 2
                        - mp.log((E ** 2 + 1) / (E ** 2 + 4 * E + 1)) ** 2 / 2) / mp.log(base) ** 2
                assert abs(iso.contangle(base) - want) <= 1e-14 * want, (rbar, base)


class TestEprEtaSymmetric:
    def test_vacuum(self):
        assert epr_eta_symmetric(cv.vacuum_cm(2)) == pytest.approx(1.0, abs=1e-14)

    def test_two_mode_squeezed(self):
        cm = cv.build_resource(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        assert epr_eta_symmetric(cm) == pytest.approx(E_INV, abs=1e-12)

    def test_agrees_with_sigma_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = rng.uniform(1.0, 2.5)
            rbar = rng.uniform(0.0, 1.2)
            cm = cv.build_resource(cv.ResourceSpec(2, n, n, rbar, 0.0))
            assert epr_eta_symmetric(cm) == pytest.approx(
                cv.eta_two_mode(cm), abs=1e-10
            )

    def test_asymmetric_rejected(self):
        cm = cv.block_diag_cm(
            cv.squeezed_thermal_cm(1.0, 0.0), cv.squeezed_thermal_cm(2.0, 0.0)
        )
        with pytest.raises(ValueError):
            epr_eta_symmetric(cm)


class TestReport:
    def test_pure_three_mode(self):
        spec = cv.ResourceSpec(3, 1, 1, 0.5, 0.0)
        rep = cv.entanglement_report(spec)
        assert rep.E_tau is not None and rep.E_tau > 0
        assert rep.E_F is None
        assert rep.E_T == pytest.approx(cv.entanglement_of_teleportation(ETA_3))

    def test_mixed_three_mode_skips_contangle(self):
        rep = cv.entanglement_report(cv.ResourceSpec(3, 1.5, 1.0, 0.5, 0.0))
        assert rep.E_tau is None

    def test_localized_eof_from_eta_N(self):
        # E_T rounds to 1 at rbar = 100; E_F_loc comes from eta_N itself
        for rbar in (0.5, 18.0, 100.0):
            rep = cv.entanglement_report(cv.ResourceSpec(4, 1, 1, rbar, 0.0))
            assert rep.E_F_loc == cv.eof_symmetric(rep.eta_N)
            assert rep.E_F_loc > 0

    def test_two_mode_fields(self):
        rep = cv.entanglement_report(cv.ResourceSpec(2, 1, 1, 0.5, 0.0))
        assert rep.E_F == pytest.approx(F_AT_E_INV, abs=1e-10)
        assert rep.eta == pytest.approx(E_INV, abs=1e-10)
