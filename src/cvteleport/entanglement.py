"""Entanglement measures for the symmetric squeezed-thermal resource family.

All measures funnel through the smallest symplectic eigenvalue eta of the
partially transposed covariance matrix (PPT criterion: entangled iff eta < 1)
and its N-mode generalization eta_N.  Entropic quantities default to base-2
logarithms (ebits); pass ``base=np.e`` for nats.  Monotonicity statements are
base independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix, ResourceSpec

DISCRIMINANT_TOL = 1e-9


def _blocks(sigma: CovarianceMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, beta (single-mode blocks) and gamma (correlations) of a two-mode CM."""
    if sigma.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {sigma.n_modes} modes")
    return sigma.mode_block(0, 0), sigma.mode_block(1, 1), sigma.mode_block(0, 1)


@dataclass(frozen=True)
class EntanglementReport:
    """All measures of a resource in one record.

    eta is the smallest symplectic eigenvalue of the partial transpose for
    the 1|(N-1) mode bipartition and is filled for every N.  E_F is filled
    only for N = 2, where the state is symmetric and the formation
    entanglement has a closed form.  E_tau is filled only for pure three-mode
    resources.
    """

    eta: float
    eta_N: float
    E_F: float | None
    E_T: float
    E_F_loc: float
    E_tau: float | None


def eta_two_mode(sigma: CovarianceMatrix) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a two-mode CM.

    Uses the determinant formula 2 eta^2 = S - sqrt(S^2 - 4 det sigma) with
    S = det alpha + det beta - 2 det gamma.
    """
    alpha, beta, gamma = _blocks(sigma)
    S = float(np.linalg.det(alpha) + np.linalg.det(beta) - 2.0 * np.linalg.det(gamma))
    det = float(np.linalg.det(sigma.entries))
    disc = S * S - 4.0 * det
    if disc < -DISCRIMINANT_TOL:
        raise ArithmeticError(f"negative discriminant {disc} in symplectic eigenvalue formula")
    disc = max(disc, 0.0)
    eta2 = 0.5 * (S - math.sqrt(disc))
    if eta2 < -DISCRIMINANT_TOL:
        raise ArithmeticError(f"negative squared eigenvalue {eta2}")
    return math.sqrt(max(eta2, 0.0))


def eta_closed_form(n1: float, n2: float, r1: float, r2: float) -> float:
    """PPT symplectic eigenvalue of the two-mode resource: sqrt(n1 n2) e^{-(r1+r2)}."""
    if not (n1 >= 1.0 and n2 >= 1.0):
        raise ValueError("thermal noise factors must be >= 1")
    return math.sqrt(n1 * n2) * math.exp(-(r1 + r2))


def is_entangled(eta: float) -> bool:
    """PPT criterion: a two-mode Gaussian state is entangled iff eta < 1."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return eta < 1.0


def _f(x: float, base: float) -> float:
    """Entropic function f(x) of the symmetric-state formation entanglement.

    f = a ln a - b ln b with a = (1+x)^2/(4x) = 1 + b, b = (1-x)^2/(4x),
    written as ln(1+b) + 4b atanh(x): both terms are >= 0 on (0, 1], so
    nothing cancels as x -> 0.  f(1) = 0.
    """
    b = (1.0 - x) ** 2 / (4.0 * x)
    if b == 0.0:
        return 0.0  # x == 1, where atanh diverges but b atanh(x) -> 0
    return (math.log1p(b) + 4.0 * b * math.atanh(x)) / math.log(base)


def eof_symmetric(eta: float, base: float = 2.0) -> float:
    """Entanglement of formation of a symmetric two-mode Gaussian state.

    E_F = max{0, f(eta)}; zero at and above the separability threshold eta = 1,
    divergent as eta -> 0.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if eta >= 1.0:
        return 0.0
    return _f(eta, base)


def _eta_N(N: int, n1: float, n2: float, rbar: float) -> float:
    """eta_generalized on raw, already validated inputs."""
    return math.exp(-2.0 * rbar) * math.sqrt(
        N * n1 * n2 / (2.0 + (N - 2) * n1 / n2 * math.exp(-4.0 * rbar)))


def eta_generalized(spec: ResourceSpec) -> float:
    """Generalized PPT eigenvalue eta_N of the optimized N-mode resource.

    eta_N = sqrt(N n1 n2 / (2 e^{4 rbar} + (N-2) n1/n2)), evaluated as
    e^{-2 rbar} sqrt(N n1 n2 / (2 + (N-2) (n1/n2) e^{-4 rbar})) so that it
    neither overflows nor underflows for rbar below about 354; depends on the
    iso-entangled class (N, n1, n2, rbar) only -- the bias d is ignored.
    Reduces to eta_closed_form(n1, n2, rbar, rbar) at N = 2.
    """
    return _eta_N(spec.N, spec.n1, spec.n2, spec.rbar)


def entanglement_of_teleportation(eta_N: float) -> float:
    """E_T = max{0, (1 - eta_N)/(1 + eta_N)}, in [0, 1)."""
    if not eta_N > 0.0:
        raise ValueError(f"eta_N must be positive, got {eta_N}")
    return max(0.0, (1.0 - eta_N) / (1.0 + eta_N))


def eof_localizable(E_T: float, base: float = 2.0) -> float:
    """Localizable entanglement of formation: f applied to (1-E_T)/(1+E_T)."""
    if not 0.0 <= E_T < 1.0:
        raise ValueError(f"E_T must lie in [0, 1), got {E_T}")
    if E_T == 0.0:
        return 0.0
    return _f((1.0 - E_T) / (1.0 + E_T), base)


def _log1p_minus_u(u: float) -> float:
    """log1p(u) - u for u in [-1/2, 3], free of the cancellation at small u:
    with s = u/(2 + u), log1p(u) = 2 (s + s^3/3 + s^5/5 + ...) and u - 2s = u s."""
    s = u / (2.0 + u)
    total, term, k = s ** 3 / 3.0, s ** 5, 5
    while abs(term) > 1e-17 * k * abs(total):  # False for NaN too
        total, term, k = total + term / k, term * s * s, k + 2
    return 2.0 * total - u * s


def _contangle(eta_N: float, base: float = 2.0) -> float:
    """Residual contangle of the pure symmetric three-mode resource from eta_N.

    With E = E_T, it is l1^2 - l2^2 / 2 for l2 = ln[(E^2 + 1)/(E^2 + 4E + 1)]
    and l1 = ln[(2 sqrt2 E - (E+1) sqrt(E^2+1)) / ((E-1) sqrt(E^2+4E+1))].
    Both terms of that ratio vanish as E -> 1 with the common factor
    (E-1)^2 (E^2+4E+1), so l1 is taken as
    ln[(1 - E) sqrt(E^2+4E+1) / (2 sqrt2 E + (E+1) sqrt(E^2+1))], with
    ln(1 - E) = ln eta_N + ln(1 + E) from eta_N itself and log1p for the
    small-E terms: it stays finite wherever eta_N > 0.  It is evaluated as
    (l1 - l2/sqrt2)(l1 + l2/sqrt2); for E < 1/2 the first factor, ~ -2 sqrt2 E^2,
    is summed from the logs less their linear terms, which cancel.
    """
    if eta_N >= 1.0:
        return 0.0
    E = (1.0 - eta_N) / (1.0 + eta_N)
    r = math.sqrt(E * E + 1.0)
    # the last denominator is 1 + E (2 sqrt2 + r) + (r - 1), with r - 1 = E^2/(r + 1)
    u2, u3 = E * (E + 4.0), E * (2.0 * math.sqrt(2.0) + r + E / (r + 1.0))
    l1 = math.log(eta_N) + math.log1p(E) + 0.5 * math.log1p(u2) - math.log1p(u3)
    l2 = (math.log1p(E * E) - math.log1p(u2)) / math.sqrt(2.0)
    if E < 0.5:  # the linear terms -E + (1+sqrt2)/2 u2 - u3 - E^2/sqrt2 sum to the first term
        diff = (E ** 3 * (E / (r + 1.0) - 2.0) / (2.0 * (r + 1.0)) + _log1p_minus_u(-E)
                + 0.5 * (1.0 + math.sqrt(2.0)) * _log1p_minus_u(u2) - _log1p_minus_u(u3)
                - (math.log1p(E * E) - E * E) / math.sqrt(2.0))
    else:
        diff = l1 - l2
    return diff * (l1 + l2) / math.log(base) ** 2


def _is_pure_three_mode(N: int, n1: float, n2: float) -> bool:
    """Pure three-mode resource (purity 1/(n1 n2^2) = 1), where the contangle holds."""
    return N == 3 and n1 == 1.0 and n2 == 1.0


def contangle_from_ET(E_T: float, base: float = 2.0) -> float:
    """Residual contangle of a pure symmetric three-mode resource from E_T.

    Valid only for pure three-mode symmetric states (see ``_is_pure_three_mode``).
    It diverges as E_T -> 1, the GHZ limit.
    """
    if not 0.0 <= E_T < 1.0:
        raise ValueError(f"E_T must lie in [0, 1), got {E_T}")
    return _contangle((1.0 - E_T) / (1.0 + E_T), base)


def epr_eta_symmetric(sigma: CovarianceMatrix) -> float:
    """eta of a symmetric two-mode state from its EPR correlations.

    4 eta = <(x1 - x2)^2> + <(p1 + p2)^2>; holds only when det alpha equals
    det beta, so asymmetric inputs are rejected.
    """
    alpha, beta, _ = _blocks(sigma)
    da, db = np.linalg.det(alpha), np.linalg.det(beta)
    if abs(da - db) > 1e-8 * max(1.0, abs(da), abs(db)):
        raise ValueError("EPR identity requires a symmetric state (det alpha = det beta)")
    m = sigma.entries
    var_x_rel = m[0, 0] - 2.0 * m[0, 2] + m[2, 2]
    var_p_tot = m[1, 1] + 2.0 * m[1, 3] + m[3, 3]
    return 0.25 * (var_x_rel + var_p_tot)


def eta_one_vs_rest(spec: ResourceSpec) -> float:
    """PPT eigenvalue of the 1|(N-1) split of the symmetric resource.

    Mode 1 pairs with the symmetric mode of the rest; in that pair each
    quadrature block is v2 I + (v1 - v2) w w^T, w = (1, sqrt(N-1))/sqrt(N),
    and time reversal flips w_1 in the p block.  eta^2 is the small root of
    lam^2 - T lam + D, D = (v1x v1p)(v2x v2p), written as 2D/(T + sqrt(T^2 - 4D))
    with T and T^2 - 4D as sums of positive terms (k = ((N-2)/N)^2).  The
    other N - 2 modes decouple from mode 1 with eigenvalue n2.
    """
    N = spec.N
    v1x, v2x, v1p, v2p = spec.variances
    k, k1 = ((N - 2) / N) ** 2, 4.0 * (N - 1) / N ** 2  # k1 = 1 - k
    a, b, c, e = v1x * v2p, v2x * v1p, v1x * v1p, v2x * v2p
    trace = k1 * (a + b) + k * (c + e)
    if math.isinf(trace):  # a = n1 n2 e^{4 rbar}; 2ce/inf would print eta = 0
        raise OverflowError(f"eta of the 1|(N-1) split overflows e^(4 rbar) at rbar = {spec.rbar}")
    gap = math.hypot(
        k1 * (a - b), k * (c - e),
        math.sqrt(2.0 * k * k1 * v1x * v2x) * (v1p - v2p),
        math.sqrt(2.0 * k * k1 * v1p * v2p) * (v1x - v2x),
    )
    eta = math.sqrt(2.0 * c * e / (trace + gap))
    return eta if N == 2 else min(eta, spec.n2)


def entanglement_report(spec: ResourceSpec, base: float = 2.0) -> EntanglementReport:
    """Assemble every applicable measure for one resource.

    eta is the structured 1|(N-1) eigenvalue (``eta_one_vs_rest``); eta_N,
    E_T and E_F_loc come from the closed forms.  E_F_loc is f(eta_N), taken
    from eta_N itself rather than from E_T, which rounds to 1 from rbar of
    about 18.  E_tau is evaluated only for pure three-mode resources
    (``_is_pure_three_mode``), where the contangle formula applies.
    """
    eta = eta_one_vs_rest(spec)
    eta_n = eta_generalized(spec)
    E_T = entanglement_of_teleportation(eta_n)
    return EntanglementReport(
        eta=eta,
        eta_N=eta_n,
        E_F=eof_symmetric(eta, base) if spec.N == 2 else None,
        E_T=E_T,
        E_F_loc=eof_symmetric(eta_n, base),
        E_tau=_contangle(eta_n, base) if _is_pure_three_mode(spec.N, spec.n1, spec.n2) else None,
    )
