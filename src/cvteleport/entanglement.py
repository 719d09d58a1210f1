"""Entanglement measures for the symmetric squeezed-thermal resource family.

All measures funnel through the smallest symplectic eigenvalue eta of the
partially transposed covariance matrix (PPT criterion: entangled iff eta < 1)
and its N-mode generalization eta_N.  On the symmetric resource both have
closed forms; on a general two-mode state ``eta_two_mode`` reads eta off
``gaussian.symplectic_eigenvalues``, the package's one spectrum routine.
Entropic quantities default to base-2 logarithms (ebits); pass ``base=np.e``
for nats.  Monotonicity statements are base independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .structured import ResourceSpec, _contangle

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix


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


def eta_two_mode(sigma):
    """Smallest symplectic eigenvalue of the partial transpose of a two-mode CM,
    from ``symplectic_eigenvalues`` of the time-reversed second mode; a float, or
    an array for a (..., 4, 4) stack of entries."""
    from .gaussian import partial_transpose, symplectic_eigenvalues

    n_modes = getattr(sigma, "entries", sigma).shape[-1] // 2
    if n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {n_modes} modes")
    eta = symplectic_eigenvalues(partial_transpose(sigma, (1,)))[..., 0]
    return float(eta) if eta.ndim == 0 else eta


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


def eta_generalized(spec: ResourceSpec) -> float:
    """Generalized PPT eigenvalue eta_N of the optimized N-mode resource, from
    its iso-entangled class (N, n1, n2, rbar) only -- the bias d is ignored.
    Reduces to eta_closed_form(n1, n2, rbar, rbar) at N = 2."""
    return spec.iso.eta_N


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


def contangle_from_ET(E_T: float, base: float = 2.0) -> float:
    """Residual contangle of a pure symmetric three-mode resource from E_T.

    Valid only for pure three-mode symmetric states (N = 3, n1 = n2 = 1; see
    ``IsoEntangledClass.contangle``).  It diverges as E_T -> 1, the GHZ limit.
    """
    if not 0.0 <= E_T < 1.0:
        raise ValueError(f"E_T must lie in [0, 1), got {E_T}")
    return _contangle((1.0 - E_T) / (1.0 + E_T), base)


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
    (``IsoEntangledClass.contangle``), where the contangle formula applies.
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
        E_tau=spec.iso.contangle(base),
    )
