"""Optimal protocol parameters: closed forms plus an independent numerical oracle.

Closed forms (natural logs throughout -- they come from calculus, not from the
entropy-base choice), written with q = e^{-4 rbar} so that nothing overflows at
large squeezing:

* two-mode optimal bias    d_opt = (1/4) ln(n1/n2)
* optimal gain             g_N_opt = 1 - N q / [(N-2) q + 2 n2/n1]
* optimal bias             d_N_opt = (1/4) ln{N / [(N-2) q + 2 n2/n1]}
* optimal fidelity         F = 1 / (1 + eta_N)
* unbiased bias            d = (1/4) ln[(k + n1 q) / (n1 + k q)], k = (N-1) n2

The numerical oracle minimizes phi - 1 by golden section in d, takes g from
phi's exact parabola in g, and never consults the closed forms.
The public functions validate their inputs through ``ResourceSpec``; the
underscored kernels they delegate to take raw, already validated floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .gaussian import ResourceSpec, input_variances
from .entanglement import _eta_N, eta_generalized
from .teleport import network_variances

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    d_opt: float
    g_opt: float
    fidelity_opt: float
    eta_N: float
    method: str
    bias_clamped: bool = False


class WorstCase(NamedTuple):
    d_worst: float
    fidelity_worst: float
    zeroed_squeezer: str  # "r1" or "r2"


def d_opt_two_mode(n1: float, n2: float) -> float:
    """Bias minimizing the two-mode fidelity kernel: (1/4) ln(n1/n2)."""
    return 0.25 * math.log(n1 / n2)


def g_N_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal feed-forward gain; independent of the bias d."""
    q = math.exp(-4.0 * rbar)
    return 1.0 - N * q / ((N - 2) * q + 2.0 * n2 / n1)


def d_N_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal squeezing bias for the N-user network.

    The formula can leave [-rbar, rbar] (driving one input squeezing
    negative); ``optimal_fidelity(..., constrain_bias=True)`` clamps it.
    """
    return 0.25 * math.log(N / ((N - 2) * math.exp(-4.0 * rbar) + 2.0 * n2 / n1))


def _phi_at(N: int, variances: tuple, g: float) -> float:
    """Fidelity kernel (fidelity = phi^{-1/2}) of a resource's input variances."""
    vx, vp = network_variances(N, variances, g)
    return (vx + 2.0) * (vp + 2.0) / 4.0


def _phi(spec_nd: tuple[int, float, float, float], d: float, g: float) -> float:
    """Fidelity kernel (fidelity = phi^{-1/2}) on raw, already validated inputs."""
    N, n1, n2, rbar = spec_nd
    return _phi_at(N, input_variances(n1, n2, rbar + d, rbar - d), g)


def _fidelity(spec_nd: tuple[int, float, float, float], d: float, g: float) -> float:
    """Fidelity at bias d and gain g on raw, already validated inputs."""
    return _phi(spec_nd, d, g) ** -0.5


def _optimum(N: int, n1: float, n2: float, rbar: float) -> tuple[float, float, float]:
    """(g_opt, F_opt, eta_N) of the closed-form optimum on raw, already
    validated inputs; the gain is inert at N = 2 and reported as 1."""
    eta = _eta_N(N, n1, n2, rbar)
    g = 1.0 if N == 2 else g_N_opt(N, n1, n2, rbar)
    return g, 1.0 / (1.0 + eta), eta


def optimal_fidelity(
    N: int, n1: float, n2: float, rbar: float, constrain_bias: bool = False
) -> OptimizationResult:
    """Closed-form optimum: F = 1/(1 + eta_N) at (d_N_opt, g_N_opt).

    With ``constrain_bias=True`` the bias is clamped to [-rbar, rbar], which is
    safe because phi is convex in d; when the clamp bites, the fidelity is
    re-evaluated at the boundary bias (still with optimal gain) and
    ``bias_clamped`` is set.
    """
    ResourceSpec(N, n1, n2, rbar)  # validates the inputs the kernels take raw
    g, fid, eta = _optimum(N, n1, n2, rbar)
    d_raw = d_N_opt(N, n1, n2, rbar)
    if constrain_bias and abs(d_raw) > rbar:
        d = min(max(d_raw, -rbar), rbar)
        fid = _fidelity((N, n1, n2, rbar), d, g)
        return OptimizationResult(d, g, fid, eta, "closed-form", bias_clamped=True)
    return OptimizationResult(d_raw, g, fid, eta, "closed-form")


def golden_section(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimize a unimodal scalar function by golden-section search.

    Finishes with one parabolic refinement step so analytic minima are located
    well below the flatness floor of pure bracketing.
    """
    if not (math.isfinite(fn(lo)) and math.isfinite(fn(hi))):
        raise ArithmeticError("non-finite objective at the bracket endpoints")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > max(1e-11, 1e-10 * (abs(a) + abs(b))):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    m = 0.5 * (a + b)
    # parabolic vertex through (m-h, m, m+h); curvature dominates rounding noise
    h = max(1e-5, 1e-5 * abs(m))
    f0, fm, f1 = fn(m - h), fn(m), fn(m + h)
    denom = f0 - 2.0 * fm + f1
    if denom > 0.0:
        step = 0.5 * h * (f0 - f1) / denom
        if abs(step) < h:
            m += step
    return min(max(m, lo), hi)


def numerical_optimum(N: int, n1: float, n2: float, rbar: float) -> OptimizationResult:
    """Minimize phi over (d, g) by one golden-section search over |d| < rbar + 2.

    Independent oracle for the closed forms.  p_tot is linear in the gain, so at
    each d phi is an exact parabola in g; its vertex follows from g = -1, 0, 1.
    """
    spec = ResourceSpec(N, n1, n2, rbar)

    def best(d: float) -> tuple[float, float]:
        v = input_variances(n1, n2, rbar + d, rbar - d)
        def phi_m1(g: float) -> float:  # phi - 1 without the 1: precise where phi ~ 1
            vx, vp = network_variances(N, v, g)
            return (vx + vp) / 2.0 + vx * vp / 4.0
        if N == 2:
            return 1.0, phi_m1(1.0)  # gain term has coefficient N-2 = 0
        lo, mid, hi = (phi_m1(g) for g in (-1.0, 0.0, 1.0))
        g = (lo - hi) / (2.0 * (lo - 2.0 * mid + hi))
        return g, phi_m1(g)

    d_star = golden_section(lambda d: best(d)[1], -rbar - 2.0, rbar + 2.0)
    g_star, phi_star_m1 = best(d_star)
    if not math.isfinite(phi_star_m1):
        raise ArithmeticError("non-finite objective at the numerical optimum")
    return OptimizationResult(d_star, g_star, (1.0 + phi_star_m1) ** -0.5,
                              eta_generalized(spec), "numerical")


def _worst_case(spec_nd: tuple[int, float, float, float], g: float) -> WorstCase:
    """worst_case on raw, already validated inputs at optimal gain g."""
    rbar = spec_nd[3]
    f_r1, f_r2 = _fidelity(spec_nd, -rbar, g), _fidelity(spec_nd, rbar, g)
    return WorstCase(rbar, f_r2, "r2") if f_r2 < f_r1 else WorstCase(-rbar, f_r1, "r1")


def worst_case(N: int, n1: float, n2: float, rbar: float) -> WorstCase:
    """Lowest optimal-gain fidelity over the bias range, attained at d = +-rbar.

    d = -rbar zeroes r1 (the momentum squeezer), d = +rbar zeroes r2.
    """
    ResourceSpec(N, n1, n2, rbar)  # validates the inputs the kernel takes raw
    return _worst_case((N, n1, n2, rbar), g_N_opt(N, n1, n2, rbar))  # g is inert at N = 2


def _d_unbiased(N: int, n1: float, n2: float, rbar: float) -> float:
    """d_unbiased on raw, already validated inputs.

    With k = (N-1) n2 and q = e^{-4 rbar}, multiplying the residual by
    e^{2(rbar+d)} gives e^{4d} = (k + n1 q)/(n1 + k q).  It is evaluated as
    log1p((k - n1)(1 - q)/(n1 + k q)) with 1 - q from expm1, which keeps
    full relative accuracy as rbar -> 0 (where q rounds to 1) and never
    overflows; q itself comes from exp, as 1 + expm1 loses it at large rbar.
    """
    q = math.exp(-4.0 * rbar)
    k = (N - 1) * n2
    return 0.25 * math.log1p((k - n1) * -math.expm1(-4.0 * rbar) / (n1 + k * q))


def d_unbiased(N: int, n1: float, n2: float, rbar: float) -> float:
    """Bias making the N-splitter output unbiased in x and p.

    The exact root of n1 sinh(2(rbar+d)) = (N-1) n2 sinh(2(rbar-d)):
    d = (1/4) ln[(k + n1 q)/(n1 + k q)] with k = (N-1) n2 and q = e^{-4 rbar}.
    The residual is increasing in d and changes sign on [-rbar, rbar] whenever
    rbar > 0, so the root lies strictly inside (d = 0 at rbar = 0).
    """
    ResourceSpec(N, n1, n2, rbar)  # validates the inputs the kernel takes raw
    return _d_unbiased(N, n1, n2, rbar)
