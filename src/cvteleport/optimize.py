"""Optimal protocol parameters: closed forms plus an independent numerical oracle.

The closed forms -- the optimal bias d_N_opt and gain g_N_opt, the optimal
fidelity F = 1/(1 + eta_N), the worst case and the unbiased bias -- are
methods of ``structured.IsoEntangledClass``, written with q = e^{-4 rbar} so
that nothing overflows at large squeezing.  Each public function here builds
the class, which validates (N, n1, n2, rbar), and returns its method's value.

The numerical oracle minimizes phi - 1 by golden section in d, takes g from
phi's exact parabola in g, and never consults the closed forms.
"""

from __future__ import annotations

import math
from typing import Callable

from .structured import (
    IsoEntangledClass, OptimizationResult, WorstCase, input_variances, network_variances)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def g_N_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal feed-forward gain; independent of the bias d."""
    return IsoEntangledClass(N, n1, n2, rbar).g_opt


def d_N_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal squeezing bias for the N-user network.  It can leave [-rbar, rbar]
    (driving one input squeezing negative); ``optimal_fidelity`` can clamp it."""
    return IsoEntangledClass(N, n1, n2, rbar).d_opt


def optimal_fidelity(
    N: int, n1: float, n2: float, rbar: float, constrain_bias: bool = False
) -> OptimizationResult:
    """Closed-form optimum: F = 1/(1 + eta_N) at (d_N_opt, g_N_opt); with
    ``constrain_bias=True`` the bias is clamped to [-rbar, rbar]
    (``IsoEntangledClass.optimum``)."""
    return IsoEntangledClass(N, n1, n2, rbar).optimum(constrain_bias)


def golden_section(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimize a unimodal scalar function by golden-section search.

    Narrows the bracket to 1e-3 relative (at least 1e-3 wide), then takes three
    parabolic steps, each converging like Newton's, so analytic minima are located
    well below the flatness floor of pure bracketing.
    """
    if not (math.isfinite(fn(lo)) and math.isfinite(fn(hi))):
        raise ArithmeticError("non-finite objective at the bracket endpoints")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-3 * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    m = 0.5 * (a + b)
    for _ in range(3):
        # parabolic vertex through (m-h, m, m+h); curvature dominates rounding noise
        h = max(1e-5, 1e-5 * abs(m))
        f0, fm, f1 = fn(m - h), fn(m), fn(m + h)
        denom = f0 - 2.0 * fm + f1
        if denom > 0.0:
            m = min(max(m + 0.5 * h * (f0 - f1) / denom, a), b)  # stays in the bracket
    return min(max(m, lo), hi)


def numerical_optimum(N: int, n1: float, n2: float, rbar: float) -> OptimizationResult:
    """Minimize phi over (d, g) by one golden-section search over |d| < rbar + 2.

    Independent oracle for the closed forms.  p_tot is linear in the gain, so at
    each d phi is an exact parabola in g; its vertex follows from g = -1, 0, 1.
    """
    iso = IsoEntangledClass(N, n1, n2, rbar)  # validates; only its eta_N is reported

    def phi_m1(v: tuple, g: float) -> float:  # phi - 1 without the 1: precise where phi ~ 1
        vx, vp = network_variances(N, v, g)
        return (vx + vp) / 2.0 + vx * vp / 4.0

    def best(d: float) -> tuple[float, float]:
        v = input_variances(n1, n2, rbar + d, rbar - d)
        if N == 2:
            return 1.0, phi_m1(v, 1.0)  # gain term has coefficient N-2 = 0
        lo, mid, hi = phi_m1(v, -1.0), phi_m1(v, 0.0), phi_m1(v, 1.0)
        g = (lo - hi) / (2.0 * (lo - 2.0 * mid + hi))
        return g, phi_m1(v, g)

    d_star = golden_section(lambda d: best(d)[1], -rbar - 2.0, rbar + 2.0)
    g_star, phi_star_m1 = best(d_star)
    if not math.isfinite(phi_star_m1):
        raise ArithmeticError("non-finite objective at the numerical optimum")
    return OptimizationResult(d_star, g_star, (1.0 + phi_star_m1) ** -0.5, iso.eta_N, "numerical")


def worst_case(N: int, n1: float, n2: float, rbar: float) -> WorstCase:
    """Lowest optimal-gain fidelity over the bias range, attained at d = +-rbar:
    d = -rbar zeroes r1 (the momentum squeezer), d = +rbar zeroes r2."""
    iso = IsoEntangledClass(N, n1, n2, rbar)
    return iso.worst_case(iso.gain)


def d_unbiased(N: int, n1: float, n2: float, rbar: float) -> float:
    """Bias making the N-splitter output unbiased in x and p: the exact root
    of n1 sinh(2(rbar+d)) = (N-1) n2 sinh(2(rbar-d)), strictly inside
    (-rbar, rbar) when rbar > 0 (``IsoEntangledClass.d_unbiased``)."""
    return IsoEntangledClass(N, n1, n2, rbar).d_unbiased
