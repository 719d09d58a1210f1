"""Optimal protocol parameters: closed forms plus an independent numerical oracle.

Closed forms (natural logs throughout -- they come from calculus, not from the
entropy-base choice):

* two-mode optimal bias    d_opt = (1/4) ln(n1/n2)
* optimal gain             g_N_opt = 1 - N / [(N-2) + 2 e^{4 rbar} n2/n1]
* optimal bias             d_N_opt = rbar + ln{N / [(N-2) + 2 e^{4 rbar} n2/n1]} / 4
* optimal fidelity         F = 1 / (1 + eta_N)

The numerical oracle minimizes the fidelity kernel phi by nested bracketing
scalar searches (both axes are convex) and never consults the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .gaussian import ResourceSpec, input_variances
from .entanglement import eta_generalized
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


class UnbiasedBias(NamedTuple):
    d: float
    at_boundary: bool


def d_opt_two_mode(n1: float, n2: float) -> float:
    """Bias minimizing the two-mode fidelity kernel: (1/4) ln(n1/n2)."""
    return 0.25 * math.log(n1 / n2)


def g_N_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal feed-forward gain; independent of the bias d."""
    return 1.0 - N / ((N - 2) + 2.0 * math.exp(4.0 * rbar) * n2 / n1)


def d_N_opt(N: int, n1: float, n2: float, rbar: float, constrain: bool = False) -> float:
    """Optimal squeezing bias for the N-user network.

    The raw formula can leave [-rbar, rbar] (driving one input squeezing
    negative); with ``constrain=True`` it is clamped to the physical range,
    which is safe because phi is convex in d.
    """
    d = rbar + 0.25 * math.log(N / ((N - 2) + 2.0 * math.exp(4.0 * rbar) * n2 / n1))
    if constrain:
        d = min(max(d, -rbar), rbar)
    return d


def _phi(spec_nd: tuple[int, float, float, float], d: float, g: float) -> float:
    """Fidelity kernel (fidelity = phi^{-1/2}) on raw, already validated inputs."""
    N, n1, n2, rbar = spec_nd
    vx, vp = network_variances(N, input_variances(n1, n2, rbar + d, rbar - d), g)
    return (vx + 2.0) * (vp + 2.0) / 4.0


def optimal_fidelity(
    N: int, n1: float, n2: float, rbar: float, constrain_bias: bool = False
) -> OptimizationResult:
    """Closed-form optimum: F = 1/(1 + eta_N) at (d_N_opt, g_N_opt).

    With ``constrain_bias=True`` the bias is clamped to [-rbar, rbar]; when the
    clamp bites, the fidelity is re-evaluated at the boundary bias (still with
    optimal gain) and ``bias_clamped`` is set.
    """
    eta = eta_generalized(ResourceSpec(N, n1, n2, rbar))
    g = 1.0 if N == 2 else g_N_opt(N, n1, n2, rbar)
    d_raw = d_N_opt(N, n1, n2, rbar)
    if constrain_bias and abs(d_raw) > rbar:
        d = min(max(d_raw, -rbar), rbar)
        fid = _phi((N, n1, n2, rbar), d, g) ** -0.5
        return OptimizationResult(d, g, fid, eta, "closed-form", bias_clamped=True)
    return OptimizationResult(d_raw, g, 1.0 / (1.0 + eta), eta, "closed-form")


def golden_section(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-11
) -> float:
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
    while b - a > max(tol, 1e-10 * (abs(a) + abs(b))):
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


def numerical_optimum(
    N: int,
    n1: float,
    n2: float,
    rbar: float,
    d_bounds: tuple[float, float] | None = None,
    g_bounds: tuple[float, float] = (-5.0, 5.0),
    tol: float = 1e-11,
) -> OptimizationResult:
    """Minimize phi over (d, g) by nested golden-section search.

    Independent oracle for the closed forms; default d bounds are wide enough
    to contain the unconstrained optimum for any grid in this package.
    """
    spec = ResourceSpec(N, n1, n2, rbar)
    key = (N, n1, n2, rbar)
    if d_bounds is None:
        d_bounds = (-rbar - 2.0, rbar + 2.0)

    def best_g(d: float) -> float:
        if N == 2:
            return 1.0  # gain term has coefficient N-2 = 0
        return golden_section(lambda g: _phi(key, d, g), *g_bounds, tol=tol)

    def outer(d: float) -> float:
        return _phi(key, d, best_g(d))

    d_star = golden_section(outer, *d_bounds, tol=tol)
    g_star = best_g(d_star)
    phi_star = _phi(key, d_star, g_star)
    if not math.isfinite(phi_star):
        raise ArithmeticError("non-finite objective at the numerical optimum")
    return OptimizationResult(d_star, g_star, phi_star ** -0.5, eta_generalized(spec), "numerical")


def worst_case(N: int, n1: float, n2: float, rbar: float) -> WorstCase:
    """Lowest optimal-gain fidelity over the bias range, attained at d = +-rbar.

    d = -rbar zeroes r1 (the momentum squeezer), d = +rbar zeroes r2.
    """
    ResourceSpec(N, n1, n2, rbar)  # validates the inputs _phi takes raw
    g = g_N_opt(N, n1, n2, rbar)  # the gain is inert at N = 2
    candidates = [
        WorstCase(-rbar, _phi((N, n1, n2, rbar), -rbar, g) ** -0.5, "r1"),
        WorstCase(rbar, _phi((N, n1, n2, rbar), rbar, g) ** -0.5, "r2"),
    ]
    return min(candidates, key=lambda w: w.fidelity_worst)


def d_unbiased(N: int, n1: float, n2: float, rbar: float, tol: float = 1e-12) -> UnbiasedBias:
    """Bias making the N-splitter output unbiased in x and p.

    Solves n1 sinh(2(rbar+d)) = (N-1) n2 sinh(2(rbar-d)) on [-rbar, rbar] by
    bisection.  The left-hand side minus the right-hand side is increasing in
    d with opposite signs at the endpoints whenever rbar > 0, so a root always
    exists; the boundary fallback is kept for degenerate inputs.
    """

    def h(d: float) -> float:
        return n1 * math.sinh(2.0 * (rbar + d)) - (N - 1) * n2 * math.sinh(2.0 * (rbar - d))

    lo, hi = -rbar, rbar
    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return UnbiasedBias(lo, False)
    if fhi == 0.0:
        return UnbiasedBias(hi, False)
    if flo * fhi > 0.0:
        return UnbiasedBias(lo if abs(flo) < abs(fhi) else hi, True)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) * flo <= 0.0:
            hi = mid
        else:
            lo, flo = mid, h(mid)
    return UnbiasedBias(0.5 * (lo + hi), False)
