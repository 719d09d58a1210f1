"""The structured symmetric resource and the closed forms of its iso-entangled class.

In each quadrature the resource's covariance matrix is v2 I + (v1 - v2)/N J, so
four input variances are the whole state; ``network_variances`` gives the
teleported variances from them in O(1).  Every member with the same
(N, n1, n2, rbar) has the same eta_N whatever its bias d (quant-ph/0412125):
``IsoEntangledClass`` validates those four numbers once, forms q = e^{-4 rbar}
once, and holds each closed form of the class in one method.  Natural logs
throughout; the forms use q, so nothing overflows at large squeezing.
``ResourceSpec`` (a class plus its bias d) lives here too, so that every
closed-form route runs without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple


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


def input_variances(n1: float, n2: float, r1: float, r2: float) -> tuple[float, ...]:
    """(v1x, v2x, v1p, v2p): variances of the mode squeezed in p (v1) and of the
    N - 1 modes squeezed in x (v2).  They are the whole resource: in each
    quadrature its CM is v2 I + (v1 - v2)/N J (J all ones), with no x-p terms.
    """
    s1, s2 = math.exp(2.0 * r1), math.exp(2.0 * r2)
    return n1 * s1, n2 / s2, n1 / s1, n2 * s2


def network_variances(N: int, variances: tuple, g: float) -> tuple[float, float]:
    """x_rel/p_tot variances, for any sender/receiver pair, of the symmetric
    resource with input variances (v1x, v2x, v1p, v2p): var_x_rel = 2 v2x and
    var_p_tot = {[2 + (N-2) g]^2 v1p + 2 (g-1)^2 (N-2) v2p} / N.
    """
    _, v2x, v1p, v2p = variances
    return 2.0 * v2x, ((2.0 + (N - 2) * g) ** 2 * v1p + 2.0 * (g - 1.0) ** 2 * (N - 2) * v2p) / N


def fidelity_from_variances(var_x_rel: float, var_p_tot: float) -> float:
    """Average fidelity from the teleported-mode excess variances."""
    if not (var_x_rel >= 0.0 and var_p_tot >= 0.0):
        raise ValueError(f"variances must be nonnegative, got ({var_x_rel}, {var_p_tot})")
    return ((var_x_rel + 2.0) * (var_p_tot + 2.0) / 4.0) ** -0.5


def _log1p_minus_u(u: float) -> float:
    """log1p(u) - u for u in [-1/2, 3], free of the cancellation at small u:
    with s = u/(2 + u), log1p(u) = 2 (s + s^3/3 + s^5/5 + ...) and u - 2s = u s."""
    s = u / (2.0 + u)
    total, term, k = s ** 3 / 3.0, s ** 5, 5
    while abs(term) > 1e-17 * k * abs(total):  # False for NaN too
        total, term, k = total + term / k, term * s * s, k + 2
    return 2.0 * total - u * s


def _contangle(eta_N: float, base: float) -> float:
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


@dataclass(frozen=True, slots=True, init=False)
class IsoEntangledClass:
    """The iso-entangled class (N, n1, n2, rbar) of the symmetric resource.

    Validated on construction: N an integer >= 2, n1, n2 and rbar finite,
    n1, n2 >= 1 and rbar >= 0.  q = e^{-4 rbar} is formed once.
    """

    N: int
    n1: float
    n2: float
    rbar: float
    q: float = field(init=False, repr=False, compare=False)

    def __init__(self, N: int, n1: float, n2: float, rbar: float):
        if int(N) != N or N < 2:
            raise ValueError(f"N must be an integer >= 2, got {N}")
        if not (math.isfinite(n1) and math.isfinite(n2) and math.isfinite(rbar)):
            for name, value in (("n1", n1), ("n2", n2), ("rbar", rbar)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        if n1 < 1.0 or n2 < 1.0:
            raise ValueError("thermal noise factors must be >= 1")
        if rbar < 0.0:
            raise ValueError("average squeezing rbar must be >= 0")
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "rbar", rbar)
        object.__setattr__(self, "q", math.exp(-4.0 * rbar))

    @property
    def eta_N(self) -> float:
        """Generalized PPT eigenvalue sqrt(N n1 n2 / (2 e^{4 rbar} + (N-2) n1/n2)),
        evaluated as e^{-2 rbar} sqrt(N n1 n2 / (2 + (N-2) (n1/n2) q)) so that it
        neither overflows nor underflows for rbar below about 354."""
        return math.exp(-2.0 * self.rbar) * math.sqrt(
            self.N * self.n1 * self.n2 / (2.0 + (self.N - 2) * self.n1 / self.n2 * self.q))

    @property
    def fidelity_opt(self) -> float:
        """Optimal fidelity, 1/(1 + eta_N)."""
        return 1.0 / (1.0 + self.eta_N)

    @property
    def g_opt(self) -> float:
        """Optimal gain 1 - N q / [(N-2) q + 2 n2/n1]; independent of d, inert at N = 2."""
        return 1.0 - self.N * self.q / ((self.N - 2) * self.q + 2.0 * self.n2 / self.n1)

    @property
    def gain(self) -> float:
        """The optimal gain as the protocol reports it: g_opt, or 1 at N = 2."""
        return 1.0 if self.N == 2 else self.g_opt

    @property
    def d_opt(self) -> float:
        """Optimal bias (1/4) ln{N / [(N-2) q + 2 n2/n1]}; it can leave [-rbar, rbar]."""
        return 0.25 * math.log(self.N / ((self.N - 2) * self.q + 2.0 * self.n2 / self.n1))

    def fidelity(self, d: float, g: float) -> float:
        """Fidelity of the member with bias d at gain g."""
        v = input_variances(self.n1, self.n2, self.rbar + d, self.rbar - d)
        return fidelity_from_variances(*network_variances(self.N, v, g))

    def optimum(self, constrain_bias: bool) -> OptimizationResult:
        """fidelity_opt at (d_opt, gain).

        With ``constrain_bias`` the bias is clamped to [-rbar, rbar], which is
        safe because phi is convex in d; when the clamp bites, the fidelity is
        re-evaluated at the boundary bias (still with optimal gain) and
        ``bias_clamped`` is set.
        """
        d, g = self.d_opt, self.gain
        if constrain_bias and abs(d) > self.rbar:
            d = min(max(d, -self.rbar), self.rbar)
            return OptimizationResult(d, g, self.fidelity(d, g), self.eta_N, "closed-form",
                                      bias_clamped=True)
        return OptimizationResult(d, g, self.fidelity_opt, self.eta_N, "closed-form")

    def worst_case(self, g: float) -> WorstCase:
        """Lowest fidelity at gain g over the bias range, attained at d = +-rbar.

        d = -rbar zeroes r1 (the momentum squeezer), d = +rbar zeroes r2.
        """
        rbar = self.rbar
        f_r1, f_r2 = self.fidelity(-rbar, g), self.fidelity(rbar, g)
        return WorstCase(rbar, f_r2, "r2") if f_r2 < f_r1 else WorstCase(-rbar, f_r1, "r1")

    @property
    def d_unbiased(self) -> float:
        """Bias making the N-splitter output unbiased in x and p.

        The exact root of n1 sinh(2(rbar+d)) = (N-1) n2 sinh(2(rbar-d)); with
        k = (N-1) n2, multiplying the residual by e^{2(rbar+d)} gives
        e^{4d} = (k + n1 q)/(n1 + k q).  The residual is increasing in d and
        changes sign on [-rbar, rbar] whenever rbar > 0, so the root lies
        strictly inside (d = 0 at rbar = 0).  It is evaluated as
        log1p((k - n1)(1 - q)/(n1 + k q)) with 1 - q from expm1, which keeps
        full relative accuracy as rbar -> 0 (where q rounds to 1) and never
        overflows; q itself comes from exp, as 1 + expm1 loses it at large rbar.
        """
        n1, k = self.n1, (self.N - 1) * self.n2
        return 0.25 * math.log1p((k - n1) * -math.expm1(-4.0 * self.rbar) / (n1 + k * self.q))

    def contangle(self, base: float) -> float | None:
        """Residual contangle E_tau of the pure three-mode resource (N = 3,
        n1 = n2 = 1, purity 1/(n1 n2^2) = 1), from eta_N; None for any other class."""
        if not (self.N == 3 and self.n1 == 1.0 and self.n2 == 1.0):
            return None
        return _contangle(self.eta_N, base)


@dataclass(frozen=True)
class ResourceSpec:
    """Knobs of the symmetric N-mode squeezed-thermal resource family.

    One momentum-squeezed mode (noise n1, squeezing r1 = rbar + d) is combined
    with N - 1 position-squeezed modes (noise n2, squeezing r2 = rbar - d)
    through a balanced N-splitter.

    By default the bias is constrained to |d| <= rbar so both squeezings stay
    nonnegative.  Pass ``constrain_bias=False`` to allow the unconstrained
    optimal bias, which may drive r2 slightly negative (an anti-squeezed but
    still physical input).  ``iso`` is the resource's validated iso-entangled
    class (N, n1, n2, rbar).
    """

    N: int
    n1: float
    n2: float
    rbar: float
    d: float = 0.0
    constrain_bias: bool = True
    iso: IsoEntangledClass = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        iso = IsoEntangledClass(self.N, self.n1, self.n2, self.rbar)
        object.__setattr__(self, "N", iso.N)
        object.__setattr__(self, "iso", iso)
        if not math.isfinite(self.d):
            raise ValueError(f"d must be finite, got {self.d}")
        if self.constrain_bias and abs(self.d) > self.rbar + 1e-12:
            raise ValueError(f"bias d={self.d} outside [-rbar, rbar] with rbar={self.rbar}")

    @property
    def r1(self) -> float:
        return self.rbar + self.d

    @property
    def r2(self) -> float:
        return self.rbar - self.d

    @property
    def variances(self) -> tuple[float, float, float, float]:
        return input_variances(self.n1, self.n2, self.r1, self.r2)
