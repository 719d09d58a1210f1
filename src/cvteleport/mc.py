"""Monte Carlo falsifier for the analytic fidelity pipeline.

Every form sampled is linear in the independent Gaussian input quadratures, so n
samples of it enter each estimate only through their sum, N(0, n sigma^2), and their
independent centred sum of squares, sigma^2 chi^2(n-1) (Cochran's theorem), with
sigma^2 from ``form_variances``.  Each of 16 shards draws those two numbers per form
from one SFC64 generator seeded with ``seed``: an estimate has exactly the
distribution of n per-sample draws, from a count of variates independent of n and N.

Every estimate's distribution is thus fixed by sigma_x^2 and sigma_p^2, taken from two
moments of each form's coefficients (no splitter matrix, no CM): the sampler sees no more
than an exact check of them against ``network_variances`` (a ``verify`` suite), plus its
estimators, their standard errors and the 3-sigma gate end to end.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import SFC64, Generator

from .structured import ResourceSpec
from .teleport import ProtocolParams, _checked_gain, fidelity_from_variances

_SHARDS = 16


def _check_draws(samples, seed) -> None:
    """Sample counts and seeds are nonnegative integers, with a sample per shard."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if samples < _SHARDS:
        raise ValueError(f"need at least {_SHARDS} samples, one per shard, got {samples}")


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    spec: ResourceSpec
    params: ProtocolParams = field(default_factory=ProtocolParams)

    def __post_init__(self):
        _check_draws(self.samples, self.seed)


@dataclass(frozen=True)
class McEstimate:
    fidelity_mean: float
    std_error: float
    var_x_rel_hat: float
    var_p_tot_hat: float
    samples: int
    gain: float  # the gain used; NaN for variance_of_form
    shard_chi2: float  # sum over shards of ((estimate_i - estimate) / SE_i)^2, ~chi2 with 15 dof


def pair_forms(N: int, sender: int, receiver: int, gain: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of x_rel = x_s - x_r and p_tot = p_s + p_r + g sum_{k != s, r} p_k."""
    c_x, c_p = np.zeros(N), np.full(N, gain)
    c_x[sender], c_x[receiver] = 1.0, -1.0
    c_p[sender] = c_p[receiver] = 1.0
    return c_x, c_p


def form_variances(N: int, variances: tuple, cx: np.ndarray, cp: np.ndarray) -> tuple:
    """Variances v1 s^2/N + v2 sum_i (c_i - s/N)^2, s = sum c, of c_x . x and c_p . p on the
    output quadratures: the N-splitter sends mode 0 (v1) along 1/sqrt(N) and the other modes
    (v2) across it.  ``variances`` is (v1x, v2x, v1p, v2p), possibly arrays of resources."""
    v1x, v2x, v1p, v2p = variances
    return tuple(v1 * s * s / N + v2 * ((c - s / N) ** 2).sum()
                 for c, s, v1, v2 in ((cx, cx.sum(), v1x, v2x), (cp, cp.sum(), v1p, v2p)))


def _shard_sums(spec: ResourceSpec, cx: np.ndarray, cp: np.ndarray, samples: int, seed: int,
                combine: Callable[..., tuple]) -> tuple[list, list]:
    """Shard sizes and, per shard, the sum and the sum of squares of n samples of each
    form of ``combine(c_x . x, c_p . p)``, whose variances are ``combine(vx, vp)`` as x and
    p are independent: per form, 16 normals scale to the sums and 16 chi^2(n-1) = 2
    Gamma((n-1)/2) variates to the centred sums of squares (0 for a one-sample shard)."""
    counts = np.full(_SHARDS, samples // _SHARDS)
    counts[-1] += samples % _SHARDS
    rng = Generator(SFC64(seed))
    stats = []
    for var in combine(*form_variances(spec.N, spec.variances, cx, cp)):
        s1 = rng.standard_normal(_SHARDS) * np.sqrt(counts * var)
        css = 2.0 * rng.standard_gamma((counts - 1) / 2.0) * var
        stats += [s1, css + s1 * s1 / counts]
    return counts.tolist(), np.transpose(stats).tolist()


def _variance(n: int, s1: float, s2: float) -> tuple[float, float]:
    """Unbiased sample variance from the count, sum and sum of squares, and its
    Gaussian standard error |v| sqrt(2/(n-1))."""
    v = (s2 - s1 * s1 / n) / (n - 1)
    return v, max(abs(v) * math.sqrt(2.0 / (n - 1)), 1e-300)


def _estimate(stat: Callable[..., tuple], counts: list, sums: list) -> tuple:
    """``stat(n, *sums)``, an (estimate, SE, ...) tuple, of all shards pooled, then
    the chi^2 of the per-shard estimates about it (NaN with a one-sample shard)."""
    pooled = stat(sum(counts), *map(sum, zip(*sums)))
    shards = [stat(n, *s) if n > 1 else (math.nan, 1.0) for n, s in zip(counts, sums)]
    return (*pooled, sum(((f - pooled[0]) / se) ** 2 for f, se, *_ in shards))


def simulate(config: McConfig) -> McEstimate:
    """Estimate the teleportation fidelity from sampled quadrature variances.

    Variances are pooled over shards.  x_rel and p_tot are independent (the
    resource has no x-p terms), so the delta method on their Gaussian standard
    errors gives SE_F = (F/2) sqrt(2/(n-1)) sqrt((vx/(vx+2))^2 + (vp/(vp+2))^2),
    and |F_hat - F| > 3 SE_F on 0.27% of correct estimates.
    """
    spec, params = config.spec, config.params
    gain = _checked_gain(spec, params)
    c_x, c_p = pair_forms(spec.N, params.sender, params.receiver, gain)
    counts, sums = _shard_sums(spec, c_x, c_p, config.samples, config.seed, lambda x, p: (x, p))

    def fidelity(n, s1, s2, t1, t2) -> tuple[float, float, float, float]:
        vx, vp = max(_variance(n, s1, s2)[0], 0.0), max(_variance(n, t1, t2)[0], 0.0)
        f = fidelity_from_variances(vx, vp)
        rel = math.sqrt(2.0 / (n - 1)) * math.hypot(vx / (vx + 2), vp / (vp + 2))
        return f, f / 2 * rel, vx, vp

    fid, se, vx, vp, chi2 = _estimate(fidelity, counts, sums)
    return McEstimate(fid, se, vx, vp, config.samples, gain, chi2)


def variance_of_form(coefficients: np.ndarray, spec: ResourceSpec, samples: int,
                     seed: int) -> McEstimate:
    """Sampled estimate of u^T sigma u for the built resource.

    ``coefficients`` has length 2N in interleaved (x1, p1, ...) order.  The
    estimate v is returned in the var_x_rel_hat slot, with its Gaussian
    standard error |v| sqrt(2/(n-1)) in std_error.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (2 * spec.N,):
        raise ValueError(f"expected {2 * spec.N} coefficients, got shape {c.shape}")
    _check_draws(samples, seed)
    counts, sums = _shard_sums(spec, c[0::2], c[1::2], samples, seed, lambda x, p: (x + p,))
    v_hat, se, chi2 = _estimate(_variance, counts, sums)
    return McEstimate(float("nan"), se, v_hat, float("nan"), samples, float("nan"), chi2)
