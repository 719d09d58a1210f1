"""Monte Carlo falsifier for the analytic fidelity pipeline.

Samples the Heisenberg-picture construction directly: per-mode vacuum
quadratures are drawn as unit-variance Gaussians, scaled by the squeezed
thermal factors, pushed through the N-splitter, and combined into x_rel and
p_tot.  Only the input modes a form weights beyond rounding are drawn: for the
(0, 1) pair at moderate squeezing, 5 normals per sample instead of 2N.  Only the
N-splitter's Helmert matrix O is shared with the covariance-matrix code, never a
CM or the checked 2N x 2N transform, so agreement is a genuine check.

Reproducibility: SFC64 seeded with the SeedSequence of (seed, shard) drives
each shard independently, and the shards are merged in shard order, so
identical configs give identical bytes at any thread count.  Each sample
variance v of these exact Gaussians has the plug-in standard error |v| sqrt(2/(n-1)).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gaussian import ResourceSpec, _helmert
from .teleport import ProtocolParams, _checked_gain, fidelity_from_variances

_CHUNK = 1 << 16
_SHARDS = 16
_WORKERS = min(_SHARDS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


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


def _input_scales(spec: ResourceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode standard deviations of the squeezed thermal inputs."""
    sx = np.full(spec.N, math.sqrt(spec.n2) * math.exp(-spec.r2))
    sp = np.full(spec.N, math.sqrt(spec.n2) * math.exp(spec.r2))
    sx[0] = math.sqrt(spec.n1) * math.exp(spec.r1)
    sp[0] = math.sqrt(spec.n1) * math.exp(-spec.r1)
    return sx, sp


def _kept(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The input modes with |w_i s_i| above 1e-15 of the largest; the rest is rounding."""
    ws = np.abs(w * s)
    return np.flatnonzero(ws > 1e-15 * ws.max())


def _scaled_dot(z: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.multiply(z, s) @ w`` bit for bit, scaling z in place one column at a time
    (a broadcast over rows of a few kept modes is slow), and one column without a matmul."""
    for j, scale in enumerate(s):
        z[:, j] *= scale
    return z[:, 0] * w[0] if len(w) == 1 else z @ w


def _shard_sums(spec: ResourceSpec, cx: np.ndarray, cp: np.ndarray, samples: int, seed: int,
                forms: Callable[[np.ndarray, np.ndarray], tuple]) -> tuple[list, list]:
    """Shard sizes and, per shard, the sum and the sum of squares of each
    sample of ``forms(x @ cx, p @ cp)`` on the output quadratures x, p.  Shard i
    draws from SFC64 seeded with (seed, i) the x, then the p normals of the
    ``_kept`` input modes, up to _CHUNK samples at a time, on _WORKERS threads
    that overlap because numpy releases the GIL while it draws and multiplies.
    """
    from concurrent.futures import ThreadPoolExecutor
    # forms pulled back onto the input modes: O^T c in row order, the rounding TestPinnedDraws pins
    wx, wp = ((_helmert(spec.N) * c[:, None]).sum(axis=0) for c in (cx, cp))
    sx, sp = _input_scales(spec)
    kx, kp = _kept(wx, sx), _kept(wp, sp)
    wx, sx, wp, sp = wx[kx], sx[kx], wp[kp], sp[kp]
    counts = [samples // _SHARDS] * _SHARDS
    counts[-1] += samples - sum(counts)

    def one_shard(shard: int, count: int) -> list:
        rng = np.random.Generator(np.random.SFC64([seed, shard]))
        z = np.empty(min(_CHUNK, count) * max(len(kx), len(kp)))  # viewed as (m, kx), then (m, kp)
        total = 0.0
        for done in range(0, count, _CHUNK):
            m = min(_CHUNK, count - done)
            zx, zp = z[:m * len(kx)].reshape(m, -1), z[:m * len(kp)].reshape(m, -1)
            xr = _scaled_dot(rng.standard_normal(out=zx), sx, wx)
            pt = _scaled_dot(rng.standard_normal(out=zp), sp, wp)
            chunk = [t for v in forms(xr, pt) for t in (v.sum(), (v * v).sum())]
            total = total + np.array(chunk)
        return total.tolist()

    with ThreadPoolExecutor(_WORKERS) as pool:
        return counts, list(pool.map(one_shard, range(_SHARDS), counts))


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
    """Estimate the teleportation fidelity by direct sampling.

    Variances are pooled over shards.  x_rel and p_tot are independent (the
    resource has no x-p terms), so the delta method on their Gaussian standard
    errors gives SE_F = (F/2) sqrt(2/(n-1)) sqrt((vx/(vx+2))^2 + (vp/(vp+2))^2),
    and |F_hat - F| > 3 SE_F on 0.27% of correct estimates.
    """
    spec, params = config.spec, config.params
    gain = _checked_gain(spec, params)
    c_x, c_p = np.zeros(spec.N), np.full(spec.N, gain)
    c_x[params.sender], c_x[params.receiver] = 1.0, -1.0
    c_p[params.sender] = c_p[params.receiver] = 1.0
    counts, sums = _shard_sums(spec, c_x, c_p, config.samples, config.seed,
                               lambda xr, pt: (xr, pt))

    def fidelity(n, s1, s2, t1, t2) -> tuple[float, float, float, float]:
        vx, vp = max(_variance(n, s1, s2)[0], 0.0), max(_variance(n, t1, t2)[0], 0.0)
        f = fidelity_from_variances(vx, vp)
        rel = math.sqrt(2.0 / (n - 1)) * math.hypot(vx / (vx + 2), vp / (vp + 2))
        return f, f / 2 * rel, vx, vp

    fid, se, vx, vp, chi2 = _estimate(fidelity, counts, sums)
    return McEstimate(fid, se, vx, vp, config.samples, gain, chi2)


def variance_of_form(
    coefficients: np.ndarray, spec: ResourceSpec, samples: int, seed: int
) -> McEstimate:
    """Sampled estimate of u^T sigma u for the built resource.

    ``coefficients`` has length 2N in interleaved (x1, p1, ...) order.  The
    estimate v is returned in the var_x_rel_hat slot, with its Gaussian
    standard error |v| sqrt(2/(n-1)) in std_error.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (2 * spec.N,):
        raise ValueError(f"expected {2 * spec.N} coefficients, got shape {c.shape}")
    _check_draws(samples, seed)
    counts, sums = _shard_sums(spec, c[0::2], c[1::2], samples, seed,
                               lambda xr, pt: (xr + pt,))
    v_hat, se, chi2 = _estimate(_variance, counts, sums)
    return McEstimate(float("nan"), se, v_hat, float("nan"), samples, float("nan"), chi2)
