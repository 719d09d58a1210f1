"""Monte Carlo falsifier for the analytic fidelity pipeline.

Samples the Heisenberg-picture construction directly: per-mode vacuum
quadratures are drawn as unit-variance Gaussians, scaled by the squeezed
thermal factors, pushed through the N-splitter, and combined into x_rel and
p_tot.  Nothing here touches the covariance-matrix code paths beyond reusing
the N-splitter matrix, so agreement is a genuine cross-check.

Reproducibility: a counter-based Philox generator keyed by (seed, shard)
drives each shard independently, and the shards are merged in shard order, so
identical configs give identical bytes at any thread count.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gaussian import ResourceSpec, n_splitter
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


def _input_scales(spec: ResourceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode standard deviations of the squeezed thermal inputs."""
    sx = np.full(spec.N, math.sqrt(spec.n2) * math.exp(-spec.r2))
    sp = np.full(spec.N, math.sqrt(spec.n2) * math.exp(spec.r2))
    sx[0] = math.sqrt(spec.n1) * math.exp(spec.r1)
    sp[0] = math.sqrt(spec.n1) * math.exp(-spec.r1)
    return sx, sp


def _shard_sums(spec: ResourceSpec, cx: np.ndarray, cp: np.ndarray, samples: int, seed: int,
                forms: Callable[[np.ndarray, np.ndarray], tuple]) -> tuple[list, list]:
    """Shard sizes and, per shard, the sum and the sum of squares of each
    sample of ``forms(x @ cx, p @ cp)`` on the output quadratures x, p.  Shard i
    draws from Philox keyed by (seed, i), the x and then the p input normals of
    up to _CHUNK samples at a time.  The shards run on _WORKERS threads, which
    overlap because numpy releases the GIL while it draws and multiplies.
    """
    from concurrent.futures import ThreadPoolExecutor
    O = n_splitter(spec.N).entries[0::2, 0::2]  # x-sector orthogonal matrix
    wx, wp = O.T @ cx, O.T @ cp  # the forms pulled back onto the input modes
    sx, sp = _input_scales(spec)
    counts = [samples // _SHARDS] * _SHARDS
    counts[-1] += samples - sum(counts)

    def one_shard(shard: int, count: int) -> list:
        rng = np.random.Generator(np.random.Philox(key=[seed, shard]))
        z = np.empty((min(_CHUNK, count), spec.N))  # takes every m x N draw, x before p
        total = 0.0
        for done in range(0, count, _CHUNK):
            zm = z[:count - done]
            xr = np.multiply(rng.standard_normal(out=zm), sx, out=zm) @ wx
            pt = np.multiply(rng.standard_normal(out=zm), sp, out=zm) @ wp
            chunk = [t for v in forms(xr, pt) for t in (v.sum(), (v * v).sum())]
            total = total + np.array(chunk)
        return total.tolist()

    with ThreadPoolExecutor(_WORKERS) as pool:
        return counts, list(pool.map(one_shard, range(_SHARDS), counts))


def _variance(n: int, s1: float, s2: float) -> float:
    """Unbiased sample variance from the count, sum and sum of squares."""
    return (s2 - s1 * s1 / n) / (n - 1)


def _pooled(counts: list, sums: list, skip: int | None = None) -> list:
    """The sample count and the summed sums of every shard but ``skip``."""
    kept = [i for i in range(len(counts)) if i != skip]
    totals = [sum(sums[i][j] for i in kept) for j in range(len(sums[0]))]
    return [sum(counts[i] for i in kept), *totals]


def _jackknife(stat: Callable[..., float], counts: list, sums: list) -> tuple[float, float]:
    """``stat(n, *sums)`` of all shards pooled, and its delete-one-shard
    jackknife standard error."""
    loo = [stat(*_pooled(counts, sums, i)) for i in range(len(counts))]
    mean_loo = sum(loo) / len(loo)
    se = math.sqrt((len(loo) - 1) / len(loo) * sum((f - mean_loo) ** 2 for f in loo))
    return stat(*_pooled(counts, sums)), max(se, 1e-300)


def simulate(config: McConfig) -> McEstimate:
    """Estimate the teleportation fidelity by direct sampling.

    Variances are pooled over shards; the standard error of the fidelity is a
    delete-one-shard jackknife.
    """
    spec, params = config.spec, config.params
    gain = _checked_gain(spec, params)
    c_x = np.zeros(spec.N)
    c_x[params.sender] = 1.0
    c_x[params.receiver] = -1.0
    c_p = np.full(spec.N, gain)
    c_p[params.sender] = 1.0
    c_p[params.receiver] = 1.0
    counts, sums = _shard_sums(spec, c_x, c_p, config.samples, config.seed,
                               lambda xr, pt: (xr, pt))

    def variances(n, s1, s2, t1, t2) -> tuple[float, float]:
        return max(_variance(n, s1, s2), 0.0), max(_variance(n, t1, t2), 0.0)

    fid, se = _jackknife(lambda *pooled: fidelity_from_variances(*variances(*pooled)), counts, sums)
    vx, vp = variances(*_pooled(counts, sums))
    return McEstimate(fid, se, vx, vp, config.samples)


def variance_of_form(
    coefficients: np.ndarray, spec: ResourceSpec, samples: int, seed: int
) -> McEstimate:
    """Sampled estimate of u^T sigma u for the built resource.

    ``coefficients`` has length 2N in interleaved (x1, p1, ...) order.  The
    estimate converges to the quadratic form at the usual 1/sqrt(samples)
    rate; returned in the var_x_rel_hat slot with the matching jackknife
    standard error in std_error.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (2 * spec.N,):
        raise ValueError(f"expected {2 * spec.N} coefficients, got shape {c.shape}")
    _check_draws(samples, seed)
    counts, sums = _shard_sums(spec, c[0::2], c[1::2], samples, seed,
                               lambda xr, pt: (xr + pt,))
    v_hat, se = _jackknife(_variance, counts, sums)
    return McEstimate(float("nan"), se, v_hat, float("nan"), samples)
