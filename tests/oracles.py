"""Independent formulas and high-precision routes that the tests hold the
package against.

The formulas hold only on the states named in their docstrings, which is why
they are test oracles and not part of the package's API.
"""

import math

import numpy as np
import pytest

from cvteleport.gaussian import omega


def epr_eta_symmetric(sigma):
    """eta of a symmetric two-mode state from its EPR correlations.

    4 eta = <(x1 - x2)^2> + <(p1 + p2)^2>; holds only when det alpha equals
    det beta, so asymmetric inputs are rejected.
    """
    if sigma.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {sigma.n_modes} modes")
    da, db = np.linalg.det(sigma.mode_block(0, 0)), np.linalg.det(sigma.mode_block(1, 1))
    if abs(da - db) > 1e-8 * max(1.0, abs(da), abs(db)):
        raise ValueError("EPR identity requires a symmetric state (det alpha = det beta)")
    m = sigma.entries
    var_x_rel = m[0, 0] - 2.0 * m[0, 2] + m[2, 2]
    var_p_tot = m[1, 1] + 2.0 * m[1, 3] + m[3, 3]
    return 0.25 * (var_x_rel + var_p_tot)


def phi_two_mode(rbar, d, n1, n2):
    """Two-mode fidelity kernel phi (fidelity = phi^{-1/2})."""
    return math.exp(-4.0 * rbar) * (math.exp(2.0 * (rbar + d)) + n1) * (
        math.exp(2.0 * (rbar - d)) + n2
    )


def symplectic_min_mp(m, dps=80):
    """Smallest symplectic eigenvalue of the double matrix m, in dps-digit
    arithmetic: nu^2 are the eigenvalues of K^T K, K = L^T Omega L, m = L L^T."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = dps
    n = m.shape[0] // 2
    L = mp.cholesky(mp.matrix(m.tolist()))
    K = L.T * mp.matrix(omega(n).tolist()) * L
    return float(mp.sqrt(min(mp.eigsy(K.T * K, eigvals_only=True))))


def cascade_resource(spec):
    """The 2N x 2N route to the symmetric resource: ``apply(n_splitter(N),
    block_diag_cm(...))`` on ``squeezed_thermal_cm`` inputs, one momentum-squeezed
    (n1, r1) and N - 1 position-squeezed (n2, r2) modes.  Returns the symmetrized
    S sigma_in S^T that ``apply`` would validate, unvalidated.
    """
    from cvteleport.gaussian import block_diag_cm, n_splitter, squeezed_thermal_cm

    inputs = [squeezed_thermal_cm(spec.n1, spec.r1, "momentum")]
    inputs += [squeezed_thermal_cm(spec.n2, spec.r2, "position")] * (spec.N - 1)
    S = n_splitter(spec.N).entries
    out = S @ block_diag_cm(*inputs).entries @ S.T
    return 0.5 * (out + out.T)


def per_sample_shard_sums(spec, cx, cp, samples, seed, combine):
    """The per-sample route to ``mc._shard_sums``.  Each of 16 shards draws from SFC64
    seeded with (seed, shard) n samples of every input mode's x, then p quadrature, as
    normals times the modes' standard deviations sqrt(n_i) e^{+-r_i}, pushes them through
    the N-splitter, and sums every sample of each form of ``combine(c_x . x, c_p . p)``
    and of its square.  All N modes are drawn, serially, in one block per shard."""
    from cvteleport.gaussian import n_splitter

    O = n_splitter(spec.N).entries[0::2, 0::2]
    sx = np.r_[math.sqrt(spec.n1) * math.exp(spec.r1),
               [math.sqrt(spec.n2) * math.exp(-spec.r2)] * (spec.N - 1)]
    sp = np.r_[math.sqrt(spec.n1) * math.exp(-spec.r1),
               [math.sqrt(spec.n2) * math.exp(spec.r2)] * (spec.N - 1)]
    counts = [samples // 16] * 16
    counts[-1] += samples % 16
    sums = []
    for shard, n in enumerate(counts):
        rng = np.random.Generator(np.random.SFC64([seed, shard]))
        x = (rng.standard_normal((n, spec.N)) * sx) @ O.T
        p = (rng.standard_normal((n, spec.N)) * sp) @ O.T
        sums.append([t for f in combine(x @ cx, p @ cp) for t in (f.sum(), (f * f).sum())])
    return counts, sums


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic D and its asymptotic p-value, with
    the effective-size correction of Stephens (Numerical Recipes' ``kstwo``)."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = np.abs(np.searchsorted(a, both, side="right") / len(a)
               - np.searchsorted(b, both, side="right") / len(b)).max()
    root = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (root + 0.12 + 0.11 / root) * d
    if lam < 0.2:  # p rounds to 1 here, and the alternating series converges slowly
        return d, 1.0
    k = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))
    return d, float(min(max(p, 0.0), 1.0))
