"""Independent formulas and high-precision routes that the tests hold the
package against.

The formulas hold only on the states named in their docstrings, which is why
they are test oracles and not part of the package's API.  The 2N x 2N
symplectic transforms (beam splitter, squeezer, the beam-splitter cascade of
the N-splitter) are plain arrays here: the package builds its resource per
quadrature from ``gaussian._helmert`` and applies no transform.
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


def beam_splitter(theta, i, j, n_modes):
    """Phase-free beam splitter between modes i and j of an n_modes system:
    a_i -> a_i cos(t) + a_j sin(t), a_j -> a_i sin(t) - a_j cos(t), the same on x
    and p, identity elsewhere.  Note the minus sign on the second output mode."""
    c, s = np.cos(theta), np.sin(theta)
    S = np.eye(2 * n_modes)
    for q in (0, 1):
        a, b = 2 * i + q, 2 * j + q
        S[a, a] = c
        S[a, b] = s
        S[b, a] = s
        S[b, b] = -c
    return S


def squeezer(r, mode, n_modes):
    """Single-mode squeezer diag(e^r, e^{-r}) on the given mode."""
    S = np.eye(2 * n_modes)
    S[2 * mode, 2 * mode] = np.exp(r)
    S[2 * mode + 1, 2 * mode + 1] = np.exp(-r)
    return S


def random_symplectic(n_modes, rng):
    """Random symplectic from a short cascade of beam splitters and squeezers,
    checked to preserve the symplectic form to 1e-12."""
    S = np.eye(2 * n_modes)
    for _ in range(4):
        i, j = rng.choice(n_modes, size=2, replace=False)
        S = beam_splitter(rng.uniform(0, np.pi), int(i), int(j), n_modes) @ S
        S = squeezer(rng.uniform(-0.8, 0.8), int(rng.integers(n_modes)), n_modes) @ S
    W = omega(n_modes)
    assert np.max(np.abs(S @ W @ S.T - W)) <= 1e-12
    return S


def cascade_splitter(N):
    """Reference N-splitter: the beam-splitter cascade B_{N-1,N}(pi/4) ...
    B_{1,2}(arccos 1/sqrt(N)) multiplied out, rightmost factor first."""
    S = np.eye(2 * N)
    for k in range(1, N):
        theta = np.arccos(1.0 / np.sqrt(N - k + 1))
        S = beam_splitter(theta, k - 1, k, N) @ S
    return S


def splitter(N):
    """The N-splitter as a 2N x 2N transform, O (x) I_2: the Helmert factor O of
    ``gaussian._helmert`` on x and p alike."""
    from cvteleport.gaussian import _helmert

    return np.kron(_helmert(N), np.eye(2))


def conjugate(S, m):
    """S m S^T, symmetrized: the state that the transform S makes of the CM m."""
    out = S @ m @ S.T
    return 0.5 * (out + out.T)


def cascade_resource(spec):
    """The 2N x 2N route to the symmetric resource: the ``splitter`` on the
    ``block_diag_cm`` of ``squeezed_thermal_cm`` inputs, one momentum-squeezed
    (n1, r1) and N - 1 position-squeezed (n2, r2) modes.  Returns the symmetrized
    S sigma_in S^T, unvalidated.
    """
    from cvteleport.gaussian import block_diag_cm, squeezed_thermal_cm

    inputs = [squeezed_thermal_cm(spec.n1, spec.r1, "momentum")]
    inputs += [squeezed_thermal_cm(spec.n2, spec.r2, "position")] * (spec.N - 1)
    return conjugate(splitter(spec.N), block_diag_cm(*inputs).entries)


def per_sample_shard_sums(spec, cx, cp, samples, seed, combine):
    """The per-sample route to ``mc._shard_sums``.  Each of 16 shards draws from SFC64
    seeded with (seed, shard) n samples of every input mode's x, then p quadrature, as
    normals times the modes' standard deviations sqrt(n_i) e^{+-r_i}, pushes them through
    the N-splitter, and sums every sample of each form of ``combine(c_x . x, c_p . p)``
    and of its square.  All N modes are drawn, serially, in one block per shard."""
    from cvteleport.gaussian import _helmert

    O = _helmert(spec.N)
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
