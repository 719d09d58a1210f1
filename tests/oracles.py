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
