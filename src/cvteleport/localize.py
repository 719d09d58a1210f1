"""Homodyne conditioning and localizable entanglement.

Measuring one quadrature on each of a set of modes updates the covariance
matrix of the remaining modes by a Schur complement that is independent of
the measurement outcomes.  Conditioning away all but two modes of the symmetric
resource "localizes" the multipartite entanglement into a two-mode state whose
PPT eigenvalue equals the generalized eigenvalue eta_N.  ``homodyne_condition``
and ``localize`` act on any covariance matrix, on a (..., 2N, 2N) stack or on
``gaussian.XPBlocks``, with one batched solve and one validation;
``localizable_eta`` is their closed form on the structured symmetric resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .entanglement import entanglement_of_teleportation, eof_symmetric, eta_generalized
from .structured import ResourceSpec

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix


@dataclass(frozen=True)
class ConditionalState:
    """Post-measurement state of the unmeasured modes: a CovarianceMatrix; for a
    (..., 2N, 2N) stack the validated stack of conditioned entries; for an XPBlocks
    the validated conditioned blocks.

    measured_modes are indices of the *original* state, in measurement order;
    quadratures holds the matching 'x'/'p' labels.
    """

    cm: CovarianceMatrix
    measured_modes: tuple[int, ...]
    quadratures: tuple[str, ...]


def _n_modes(sigma) -> int:
    return getattr(sigma, "n_modes", None) or sigma.shape[-1] // 2


def _schur(m, keep: list, measured: list):
    """A - C B^-1 C^T, symmetrized, with A = m[keep, keep], B = m[measured, measured]
    and C = m[keep, measured] for each matrix of the stack m; one batched solve."""
    import numpy as np

    rows = m.take(keep, -2)
    A, C = rows.take(keep, -1), rows.take(measured, -1)
    out = A - C @ np.linalg.solve(m.take(measured, -2).take(measured, -1), np.swapaxes(C, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _condition(sigma, modes: tuple, quadrature: str) -> ConditionalState:
    """Condition on ideal homodyne detection of one quadrature on each of ``modes``.

    The output is a Schur complement, independent of the outcomes.  Without x-p
    correlations (``gaussian.xp_free``) it is taken on the measured quadrature's
    N x N block, and the other block loses the measured rows and columns; with
    them, on the 2N x 2N matrix, against the measured quadratures.  One batched
    solve and one validation serve a whole stack.
    """
    import numpy as np

    from . import gaussian

    if gaussian.xp_free(sigma):
        xp = gaussian.quadrature_blocks(sigma).xp
        keep = [j for j in range(xp.shape[-1]) if j not in modes]
        q = int(quadrature == "p")
        out = xp.take(keep, -2).take(keep, -1)  # both blocks lose the measured modes
        out[q] = _schur(xp[q], keep, list(modes))
        out = gaussian.XPBlocks(out)
        if not isinstance(sigma, gaussian.XPBlocks):
            out = gaussian.interleaved(out)
    else:
        m = np.asarray(getattr(sigma, "entries", sigma), float)
        gone = {2 * j + q for j in modes for q in (0, 1)}
        out = _schur(m, [i for i in range(m.shape[-1]) if i not in gone],
                     [2 * j + (quadrature == "p") for j in modes])
    if isinstance(out, np.ndarray) and out.ndim == 2:
        cm = gaussian.CovarianceMatrix(out)
    else:
        cm = gaussian.validated(out)
    return ConditionalState(cm, tuple(modes), (quadrature,) * len(modes))


def homodyne_condition(sigma, mode: int, quadrature: str = "p") -> ConditionalState:
    """Condition a CovarianceMatrix, each matrix of a (..., 2N, 2N) stack or an
    XPBlocks on an ideal homodyne detection of one quadrature of one mode: the
    rank-1 Schur complement A - c c^T / B_qq."""
    n_modes = _n_modes(sigma)
    if n_modes < 2:
        raise ValueError("need at least two modes to condition")
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return _condition(sigma, (mode,), quadrature)


def localize(sigma, keep: tuple[int, int] = (0, 1)) -> ConditionalState:
    """Momentum-detect every mode except the kept pair, in one Schur complement
    against their p block, on a CovarianceMatrix, each matrix of a (..., 2N, 2N)
    stack or an XPBlocks; ``measured_modes`` lists them in descending order.
    """
    n_modes = _n_modes(sigma)
    k, l = keep
    if k == l or not (0 <= k < n_modes and 0 <= l < n_modes):
        raise ValueError(f"invalid kept pair {keep} for {n_modes} modes")
    if n_modes < 3:
        raise ValueError("localization needs at least three modes")
    measured = sorted(set(range(n_modes)) - {k, l}, reverse=True)
    return _condition(sigma, tuple(measured), "p")


def localizable_eta(spec: ResourceSpec) -> float:
    """Closed form of ``eta_two_mode(localize(build_resource(spec), keep).cm)`` at any keep.

    Detecting p on the other N - 2 modes takes the Schur complement of the
    b I + c J p block.  For (q_k -+ q_l)/sqrt(2) the kept pair has x variances
    v2x and (2 v1x + (N-2) v2x)/N, p variances v2p and
    N v1p v2p / (2 v2p + (N-2) v1p); time reversal swaps the p variances, so
    eta^2 is the smaller cross product: eta_N^2 at every d (N = 2: no detection).
    """
    N = spec.N
    v1x, v2x, v1p, v2p = spec.variances
    x_sum_p_diff = (2.0 * v1x + (N - 2) * v2x) / N * v2p
    if math.isinf(x_sum_p_diff):  # ~ e^{4 rbar}; the other product has underflowed
        raise OverflowError(f"localized eta overflows e^(4 rbar) at rbar = {spec.rbar}")
    x_diff_p_sum = (v2x * v2p) * N * v1p / (2.0 * v2p + (N - 2) * v1p)
    return math.sqrt(min(x_sum_p_diff, x_diff_p_sum))


def localizable_report(spec: ResourceSpec, base: float = 2.0) -> dict:
    """Localized vs closed-form summary for one resource class."""
    eta_n = eta_generalized(spec)
    eta_loc = localizable_eta(spec)  # the same for every bias d
    return {
        "eta_N": eta_n,
        "eta_localized": eta_loc,
        "d_opt": spec.iso.d_opt,
        "E_T": entanglement_of_teleportation(eta_n),
        "E_F_loc": eof_symmetric(eta_loc, base),
        "deviation": abs(eta_loc - eta_n),
    }
