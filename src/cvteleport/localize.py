"""Homodyne conditioning and localizable entanglement.

Measuring one quadrature on each of a set of modes updates the covariance
matrix of the remaining modes by a Schur complement that is independent of
the measurement outcomes.  Conditioning away all but two modes of the symmetric
resource "localizes" the multipartite entanglement into a two-mode state whose
PPT eigenvalue equals the generalized eigenvalue eta_N.  ``homodyne_condition``
and ``localize`` act on any covariance matrix, or on a (..., 2N, 2N) stack with
one batched solve and one validation; ``localizable_eta`` is their closed form
on the structured symmetric resource.
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
    """Post-measurement state of the unmeasured modes: a CovarianceMatrix, or for a
    (..., 2N, 2N) stack the validated stack of conditioned entries.

    measured_modes are indices of the *original* state, in measurement order;
    quadratures holds the matching 'x'/'p' labels.
    """

    cm: CovarianceMatrix
    measured_modes: tuple[int, ...]
    quadratures: tuple[str, ...]


def _n_modes(sigma) -> int:
    return getattr(sigma, "entries", sigma).shape[-1] // 2


def _condition(sigma, modes: tuple, quadrature: str) -> ConditionalState:
    """Condition on ideal homodyne detection of one quadrature on each of ``modes``.

    With sigma partitioned into the unmeasured modes' block A, the measured
    quadratures' block B and their correlations C, the output is the Schur
    complement A - C B^-1 C^T, independent of the outcomes; one batched solve
    and one validation serve a whole stack.
    """
    import numpy as np

    from . import gaussian

    m = np.asarray(getattr(sigma, "entries", sigma), float)
    measured = [2 * j + (quadrature == "p") for j in modes]
    gone = {2 * j + q for j in modes for q in (0, 1)}
    keep = [i for i in range(m.shape[-1]) if i not in gone]
    A, B, C = (m[(..., *np.ix_(rows, cols))]
               for rows, cols in ((keep, keep), (measured, measured), (keep, measured)))
    out = A - C @ np.linalg.solve(B, np.swapaxes(C, -1, -2))
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    cm = gaussian.CovarianceMatrix(out) if out.ndim == 2 else gaussian.validated(out)
    return ConditionalState(cm, tuple(modes), (quadrature,) * len(modes))


def homodyne_condition(sigma, mode: int, quadrature: str = "p") -> ConditionalState:
    """Condition a CovarianceMatrix, or each matrix of a (..., 2N, 2N) stack, on an
    ideal homodyne detection of one quadrature of one mode: the rank-1 Schur
    complement A - c c^T / B_qq."""
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
    against their p block, on a CovarianceMatrix or each matrix of a (..., 2N, 2N)
    stack; ``measured_modes`` lists them in descending order.
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
