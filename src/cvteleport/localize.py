"""Homodyne conditioning and localizable entanglement.

Measuring one quadrature of a mode updates the covariance matrix of the
remaining modes by a rank-1 Schur complement that is independent of the
measurement outcome.  Conditioning away all but two modes of the symmetric
resource "localizes" the multipartite entanglement into a two-mode state whose
PPT eigenvalue equals the generalized eigenvalue eta_N.  ``homodyne_condition``
and ``localize`` act on any covariance matrix; ``localizable_eta`` is their
closed form on the structured symmetric resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix, ResourceSpec
from .entanglement import entanglement_of_teleportation, eof_symmetric, eta_generalized
from .optimize import d_N_opt


@dataclass(frozen=True)
class ConditionalState:
    """Post-measurement state of the unmeasured modes.

    measured_modes are indices of the *original* state, in measurement order;
    quadratures holds the matching 'x'/'p' labels.
    """

    cm: CovarianceMatrix
    measured_modes: tuple[int, ...]
    quadratures: tuple[str, ...]


def homodyne_condition(sigma: CovarianceMatrix, mode: int, quadrature: str = "p") -> ConditionalState:
    """Condition on an ideal homodyne detection of one quadrature of one mode.

    With sigma partitioned into kept block A, measured-mode block B and
    correlations C, the output is A - C (Pi B Pi)^+ C^T where Pi projects on
    the measured quadrature; the pseudoinverse is the explicit rank-1 form
    Pi / B_qq.
    """
    if sigma.n_modes < 2:
        raise ValueError("need at least two modes to condition")
    if not 0 <= mode < sigma.n_modes:
        raise ValueError(f"mode {mode} out of range for {sigma.n_modes} modes")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    q = 2 * mode + (0 if quadrature == "x" else 1)
    keep = [i for i in range(2 * sigma.n_modes) if i not in (2 * mode, 2 * mode + 1)]
    m = sigma.entries
    b_qq = m[q, q]
    if b_qq <= 0.0:
        raise ArithmeticError(f"non-positive measured variance {b_qq}")
    c = m[np.ix_(keep, [q])].ravel()
    out = m[np.ix_(keep, keep)] - np.outer(c, c) / b_qq
    return ConditionalState(CovarianceMatrix(0.5 * (out + out.T)), (mode,), (quadrature,))


def localize(sigma: CovarianceMatrix, keep: tuple[int, int] = (0, 1)) -> ConditionalState:
    """Momentum-detect every mode except the kept pair.

    Conditioning operations commute, so the measurement order is irrelevant;
    modes are measured from the highest index down to keep bookkeeping simple.
    """
    k, l = keep
    if k == l or not (0 <= k < sigma.n_modes and 0 <= l < sigma.n_modes):
        raise ValueError(f"invalid kept pair {keep} for {sigma.n_modes} modes")
    if sigma.n_modes < 3:
        raise ValueError("localization needs at least three modes")
    to_measure = sorted(set(range(sigma.n_modes)) - {k, l}, reverse=True)
    state = sigma
    for mode in to_measure:  # descending, so earlier removals don't shift later indices
        state = homodyne_condition(state, mode, "p").cm
    return ConditionalState(state, tuple(to_measure), ("p",) * len(to_measure))


def localizable_eta(spec: ResourceSpec, keep: tuple[int, int] = (0, 1)) -> float:
    """Closed form of ``eta_two_mode(localize(build_resource(spec), keep).cm)``.

    Detecting p on the other N - 2 modes takes the Schur complement of the
    b I + c J p block.  For (q_k -+ q_l)/sqrt(2) the kept pair has x variances
    v2x and (2 v1x + (N-2) v2x)/N, p variances v2p and
    N v1p v2p / (2 v2p + (N-2) v1p); time reversal swaps the p variances, so
    eta^2 is the smaller cross product: eta_N^2 at every d (N = 2: no detection).
    """
    N = spec.N
    k, l = keep
    if k == l or not (0 <= k < N and 0 <= l < N):
        raise ValueError(f"invalid kept pair {keep} for {N} modes")
    v1x, v2x, v1p, v2p = spec.variances
    x_sum_p_diff = (2.0 * v1x + (N - 2) * v2x) / N * v2p
    if math.isinf(x_sum_p_diff):  # ~ e^{4 rbar}; the other product has underflowed
        raise OverflowError(f"localized eta overflows e^(4 rbar) at rbar = {spec.rbar}")
    x_diff_p_sum = (v2x * v2p) * N * v1p / (2.0 * v2p + (N - 2) * v1p)
    return math.sqrt(min(x_sum_p_diff, x_diff_p_sum))


def localizable_entanglement(spec: ResourceSpec, base: float = 2.0) -> float:
    """Maximal formation entanglement concentrable onto two modes.

    The localized eta is the same for the whole iso-entangled class
    (N, n1, n2, rbar); the d carried by the given ResourceSpec only labels a
    member of the class and does not change the answer.
    """
    return eof_symmetric(localizable_eta(spec), base)


def localizable_report(spec: ResourceSpec, base: float = 2.0) -> dict:
    """Localized vs closed-form summary for one resource class."""
    eta_n = eta_generalized(spec)
    eta_loc = localizable_eta(spec)  # the same for every bias d
    return {
        "eta_N": eta_n,
        "eta_localized": eta_loc,
        "d_opt": d_N_opt(spec.N, spec.n1, spec.n2, spec.rbar),
        "E_T": entanglement_of_teleportation(eta_n),
        "E_F_loc": eof_symmetric(eta_loc, base),
        "deviation": abs(eta_loc - eta_n),
    }
