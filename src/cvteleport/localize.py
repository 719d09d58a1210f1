"""Homodyne conditioning and localizable entanglement.

Measuring one quadrature on each of a set of modes updates the covariance
matrix of the remaining modes by a Schur complement that is independent of
the measurement outcomes.  Conditioning away all but two modes of the symmetric
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


def _condition(sigma: CovarianceMatrix, modes: tuple, quadrature: str) -> ConditionalState:
    """Condition on ideal homodyne detection of one quadrature on each of ``modes``.

    With sigma partitioned into the unmeasured modes' block A, the measured
    quadratures' block B and their correlations C, the output is the Schur
    complement A - C B^-1 C^T, independent of the outcomes; it is validated once.
    """
    measured = [2 * j + (quadrature == "p") for j in modes]
    gone = {2 * j + q for j in modes for q in (0, 1)}
    keep = [i for i in range(2 * sigma.n_modes) if i not in gone]
    m = sigma.entries
    c = m[np.ix_(keep, measured)]
    out = m[np.ix_(keep, keep)] - c @ np.linalg.solve(m[np.ix_(measured, measured)], c.T)
    return ConditionalState(CovarianceMatrix(0.5 * (out + out.T)), tuple(modes),
                            (quadrature,) * len(modes))


def homodyne_condition(sigma: CovarianceMatrix, mode: int, quadrature: str = "p") -> ConditionalState:
    """Condition on an ideal homodyne detection of one quadrature of one mode:
    the rank-1 Schur complement A - c c^T / B_qq."""
    if sigma.n_modes < 2:
        raise ValueError("need at least two modes to condition")
    if not 0 <= mode < sigma.n_modes:
        raise ValueError(f"mode {mode} out of range for {sigma.n_modes} modes")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return _condition(sigma, (mode,), quadrature)


def localize(sigma: CovarianceMatrix, keep: tuple[int, int] = (0, 1)) -> ConditionalState:
    """Momentum-detect every mode except the kept pair, in one Schur complement
    against their p block; ``measured_modes`` lists them in descending order.
    """
    k, l = keep
    if k == l or not (0 <= k < sigma.n_modes and 0 <= l < sigma.n_modes):
        raise ValueError(f"invalid kept pair {keep} for {sigma.n_modes} modes")
    if sigma.n_modes < 3:
        raise ValueError("localization needs at least three modes")
    measured = sorted(set(range(sigma.n_modes)) - {k, l}, reverse=True)
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
