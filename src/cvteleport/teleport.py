"""Teleportation-network fidelities for coherent-state inputs.

Two independent routes to the same numbers:

* the general path -- quadratic forms of x_rel = x_k - x_l on sigma_x and
  p_tot = p_k + p_l + g * sum_{j != k,l} p_j on sigma_p, for any covariance matrix
* closed forms on the structured symmetric resource (four input variances,
  ``structured.network_variances``), used by ``fidelity_network`` and
  cross-checked against the general path in the test suite

The coherent-alphabet-averaged fidelity is
F = [((var_x_rel + 2)(var_p_tot + 2)) / 4]^{-1/2}; the +2 combines the unit
input variance with the unit vacuum contribution of the output mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .structured import ResourceSpec, fidelity_from_variances, network_variances

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix

OPTIMAL = "optimal"


@dataclass(frozen=True)
class ProtocolParams:
    """Sender/receiver mode choice and feed-forward gain.

    gain may be any real, or the string "optimal" to use the closed-form
    optimal gain (for N = 2 the gain is inert and reported as 1).
    """

    sender: int = 0
    receiver: int = 1
    gain: float | str = OPTIMAL

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must be distinct modes")
        if isinstance(self.gain, str) and self.gain != OPTIMAL:
            raise ValueError(f"gain must be a real number or 'optimal', got {self.gain!r}")
        if not isinstance(self.gain, str) and not math.isfinite(self.gain):
            raise ValueError(f"gain must be finite, got {self.gain}")


@dataclass(frozen=True)
class TeleportOutcome:
    var_x_rel: float
    var_p_tot: float
    gain_used: float
    fidelity: float


def teleported_variances(
    sigma: CovarianceMatrix, sender: int, receiver: int, gain: float
) -> tuple[float, float]:
    """Variances of x_rel and p_tot as quadratic forms on the resource CM; on a
    validated (k, 2N, 2N) stack of entries or an XPBlocks of (k, N, N) blocks
    (``gaussian.validated``), arrays of k.  x_rel has no p entries and p_tot no x
    entries, so for any state they read sigma_x and sigma_p only."""
    import numpy as np

    from .gaussian import quadrature_blocks

    b = quadrature_blocks(sigma)
    N = b.n_modes
    if not (0 <= sender < N and 0 <= receiver < N) or sender == receiver:
        raise ValueError(f"invalid sender/receiver pair ({sender}, {receiver}) for {N} modes")
    if not math.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    w = np.zeros((2, N))  # x_rel's weights on sigma_x, p_tot's on sigma_p
    w[0, sender], w[0, receiver] = 1.0, -1.0
    w[1] = gain
    w[1, sender] = w[1, receiver] = 1.0
    # explicit sums: a BLAS matrix-vector product rounds by the blocks' memory alignment
    var_x, var_p = np.einsum("q...ij,qi,qj->q...", b.xp, w, w)
    return (float(var_x), float(var_p)) if b.x.ndim == 2 else (var_x, var_p)


def _checked_gain(spec: ResourceSpec, params: ProtocolParams) -> float:
    """The gain of params, after checking its sender/receiver pair against the
    resource's modes; "optimal" is g_N_opt (1 at N = 2, where it is inert)."""
    if not (0 <= params.sender < spec.N and 0 <= params.receiver < spec.N):
        raise ValueError(f"invalid sender/receiver pair for {spec.N} modes: {params}")
    if params.gain == OPTIMAL:
        return spec.iso.gain
    return float(params.gain)


def fidelity_network(spec: ResourceSpec, params: ProtocolParams | None = None) -> TeleportOutcome:
    """Teleportation fidelity of the resource from its input variances; the
    dense equivalent is ``teleported_variances(build_resource(spec), ...)``.

    With gain="optimal" the closed-form optimal gain is used; combined with
    d = d_N_opt this attains F = 1/(1 + eta_N).
    """
    gain = _checked_gain(spec, params or ProtocolParams())
    var_x, var_p = network_variances(spec.N, spec.variances, gain)
    return TeleportOutcome(var_x, var_p, gain, fidelity_from_variances(var_x, var_p))
