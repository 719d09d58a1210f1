"""Teleportation-network fidelities for coherent-state inputs.

Two independent routes to the same numbers:

* the general path -- quadratic forms of x_rel = x_k - x_l and
  p_tot = p_k + p_l + g * sum_{j != k,l} p_j on any covariance matrix
* closed forms on the structured symmetric resource (four input variances),
  used by ``fidelity_network`` and cross-checked against the general path
  in the test suite

The coherent-alphabet-averaged fidelity is
F = [((var_x_rel + 2)(var_p_tot + 2)) / 4]^{-1/2}; the +2 combines the unit
input variance with the unit vacuum contribution of the output mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix, ResourceSpec

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


def fidelity_from_variances(var_x_rel: float, var_p_tot: float) -> float:
    """Average fidelity from the teleported-mode excess variances."""
    if not (var_x_rel >= 0.0 and var_p_tot >= 0.0):
        raise ValueError(f"variances must be nonnegative, got ({var_x_rel}, {var_p_tot})")
    return ((var_x_rel + 2.0) * (var_p_tot + 2.0) / 4.0) ** -0.5


def teleported_variances(
    sigma: CovarianceMatrix, sender: int, receiver: int, gain: float
) -> tuple[float, float]:
    """Variances of x_rel and p_tot as quadratic forms on the resource CM."""
    N = sigma.n_modes
    if not (0 <= sender < N and 0 <= receiver < N) or sender == receiver:
        raise ValueError(f"invalid sender/receiver pair ({sender}, {receiver}) for {N} modes")
    u = np.zeros(2 * N)
    v = np.zeros(2 * N)
    u[2 * sender] = 1.0
    u[2 * receiver] = -1.0
    v[1::2] = gain
    v[2 * sender + 1] = 1.0
    v[2 * receiver + 1] = 1.0
    m = sigma.entries
    return float(u @ m @ u), float(v @ m @ v)


def phi_two_mode(rbar: float, d: float, n1: float, n2: float) -> float:
    """Two-mode fidelity kernel phi (fidelity = phi^{-1/2})."""
    return math.exp(-4.0 * rbar) * (math.exp(2.0 * (rbar + d)) + n1) * (
        math.exp(2.0 * (rbar - d)) + n2
    )


def network_variances(N: int, variances: tuple, g: float) -> tuple[float, float]:
    """x_rel/p_tot variances, for any sender/receiver pair, of the symmetric
    resource with input variances (v1x, v2x, v1p, v2p): var_x_rel = 2 v2x and
    var_p_tot = {[2 + (N-2) g]^2 v1p + 2 (g-1)^2 (N-2) v2p} / N.
    """
    _, v2x, v1p, v2p = variances
    return 2.0 * v2x, ((2.0 + (N - 2) * g) ** 2 * v1p + 2.0 * (g - 1.0) ** 2 * (N - 2) * v2p) / N


def variances_closed_form_network(spec: ResourceSpec, g: float) -> tuple[float, float]:
    """``network_variances`` of the resource: var_x_rel = 2 n2 e^{-2 r2} and
    var_p_tot = {[2 + (N-2) g]^2 n1 e^{-2 r1} + 2 (g-1)^2 (N-2) n2 e^{2 r2}} / N."""
    return network_variances(spec.N, spec.variances, g)


def _checked_gain(spec: ResourceSpec, params: ProtocolParams) -> float:
    """The gain of params, after checking its sender/receiver pair against the
    resource's modes; "optimal" is g_N_opt (1 at N = 2, where it is inert)."""
    from .optimize import g_N_opt  # deferred: optimize builds on this module

    if not (0 <= params.sender < spec.N and 0 <= params.receiver < spec.N):
        raise ValueError(f"invalid sender/receiver pair for {spec.N} modes: {params}")
    if params.gain == OPTIMAL:
        return 1.0 if spec.N == 2 else g_N_opt(spec.N, spec.n1, spec.n2, spec.rbar)
    return float(params.gain)


def fidelity_network(spec: ResourceSpec, params: ProtocolParams | None = None) -> TeleportOutcome:
    """Teleportation fidelity of the resource from its input variances; the
    dense equivalent is ``teleported_variances(build_resource(spec), ...)``.

    With gain="optimal" the closed-form optimal gain is used; combined with
    d = d_N_opt this attains F = 1/(1 + eta_N).
    """
    gain = _checked_gain(spec, params or ProtocolParams())
    var_x, var_p = variances_closed_form_network(spec, gain)
    return TeleportOutcome(var_x, var_p, gain, fidelity_from_variances(var_x, var_p))
