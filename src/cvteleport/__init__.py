"""Optimal Gaussian resources for continuous-variable teleportation networks.

Covariance-matrix algebra for symmetric squeezed-thermal resources, closed-form
and pipeline teleportation fidelities, entanglement measures (formation,
teleportation, localizable, contangle), homodyne localization, and a seeded
Monte Carlo falsifier.

The closed-form modules are pure Python and imported here.  numpy loads only
with the dense covariance-matrix layer ``gaussian`` or the sampler ``mc``:
those submodules and their names resolve on first use.
"""

import importlib

__version__ = "0.1.0"

from .structured import (
    IsoEntangledClass, OptimizationResult, ResourceSpec, WorstCase, fidelity_from_variances,
    input_variances, network_variances)
from .entanglement import (
    EntanglementReport, contangle_from_ET, entanglement_of_teleportation, entanglement_report,
    eof_localizable, eof_symmetric, eta_closed_form, eta_generalized, eta_one_vs_rest,
    eta_two_mode, is_entangled)
from .teleport import ProtocolParams, TeleportOutcome, fidelity_network, teleported_variances
from .optimize import (
    d_N_opt, d_unbiased, g_N_opt, golden_section, numerical_optimum, optimal_fidelity,
    worst_case)
from .localize import (
    ConditionalState, homodyne_condition, localizable_eta, localizable_report, localize)

_NUMPY_NAMES = {
    "gaussian": ("CovarianceMatrix", "block_diag_cm", "build_resource", "omega",
                 "partial_transpose", "purity", "squeezed_thermal_cm", "symplectic_eigenvalues",
                 "vacuum_cm"),
    "mc": ("McConfig", "McEstimate", "simulate", "variance_of_form"),
}
_HOME = {name: module for module, names in _NUMPY_NAMES.items() for name in names}


def __getattr__(name):
    """The numpy-backed submodules and their names.  A name is read from its
    module on every access, never cached here, so that patching
    ``gaussian.build_resource`` also patches ``cvteleport.build_resource``."""
    if name in _NUMPY_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
