"""Optimal Gaussian resources for continuous-variable teleportation networks.

Covariance-matrix algebra for symmetric squeezed-thermal resources, closed-form
and pipeline teleportation fidelities, entanglement measures (formation,
teleportation, localizable, contangle), homodyne localization, and a seeded
Monte Carlo falsifier.
"""

__version__ = "0.1.0"

from .gaussian import (
    CovarianceMatrix,
    ResourceSpec,
    SymplecticTransform,
    apply,
    beam_splitter,
    block_diag_cm,
    build_resource,
    n_splitter,
    omega,
    partial_transpose,
    purity,
    squeezed_thermal_cm,
    squeezer,
    symplectic_eigenvalues,
    vacuum_cm,
)
from .structured import (
    IsoEntangledClass,
    OptimizationResult,
    WorstCase,
    fidelity_from_variances,
    input_variances,
    network_variances,
)
from .entanglement import (
    EntanglementReport,
    contangle_from_ET,
    entanglement_of_teleportation,
    entanglement_report,
    eof_localizable,
    eof_symmetric,
    eta_closed_form,
    eta_generalized,
    eta_one_vs_rest,
    eta_two_mode,
    is_entangled,
)
from .teleport import (
    ProtocolParams,
    TeleportOutcome,
    fidelity_network,
    teleported_variances,
)
from .optimize import (
    d_N_opt,
    d_unbiased,
    g_N_opt,
    golden_section,
    numerical_optimum,
    optimal_fidelity,
    worst_case,
)
from .localize import (
    ConditionalState,
    homodyne_condition,
    localizable_eta,
    localizable_report,
    localize,
)
from .mc import McConfig, McEstimate, simulate, variance_of_form
