"""Two-site reduced fidelity susceptibility of the 1D transverse-field Ising chain.

Exact finite-size and thermodynamic-limit correlators, the block-diagonal
two-site reduced density matrix, the closed-form susceptibility with an
independent Uhlmann-fidelity oracle, and the scaling analysis (peak growth,
thermodynamic divergence, data collapse).
"""

from .elliptic import elliptic_e, elliptic_k
from .exact import (
    ChainSpec,
    CorrelatorSet,
    correlators_finite,
    correlators_thermo,
    momentum_grid,
)
from .rdm import ConsistencyError, TwoSiteRdm, build_rdm
from .rfs import (
    RfsValue,
    SingularBlockError,
    oracle_estimate,
    rfs_closed_form,
    rfs_oracle,
    susceptibility,
    susceptibility_slope,
    susceptibility_thermo,
    uhlmann_fidelity,
)
from .scaling import (
    LOG_SQUARED_AMPLITUDE,
    CollapseCurve,
    PeakRecord,
    PeakSearchError,
    ScalingFit,
    best_collapse_exponent,
    collapse_quality,
    data_collapse,
    find_peak,
    fit_finite_size,
    fit_sq_log_model,
    fit_thermo,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "CollapseCurve",
    "ConsistencyError",
    "CorrelatorSet",
    "LOG_SQUARED_AMPLITUDE",
    "PeakRecord",
    "PeakSearchError",
    "RfsValue",
    "ScalingFit",
    "SingularBlockError",
    "TwoSiteRdm",
    "best_collapse_exponent",
    "build_rdm",
    "collapse_quality",
    "correlators_finite",
    "correlators_thermo",
    "data_collapse",
    "elliptic_e",
    "elliptic_k",
    "find_peak",
    "fit_finite_size",
    "fit_sq_log_model",
    "fit_thermo",
    "momentum_grid",
    "oracle_estimate",
    "rfs_closed_form",
    "rfs_oracle",
    "susceptibility",
    "susceptibility_slope",
    "susceptibility_thermo",
    "uhlmann_fidelity",
]
