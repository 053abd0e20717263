"""Deterministic identification coding over constrained channels.

Capacity computation, codebook construction, identification decoding, and
empirical verification for discrete memoryless channels with input costs and
for the power-constrained Gaussian channel.

Set DI_CODES_THREADS before importing to pin the BLAS/OpenMP pool size: a
positive integer (capped at the usable CPUs) is forwarded to the usual knobs
if they are not already set, anything else is ignored. It also sets the
Gaussian packing's k-d-tree query threads and the Monte Carlo simulators'
workers (one when unset); results do not depend on it.
"""

import os as _os

from ._threads import env_threads as _env_threads

_threads = _env_threads()
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_threads))
del _os, _threads, _env_threads

from .acceptance import CHECKS, CheckResult, format_line, run_checks
from .capacity import (
    CapacityResult,
    ErrorExponentBounds,
    balanced_type,
    bsc_capacity_curve,
    converse_count,
    di_capacity,
    entropy_bits,
    error_exponent_bounds,
    estimate_L,
    gaussian_rate_bound,
    max_entropy_pmf,
    min_same_type_distance,
    same_type_pair,
)
from .channels import (
    Dmc,
    GaussChannel,
    ReductionMap,
    bsc,
    dmc_from_dict,
    dmc_to_dict,
    gauss_from_dict,
    gauss_to_dict,
    input_cost,
    reduce_channel,
    transmit_dmc,
    transmit_gauss,
)
from .discretize import (
    DiscretizedChannel,
    default_output_j,
    discretize_value,
    discretized_entropy,
    entropy_defect,
    gaussian_differential_entropy,
    input_pmf,
    lattice,
    to_dmc,
)
from .dmc_code import (
    ConstructionReport,
    DmcCodebook,
    build_codebook,
    codebook_from_dict,
    codebook_to_dict,
    construction_base_type,
    identify,
    same_codeword_conflict,
    simulate_errors,
    validate_codebook,
)
from .errors import (
    BudgetError,
    ConstructionError,
    DegenerateTypicalitySetError,
    DiCodesError,
    InfeasibleConstraintError,
)
from .gauss_code import (
    GaussCodebook,
    SaturationCertificate,
    build_gauss_codebook,
    chebyshev_references,
    gauss_codebook_from_dict,
    gauss_codebook_to_dict,
    gauss_identify,
    min_center_distance,
    packing_lower_bound,
    packing_radii,
    simulate_gauss_errors,
)
from .stats import SimReport, wilson_interval
from .typicality import (
    EmpiricalType,
    JointType,
    TypicalityParams,
    apportion_counts,
    binary_entropy,
    distance_threshold,
    empirical_type,
    enumerate_conditional_typical,
    hamming_distance,
    hamming_sphere_size_bound,
    hamming_sphere_size_exact,
    intersection_ratio,
    is_jointly_typical,
    joint_type,
    pairwise_hamming,
    sphere_exponent,
    type_class_size,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CHECKS",
    "CapacityResult",
    "CheckResult",
    "ConstructionError",
    "ConstructionReport",
    "DegenerateTypicalitySetError",
    "DiCodesError",
    "DiscretizedChannel",
    "Dmc",
    "DmcCodebook",
    "EmpiricalType",
    "ErrorExponentBounds",
    "GaussChannel",
    "GaussCodebook",
    "InfeasibleConstraintError",
    "JointType",
    "ReductionMap",
    "SaturationCertificate",
    "SimReport",
    "TypicalityParams",
    "apportion_counts",
    "balanced_type",
    "binary_entropy",
    "bsc",
    "bsc_capacity_curve",
    "build_codebook",
    "build_gauss_codebook",
    "chebyshev_references",
    "codebook_from_dict",
    "codebook_to_dict",
    "construction_base_type",
    "converse_count",
    "default_output_j",
    "di_capacity",
    "discretize_value",
    "discretized_entropy",
    "distance_threshold",
    "dmc_from_dict",
    "dmc_to_dict",
    "empirical_type",
    "entropy_bits",
    "entropy_defect",
    "enumerate_conditional_typical",
    "error_exponent_bounds",
    "estimate_L",
    "format_line",
    "gauss_codebook_from_dict",
    "gauss_codebook_to_dict",
    "gauss_from_dict",
    "gauss_identify",
    "gauss_to_dict",
    "gaussian_differential_entropy",
    "gaussian_rate_bound",
    "hamming_distance",
    "hamming_sphere_size_bound",
    "hamming_sphere_size_exact",
    "identify",
    "input_cost",
    "input_pmf",
    "intersection_ratio",
    "is_jointly_typical",
    "joint_type",
    "lattice",
    "max_entropy_pmf",
    "min_center_distance",
    "min_same_type_distance",
    "packing_lower_bound",
    "packing_radii",
    "pairwise_hamming",
    "reduce_channel",
    "run_checks",
    "same_codeword_conflict",
    "same_type_pair",
    "simulate_errors",
    "simulate_gauss_errors",
    "sphere_exponent",
    "to_dmc",
    "transmit_dmc",
    "transmit_gauss",
    "type_class_size",
    "validate_codebook",
    "wilson_interval",
]
