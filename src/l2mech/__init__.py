"""Calibration, sampling and verification for the l2 noise mechanism.

The mechanism adds noise with density proportional to
exp(-||y||_2 / sigma) to a vector statistic with bounded l2
sensitivity.  This package certifies (epsilon, delta) privacy for a
given sigma, searches for the smallest certified sigma, samples the
mechanism exactly (serially or via a coordinate-parallel
decomposition), tabulates closed-form error against Laplace and
Gaussian baselines, and cross-checks the certificates by Monte Carlo.
"""

from .calibrate import (
    CalibrationResult,
    MECHANISMS,
    PrivacyParams,
    calibrate_gaussian,
    calibrate_l2,
    gaussian_dp_lhs,
    laplace_sigma,
    laplace_sigma_lower_bound,
)
from .capgeom import LossGeometry, cap_fraction, height_H, height_h, radial_cdf
from .errormodel import (
    ErrorRow,
    comparison_table,
    mse_gaussian,
    mse_laplace,
    mse_lp_mechanism,
    table_to_csv,
    table_to_json,
)
from .lossbounds import (
    BoundReport,
    GridDomainError,
    check_approx_dp,
)
from .mcverify import EmpiricalPrivacyEstimate, empirical_lhs, empirical_min_sigma
from .sampler import (
    ParallelTrace,
    RngState,
    SampleBatch,
    draw_batch,
    sample_gaussian,
    sample_l2,
    sample_l2_parallel,
    sample_laplace,
    sample_unit_ball,
)
from .specfun import (
    ConvergenceError,
    SpecFunResult,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    reg_inc_beta,
    reg_inc_beta_result,
    reg_lower_gamma,
    reg_lower_gamma_result,
    reg_upper_gamma,
    reg_upper_gamma_result,
    std_normal_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CalibrationResult",
    "ConvergenceError",
    "EmpiricalPrivacyEstimate",
    "ErrorRow",
    "GridDomainError",
    "LossGeometry",
    "MECHANISMS",
    "ParallelTrace",
    "PrivacyParams",
    "RngState",
    "SampleBatch",
    "SpecFunResult",
    "calibrate_gaussian",
    "calibrate_l2",
    "cap_fraction",
    "check_approx_dp",
    "comparison_table",
    "draw_batch",
    "empirical_lhs",
    "empirical_min_sigma",
    "gaussian_dp_lhs",
    "height_H",
    "height_h",
    "inv_reg_lower_gamma",
    "inv_reg_upper_gamma",
    "laplace_sigma",
    "laplace_sigma_lower_bound",
    "mse_gaussian",
    "mse_laplace",
    "mse_lp_mechanism",
    "radial_cdf",
    "reg_inc_beta",
    "reg_inc_beta_result",
    "reg_lower_gamma",
    "reg_lower_gamma_result",
    "reg_upper_gamma",
    "reg_upper_gamma_result",
    "sample_gaussian",
    "sample_l2",
    "sample_l2_parallel",
    "sample_laplace",
    "sample_unit_ball",
    "std_normal_cdf",
    "table_to_csv",
    "table_to_json",
]
