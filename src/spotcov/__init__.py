"""Spot covariance estimation from high-frequency data.

Kernel-weighted and jump-robust threshold-kernel covariance estimators,
confidence machinery from their central limit theory, a seeded bivariate
stochastic volatility simulator, a Monte Carlo evaluation harness, and a
covariance forecasting pipeline built on Cholesky-factor autoregressions.
"""

from .bandwidth import BandwidthGrid, CvResult, cv_bandwidth, default_window, ise
from .errors import CsvFormatError, InvalidArgument, InvalidState, SpotcovError
from .estimators import (
    GridTargets,
    OmegaArray,
    ThresholdSpec,
    WeightPlan,
    asymptotic_band,
    calibrated_threshold,
    default_threshold,
    kcv,
    omega,
    spot_covariance_path,
    standardized_errors,
    tkcv,
    validate_threshold_rate,
)
from .forecast import (
    FactorSeries,
    LossReport,
    VharModel,
    chol_vech,
    compare_models,
    daily_cov_series,
    factor_series,
    fit_vhar,
    forecast_vhar,
    horizon_average,
    loss_euclidean,
    loss_frobenius,
    loss_qlike,
    true_daily_integrated_cov,
)
from .kernels import (
    KernelSpec,
    eval_kernel,
    eval_scaled,
    kernel_by_name,
    kernel_l2_norm,
    uniform_kernel,
)
from .mc import McCell, McConfig, McReport, QqData, imse, isb, qq_data, run_mc_study
from .simulate import (
    CirParams,
    HestonConfig,
    JumpConfig,
    SimOutput,
    simulate_bates2d,
    simulate_cir,
    simulate_compound_poisson,
    simulate_heston2d,
)
from .timeseries import (
    CovMatrix,
    CovPath,
    IncrementSeries,
    PricePath,
    TimeGrid,
    build_uniform_grid,
    log_returns,
    unvech,
    unvech_lower,
    vech,
    vech_labels,
)

__version__ = "0.1.0"
