"""Daily covariance measures, Cholesky-factor series, the heterogeneous
autoregression over daily/weekly/monthly factor averages, and forecast
loss evaluation.

The pipeline turns intraday prices into one covariance measure per day,
maps each day's matrix to the half-vectorized Cholesky factor (so any
forecast maps back to a positive semidefinite matrix), fits a pooled
least-squares regression of tomorrow's factor on today's factor and its
5- and 22-day trailing means with scalar lag coefficients shared across
factor components, and produces multi-step forecasts by iterating the
one-step map with predicted factors fed back as pseudo-observations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState
# kcv is no longer called here; the benchmark's traced run wraps the name
# spotcov.forecast.kcv, so it stays importable.
from .estimators import kcv, spot_covariance_path  # noqa: F401
from .kernels import KernelSpec
from .simulate import SimOutput
from .timeseries import (
    CovMatrix,
    IncrementSeries,
    PricePath,
    unvech_lower,
    vech_indices,
)

logger = logging.getLogger(__name__)

WEEK_LAG = 5
MONTH_LAG = 22
REALIZED = "realized-cov"
KERNEL = "kernel-cov"
LOSS_NAMES = ("L_E", "L_F", "L_Q")


@dataclass(frozen=True)
class FactorSeries:
    """Daily Cholesky-factor vectors: row t is vech(C_t) with H_t = C_t C_t'."""

    dates: np.ndarray = field(repr=False)  # integer day labels, consecutive
    factors: np.ndarray = field(repr=False)  # (D, q)
    source: str = REALIZED

    def __post_init__(self):
        dates = np.atleast_1d(np.asarray(self.dates, dtype=int))
        factors = np.atleast_2d(np.asarray(self.factors, dtype=float))
        if dates.shape[0] != factors.shape[0]:
            raise InvalidArgument("dates and factors must have equal length")
        if dates.shape[0] >= 2 and not np.all(np.diff(dates) == 1):
            raise InvalidArgument("dates must be consecutive integers")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return self.dates.shape[0]

    def index_of(self, date: int) -> int:
        idx = int(date) - int(self.dates[0])
        if not (0 <= idx < len(self)):
            raise InvalidArgument(f"date {date} outside series range")
        return idx


def daily_cov_series(
    prices: PricePath,
    days: int,
    method: str = REALIZED,
    spec: KernelSpec | None = None,
    h: float | None = None,
) -> list[CovMatrix]:
    """One covariance measure per whole day of the price path.

    ``realized-cov`` sums increment outer products within each day;
    ``kernel-cov`` evaluates the kernel estimator path at the day
    midpoints (weights over the full sample) and scales by the day length,
    so both measures target the same daily integrated covariance.
    """
    n = prices.grid.n
    if days < 1 or n % days != 0:
        raise InvalidArgument(
            f"day boundaries not aligned to grid: {n} increments over {days} days"
        )
    day_len = prices.grid.T / days
    n_day = n // days
    dx = np.diff(prices.values, axis=0)
    if method == REALIZED:
        chunks = dx.reshape(days, n_day, prices.d)
        mats = np.einsum("tik,til->tkl", chunks, chunks)
        return [CovMatrix(entries=m) for m in mats]
    if method == KERNEL:
        if spec is None or h is None:
            raise InvalidArgument("kernel-cov needs a kernel spec and bandwidth")
        inc = IncrementSeries(grid=prices.grid, values=dx)
        taus = (np.arange(days) + 0.5) * day_len
        path = spot_covariance_path(inc, spec, h, taus)
        return [CovMatrix(entries=m * day_len) for m in path.values]
    raise InvalidArgument(f"unknown daily measure {method!r}")


def chol_vech(m: CovMatrix) -> np.ndarray:
    """Half-vectorized Cholesky factor with nonnegative diagonal.

    Near-singular inputs get a one-shot diagonal jitter of 1e-12 * trace
    (logged); inputs indefinite beyond the usual slack are rejected.
    """
    if not isinstance(m, CovMatrix):
        m = CovMatrix(entries=m)
    if not m.is_psd():
        raise InvalidArgument("matrix is not positive semidefinite within tolerance")
    entries = m.entries
    try:
        c = np.linalg.cholesky(entries)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * max(float(np.trace(entries)), 1e-300)
        logger.info("cholesky needed diagonal jitter %.3e", jitter)
        c = np.linalg.cholesky(entries + jitter * np.eye(m.d))
    rows, cols = vech_indices(m.d)
    return c[rows, cols].copy()


def factor_series(
    mats, source: str, first_date: int = 1
) -> FactorSeries:
    """Build the factor series from a list of daily covariance matrices."""
    factors = np.stack([chol_vech(m) for m in mats])
    dates = np.arange(first_date, first_date + len(mats))
    return FactorSeries(dates=dates, factors=factors, source=source)


def horizon_average(series: FactorSeries, k: int, t: int) -> np.ndarray:
    """Mean of the k daily factors ending at date t (inclusive)."""
    if k < 1:
        raise InvalidArgument(f"horizon length must be positive, got {k}")
    idx = series.index_of(t)
    if idx - k + 1 < 0:
        raise InvalidArgument(f"insufficient history: need {k} days ending at {t}")
    return series.factors[idx - k + 1 : idx + 1].mean(axis=0)


@dataclass(frozen=True)
class VharModel:
    """Pooled least-squares fit: per-component intercepts, shared scalar
    daily/weekly/monthly lag coefficients."""

    alpha: np.ndarray = field(repr=False)
    beta_d: float = 0.0
    beta_w: float = 0.0
    beta_m: float = 0.0
    resid_std: float = 0.0
    nobs: int = 0

    @property
    def q(self) -> int:
        return self.alpha.shape[0]

    def step(self, last: np.ndarray, week: np.ndarray, month: np.ndarray) -> np.ndarray:
        return self.alpha + self.beta_d * last + self.beta_w * week + self.beta_m * month


def _design(series: FactorSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """Stacked regression arrays (X, y) pooling all factor components."""
    f = series.factors
    D, q = f.shape
    if D < MONTH_LAG + 2:
        raise InvalidArgument(
            f"insufficient history: need at least {MONTH_LAG + 2} days, got {D}"
        )
    origins = np.arange(MONTH_LAG - 1, D - 1)  # 0-based day indices with full lags
    m = origins.size
    lag_d = f[origins]
    lag_w = np.stack([f[t - WEEK_LAG + 1 : t + 1].mean(axis=0) for t in origins])
    lag_m = np.stack([f[t - MONTH_LAG + 1 : t + 1].mean(axis=0) for t in origins])
    target = f[origins + 1]

    X = np.zeros((m * q, q + 3))
    y = np.empty(m * q)
    for j in range(q):
        rows = slice(j * m, (j + 1) * m)
        X[rows, j] = 1.0
        X[rows, q + 0] = lag_d[:, j]
        X[rows, q + 1] = lag_w[:, j]
        X[rows, q + 2] = lag_m[:, j]
        y[rows] = target[:, j]
    return X, y, m


def fit_vhar(series: FactorSeries) -> VharModel:
    """Least-squares fit of the pooled lag regression.

    Raises InvalidState with a conditioning diagnostic when the stacked
    design is rank deficient (e.g. constant factor series).
    """
    X, y, _ = _design(series)
    q = series.factors.shape[1]
    coef, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < q + 3:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise InvalidState(
            f"rank-deficient design (rank {rank} < {q + 3}, condition {cond:.3e})"
        )
    resid = y - X @ coef
    return VharModel(
        alpha=coef[:q],
        beta_d=float(coef[q]),
        beta_w=float(coef[q + 1]),
        beta_m=float(coef[q + 2]),
        resid_std=float(np.std(resid)),
        nobs=y.shape[0],
    )


def forecast_vhar(
    model: VharModel, series: FactorSeries, horizon: int, origin: int | None = None
) -> CovMatrix:
    """Covariance forecast ``horizon`` days past the origin date.

    One-step predictions are iterated, feeding each predicted factor back
    as a pseudo-observation; the horizon-end factor is mapped back through
    the Cholesky reconstruction, so the forecast matrix is positive
    semidefinite by construction.
    """
    if horizon < 1:
        raise InvalidArgument(f"horizon must be positive, got {horizon}")
    idx = len(series) - 1 if origin is None else series.index_of(origin)
    if idx + 1 < MONTH_LAG:
        raise InvalidArgument(
            f"insufficient history: need {MONTH_LAG} days before forecasting"
        )
    hist = series.factors[: idx + 1]
    buf = list(hist[-MONTH_LAG:])
    pred = None
    for _ in range(horizon):
        arr = np.stack(buf[-MONTH_LAG:])
        pred = model.step(
            arr[-1], arr[-WEEK_LAG:].mean(axis=0), arr.mean(axis=0)
        )
        buf.append(pred)
    c = unvech_lower(pred)
    return CovMatrix(entries=c @ c.T)


def loss_euclidean(truth: CovMatrix, forecast: CovMatrix) -> float:
    """Squared Euclidean norm of the vech of the error matrix."""
    if truth.d != forecast.d:
        raise InvalidArgument("dimension mismatch between truth and forecast")
    rows, cols = vech_indices(truth.d)
    e = (truth.entries - forecast.entries)[rows, cols]
    return float(e @ e)


def loss_frobenius(truth: CovMatrix, forecast: CovMatrix) -> float:
    """Squared Frobenius norm of the error matrix (off-diagonals count twice)."""
    if truth.d != forecast.d:
        raise InvalidArgument("dimension mismatch between truth and forecast")
    e = truth.entries - forecast.entries
    return float(np.sum(e * e))


def loss_qlike(truth: CovMatrix, forecast: CovMatrix) -> float:
    """Scale-invariant quasi-likelihood loss log|H| + tr(H^-1 S).

    Minimized over forecasts H at H = S with value log|S| + d.
    """
    if truth.d != forecast.d:
        raise InvalidArgument("dimension mismatch between truth and forecast")
    sign, logdet = np.linalg.slogdet(forecast.entries)
    if sign <= 0:
        raise InvalidArgument("quasi-likelihood loss needs a positive definite forecast")
    trace = float(np.trace(np.linalg.solve(forecast.entries, truth.entries)))
    return float(logdet + trace)


@dataclass(frozen=True)
class LossReport:
    """Average out-of-sample losses per model and horizon, plus the fits
    and, in ``series``, each model's full daily factor series (train and test)."""

    losses: dict = field(repr=False)  # (model, horizon, loss_name) -> float
    models: dict = field(repr=False)  # model name -> VharModel
    horizons: tuple[int, ...] = (1, 5, 22)
    train_days: int = 0
    test_days: int = 0
    series: dict = field(repr=False, default_factory=dict)  # model name -> FactorSeries

    def value(self, model: str, horizon: int, loss_name: str) -> float:
        return self.losses[(model, horizon, loss_name)]


def true_daily_integrated_cov(sim: SimOutput, days: int) -> list[CovMatrix]:
    """Trapezoid integral of the simulated spot covariance over each day."""
    grid = sim.prices.grid
    if days < 1 or grid.n % days != 0:
        raise InvalidArgument("day boundaries not aligned to grid")
    n_day = grid.n // days
    vals = sim.true_cov.values
    out = []
    for t in range(days):
        seg = vals[t * n_day : (t + 1) * n_day + 1]
        out.append(CovMatrix(entries=np.trapezoid(seg, dx=grid.delta, axis=0)))
    return out


def compare_models(
    sim: SimOutput,
    days: int,
    spec: KernelSpec,
    h: float,
    split: float = 0.8,
    horizons: tuple[int, ...] = (1, 5, 22),
) -> LossReport:
    """Fit the lag regression on both daily measures and score their
    out-of-sample forecasts against the true daily integrated covariance.

    The series from realized daily sums is the benchmark ("vhar-rc"); the
    kernel-measure series is the challenger ("vhar-kcv").  Both models are
    fitted on the training span and then rolled through the test span with
    fixed coefficients; losses are averaged over forecast origins.
    """
    if not (0.0 < split < 1.0):
        raise InvalidArgument(f"split fraction must be in (0, 1), got {split}")
    train_days = int(math.floor(days * split))
    if train_days < MONTH_LAG + 2:
        raise InvalidArgument(
            f"insufficient history: train span {train_days} days is shorter than "
            f"the {MONTH_LAG + 2} days needed to fit the lag regression"
        )
    max_h = max(horizons)
    if train_days + max_h > days:
        raise InvalidArgument(
            f"test span too short for a {max_h}-day horizon forecast"
        )

    truth = true_daily_integrated_cov(sim, days)
    series = {
        "vhar-rc": factor_series(daily_cov_series(sim.prices, days, REALIZED), REALIZED),
        "vhar-kcv": factor_series(
            daily_cov_series(sim.prices, days, KERNEL, spec=spec, h=h), KERNEL
        ),
    }
    models = {}
    losses = {}
    for name, s in series.items():
        train = FactorSeries(
            dates=s.dates[:train_days], factors=s.factors[:train_days], source=s.source
        )
        model = fit_vhar(train)
        models[name] = model
        for k in horizons:
            acc = {ln: 0.0 for ln in LOSS_NAMES}
            origins = range(train_days, days - k + 1)  # 1-based origin dates
            count = 0
            for t in origins:
                fc = forecast_vhar(model, s, k, origin=t)
                target = truth[t + k - 1]  # day t+k, list is 0-based
                acc["L_E"] += loss_euclidean(target, fc)
                acc["L_F"] += loss_frobenius(target, fc)
                acc["L_Q"] += loss_qlike(target, fc)
                count += 1
            if count == 0:
                raise InvalidState(f"no valid forecast origins at horizon {k}")
            for ln in LOSS_NAMES:
                losses[(name, k, ln)] = acc[ln] / count
    return LossReport(
        losses=losses,
        models=models,
        horizons=tuple(horizons),
        train_days=train_days,
        test_days=days - train_days,
        series=series,
    )
