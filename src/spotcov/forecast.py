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
Every sequence of covariance matrices is one (..., d, d) array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState, check_count
# kcv is no longer called here; the benchmark's traced run wraps the name
# spotcov.forecast.kcv, so it stays importable.
from .estimators import GridTargets, kcv, spot_covariance_path  # noqa: F401
from .kernels import KernelSpec
from .simulate import SimOutput
from .timeseries import (
    CovMatrix,
    PricePath,
    TimeGrid,
    _is_psd,
    cov_entries,
    log_returns,
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

    def index_of(self, date):
        """Row index of a date, or an array of row indices for an array of dates."""
        idx = np.asarray(date, dtype=int) - int(self.dates[0])
        if np.any((idx < 0) | (idx >= len(self))):
            raise InvalidArgument(f"date {date} outside series range")
        return int(idx) if idx.ndim == 0 else idx


def _steps_per_day(grid: TimeGrid, days: int) -> int:
    """Grid steps per day, when the days split the grid's steps evenly."""
    if days < 1 or grid.n % days != 0:
        raise InvalidArgument(
            f"day boundaries not aligned to grid: {grid.n} increments over {days} days"
        )
    return grid.n // days


def daily_cov_series(
    prices: PricePath,
    days: int,
    method: str = REALIZED,
    spec: KernelSpec | None = None,
    h: float | None = None,
) -> np.ndarray:
    """One covariance measure per whole day of the price path, as a
    (days, d, d) array.

    ``realized-cov`` sums increment outer products within each day;
    ``kernel-cov`` evaluates the kernel estimator path at the day
    midpoints (weights over the kernel's support, not only the day) and
    scales by the day length, so both measures target the same daily
    integrated covariance.
    """
    n_day = _steps_per_day(prices.grid, days)
    inc = log_returns(prices)
    if method == REALIZED:
        chunks = inc.values.reshape(days, n_day, prices.d)
        return np.einsum("tik,til->tkl", chunks, chunks)
    if method == KERNEL:
        if spec is None or h is None:
            raise InvalidArgument("kernel-cov needs a kernel spec and bandwidth")
        # day midpoints as grid positions; an odd day length puts them on
        # the grid of half steps
        stride = 1 + n_day % 2
        midpoints = (2 * np.arange(days) + 1) * (n_day * stride // 2)
        path = spot_covariance_path(inc, spec, h, GridTargets(midpoints, stride))
        return path.values * (prices.grid.T / days)
    raise InvalidArgument(f"unknown daily measure {method!r}")


def chol_vech(m: CovMatrix | np.ndarray) -> np.ndarray:
    """Half-vectorized Cholesky factor with nonnegative diagonal: shape (q,)
    for one matrix, (..., q) for a (..., d, d) stack, q = d(d+1)/2.

    One Cholesky runs over the whole stack; only if it fails is each matrix
    factored alone, a near-singular one with a one-shot diagonal jitter of
    1e-12 * trace (logged).  Indefinite inputs beyond the slack are rejected.
    """
    entries = cov_entries(m)
    if not _is_psd(entries).all():
        raise InvalidArgument("matrix is not positive semidefinite within tolerance")
    try:
        c = np.linalg.cholesky(entries)
    except np.linalg.LinAlgError:
        c = np.empty_like(entries)
        for j in np.ndindex(entries.shape[:-2]):
            try:
                c[j] = np.linalg.cholesky(entries[j])
            except np.linalg.LinAlgError:
                jitter = 1e-12 * max(float(np.trace(entries[j])), 1e-300)
                logger.info("cholesky needed diagonal jitter %.3e", jitter)
                c[j] = np.linalg.cholesky(entries[j] + jitter * np.eye(entries.shape[-1]))
    rows, cols = vech_indices(entries.shape[-1])
    return c[..., rows, cols]


def factor_series(mats, source: str, first_date: int = 1) -> FactorSeries:
    """Build the factor series from a (D, d, d) array of daily covariance matrices."""
    factors = chol_vech(mats)
    dates = np.arange(first_date, first_date + factors.shape[0])
    return FactorSeries(dates=dates, factors=factors, source=source)


def _trailing(f: np.ndarray, ends, k: int) -> np.ndarray:
    """The k rows of f ending at each row index in ``ends`` (inclusive):
    shape ends.shape + (k, q)."""
    return f[np.asarray(ends)[..., None] + np.arange(1 - k, 1)]


def _lags(window: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Daily, weekly and monthly regressors of (..., MONTH_LAG, q) windows."""
    return window[..., -1, :], window[..., -WEEK_LAG:, :].mean(axis=-2), window.mean(axis=-2)


def horizon_average(series: FactorSeries, k: int, t) -> np.ndarray:
    """Mean of the k daily factors ending at date t (inclusive): shape (q,)
    for one date, (O, q) for an array of O dates."""
    check_count(k, "horizon length")
    idx = series.index_of(t)
    if np.any(idx - k + 1 < 0):
        raise InvalidArgument(f"insufficient history: need {k} days ending at {t}")
    return _trailing(series.factors, idx, k).mean(axis=-2)


@dataclass(frozen=True)
class VharModel:
    """Pooled least-squares fit: per-component intercepts, shared scalar
    daily/weekly/monthly lag coefficients."""

    alpha: np.ndarray = field(repr=False)
    beta_d: float = 0.0
    beta_w: float = 0.0
    beta_m: float = 0.0

    def step(self, last: np.ndarray, week: np.ndarray, month: np.ndarray) -> np.ndarray:
        return self.alpha + self.beta_d * last + self.beta_w * week + self.beta_m * month


def _design(series: FactorSeries) -> tuple[np.ndarray, np.ndarray]:
    """Stacked regression arrays (X, y) pooling all factor components."""
    f = series.factors
    D, q = f.shape
    if D < MONTH_LAG + 2:
        raise InvalidArgument(
            f"insufficient history: need at least {MONTH_LAG + 2} days, got {D}"
        )
    origins = np.arange(MONTH_LAG - 1, D - 1)  # 0-based day indices with full lags
    m = origins.size
    # row j*m + i: component j at origin i, its intercept, then its three lags
    lags = np.stack(_lags(_trailing(f, origins, MONTH_LAG)), axis=-1)
    lags = lags.transpose(1, 0, 2).reshape(m * q, 3)
    X = np.hstack([np.repeat(np.eye(q), m, axis=0), lags])
    return X, f[origins + 1].T.ravel()


def fit_vhar(series: FactorSeries) -> VharModel:
    """Least-squares fit of the pooled lag regression.

    Raises InvalidState with a conditioning diagnostic when the stacked
    design is rank deficient (e.g. constant factor series).
    """
    X, y = _design(series)
    q = series.factors.shape[1]
    coef, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < q + 3:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise InvalidState(
            f"rank-deficient design (rank {rank} < {q + 3}, condition {cond:.3e})"
        )
    return VharModel(
        alpha=coef[:q],
        beta_d=float(coef[q]),
        beta_w=float(coef[q + 1]),
        beta_m=float(coef[q + 2]),
    )


def forecast_vhar(
    model: VharModel, series: FactorSeries, horizon: int, origin=None
) -> np.ndarray:
    """Covariance forecast ``horizon`` days past the origin date: a d x d
    matrix for one date (default: the last), (O, d, d) for O dates.

    One-step predictions are iterated on the (O, MONTH_LAG, q) trailing
    windows, feeding each predicted factor back as a pseudo-observation;
    the horizon-end factor is mapped back through the Cholesky
    reconstruction, so every forecast is positive semidefinite by construction.
    """
    check_count(horizon, "horizon")
    idx = len(series) - 1 if origin is None else series.index_of(origin)
    if np.any(idx + 1 < MONTH_LAG):
        raise InvalidArgument(
            f"insufficient history: need {MONTH_LAG} days before forecasting"
        )
    window = _trailing(series.factors, idx, MONTH_LAG)
    for _ in range(horizon):
        pred = model.step(*_lags(window))
        window = np.concatenate([window[..., 1:, :], pred[..., None, :]], axis=-2)
    c = unvech_lower(pred)
    return c @ np.swapaxes(c, -1, -2)


def _entries(truth, forecast) -> tuple[np.ndarray, np.ndarray]:
    t, f = cov_entries(truth), cov_entries(forecast)
    if t.shape[-1] != f.shape[-1]:
        raise InvalidArgument("dimension mismatch between truth and forecast")
    return t, f


def loss_euclidean(truth, forecast):
    """Squared Euclidean norm of the vech of the error, one value per (..., d, d) matrix."""
    t, f = _entries(truth, forecast)
    rows, cols = vech_indices(t.shape[-1])
    e = (t - f)[..., rows, cols]
    return np.vecdot(e, e)


def loss_frobenius(truth, forecast):
    """Squared Frobenius norm of the error (off-diagonals count twice), one per matrix."""
    t, f = _entries(truth, forecast)
    e = t - f
    return np.sum(e * e, axis=(-2, -1))


def loss_qlike(truth, forecast):
    """Scale-invariant quasi-likelihood loss log|H| + tr(H^-1 S), one value
    per matrix of (..., d, d) truths S and forecasts H.

    Minimized over forecasts H at H = S with value log|S| + d.
    """
    t, f = _entries(truth, forecast)
    sign, logdet = np.linalg.slogdet(f)
    if np.any(sign <= 0):
        raise InvalidArgument("quasi-likelihood loss needs a positive definite forecast")
    return logdet + np.trace(np.linalg.solve(f, t), axis1=-2, axis2=-1)


@dataclass(frozen=True)
class LossReport:
    """Average out-of-sample losses per model and horizon, plus the fits
    and, in ``series``, each model's full daily factor series (train and test)."""

    losses: dict = field(repr=False)  # (model, horizon, loss_name) -> float
    models: dict = field(repr=False)  # model name -> VharModel
    horizons: tuple[int, ...] = (1, 5, 22)
    series: dict = field(repr=False, default_factory=dict)  # model name -> FactorSeries

    def value(self, model: str, horizon: int, loss_name: str) -> float:
        return self.losses[(model, horizon, loss_name)]


def true_daily_integrated_cov(sim: SimOutput, days: int) -> np.ndarray:
    """Trapezoid integral of the simulated spot covariance over each day,
    as a (days, d, d) array."""
    grid = sim.prices.grid
    n_day = _steps_per_day(grid, days)
    segments = np.arange(days)[:, None] * n_day + np.arange(n_day + 1)
    return np.trapezoid(sim.true_cov.values[segments], dx=grid.delta, axis=1)


def train_span(days: int, split: float, horizons) -> int:
    """Training days of a comparison over ``days`` days; rejects a split,
    a history or forecast horizons the comparison cannot use."""
    if not (0.0 < split < 1.0):
        raise InvalidArgument(f"split fraction must be in (0, 1), got {split}")
    if not horizons or min(horizons) < 1:
        raise InvalidArgument(f"horizons must be positive day counts, got {list(horizons)}")
    if len(set(horizons)) != len(horizons):
        raise InvalidArgument(f"horizons must not repeat, got {list(horizons)}")
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
    return train_days


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
    train_days = train_span(days, split, horizons)
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
        try:
            model = fit_vhar(train)
        except InvalidState as e:
            measure = f" ({spec.name} kernel, bandwidth {h!r})" if s.source == KERNEL else ""
            raise InvalidState(f"{name}{measure}: {e}") from None
        models[name] = model
        for k in horizons:
            origins = np.arange(train_days, days - k + 1)  # 1-based origin dates
            fc = forecast_vhar(model, s, k, origin=origins)
            target = truth[origins + k - 1]  # day t+k; truth rows are 0-based
            for ln, loss in zip(LOSS_NAMES, (loss_euclidean, loss_frobenius, loss_qlike)):
                # the mean keeps a running total's left-to-right summation order
                losses[(name, k, ln)] = float(np.cumsum(loss(target, fc))[-1] / origins.size)
    return LossReport(
        losses=losses,
        models=models,
        horizons=tuple(horizons),
        series=series,
    )
