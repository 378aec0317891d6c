"""Monte Carlo harness for the estimator studies.

One volatility trajectory (and, for the jump model, one jump trajectory)
is drawn from the master seed and held fixed; each replication then draws
a fresh price path on the finest requested grid.  Coarser sampling
frequencies observe the same path at wider strides, so frequency
comparisons share identical underlying randomness.  Replications carry
seeds derived from (master seed, replication index) and results are
reduced in replication order, which makes reports independent of how many
workers computed them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtri

from .bandwidth import BandwidthGrid, cv_bandwidth
from .errors import InvalidArgument, InvalidState, SpotcovError
from .estimators import (
    ThresholdSpec,
    calibrated_threshold,
    default_threshold,
    omega,
    spot_covariance_path,
    standardized_errors,
)
from .kernels import kernel_by_name
from .rng import derive_seed
from .simulate import (
    HestonConfig,
    JumpConfig,
    diffusion_prices,
    simulate_cir,
    simulate_compound_poisson,
    true_cov_path,
)
from .timeseries import CovPath, IncrementSeries, PricePath, build_uniform_grid

THRESHOLD_DEFAULT = "default"
THRESHOLD_CALIBRATED = "calibrated"


@dataclass(frozen=True)
class McConfig:
    """Study layout: model, replications, frequencies, kernels, estimator."""

    model: str = "heston"  # heston | bates
    reps: int = 500
    frequencies: tuple[int, ...] = (576, 2880)
    kernels: tuple[str, ...] = ("gaussian",)
    estimator: str = "kcv"  # kcv | tkcv
    window: tuple[float, float] = (0.2, 1.8)
    bandwidth: float | str = 0.1  # fixed h, or "cv"
    master_seed: int = 0
    horizon: float = 2.0
    heston: HestonConfig = field(default_factory=HestonConfig)
    jumps: JumpConfig | None = None
    threshold: ThresholdSpec | str = THRESHOLD_CALIBRATED
    element: tuple[int, int] = (0, 1)
    eval_points: int = 101
    cv_candidates: tuple[float, ...] | None = None
    n_workers: int = 1

    def __post_init__(self):
        if self.model not in ("heston", "bates"):
            raise InvalidArgument(f"model must be 'heston' or 'bates', got {self.model!r}")
        if self.reps < 2:
            raise InvalidArgument(f"need at least 2 replications, got {self.reps}")
        if not self.frequencies:
            raise InvalidArgument("frequencies must be nonempty")
        n_max = max(self.frequencies)
        for n in self.frequencies:
            if n < 2 or n_max % n != 0:
                raise InvalidArgument(
                    f"every frequency must divide the finest one ({n_max}); got {n}"
                )
        if not self.kernels:
            raise InvalidArgument("kernels must be nonempty")
        for name in self.kernels:
            kernel_by_name(name)
        if self.estimator not in ("kcv", "tkcv"):
            raise InvalidArgument(f"estimator must be 'kcv' or 'tkcv', got {self.estimator!r}")
        t_l, t_u = self.window
        if not (0.0 < t_l < t_u < self.horizon):
            raise InvalidArgument(
                f"window [{t_l}, {t_u}] must lie strictly inside [0, {self.horizon}]"
            )
        if self.model == "bates" and self.jumps is None:
            raise InvalidArgument("bates model requires a jump configuration")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "cv":
                raise InvalidArgument(
                    f"bandwidth must be a positive number or 'cv', got {self.bandwidth!r}"
                )
            if not self.cv_candidates:
                raise InvalidArgument("bandwidth 'cv' requires cv_candidates")
        elif self.bandwidth <= 0:
            raise InvalidArgument(f"bandwidth must be positive, got {self.bandwidth}")
        if isinstance(self.threshold, str) and self.threshold not in (
            THRESHOLD_DEFAULT,
            THRESHOLD_CALIBRATED,
        ):
            raise InvalidArgument(
                "threshold must be a ThresholdSpec, 'default' or 'calibrated'"
            )
        k, l = self.element
        if not (0 <= k < 2 and 0 <= l < 2):
            raise InvalidArgument(f"element indices must be in {{0, 1}}, got {self.element}")
        if self.eval_points < 2:
            raise InvalidArgument("need at least 2 evaluation points")
        if self.n_workers < 1:
            raise InvalidArgument("n_workers must be at least 1")


@dataclass(frozen=True)
class McCell:
    """Aggregated results for one kernel at one sampling frequency."""

    kernel: str
    n: int
    delta: float
    imse: float
    isb: float
    reps: int
    bandwidths: np.ndarray = field(repr=False)
    ise_values: np.ndarray = field(repr=False, default=None)  # per-rep ISE


@dataclass(frozen=True)
class McReport:
    """Study output: one cell per (kernel, frequency) plus QQ raw samples."""

    cells: list[McCell]
    z_samples: dict = field(repr=False)  # (kernel, n) -> array (reps, d, d)
    qq_tau: float
    failed_reps: tuple[int, ...] = ()

    def cell(self, kernel: str, n: int) -> McCell:
        for c in self.cells:
            if c.kernel == kernel and c.n == n:
                return c
        raise KeyError((kernel, n))


def _error_curves(estimates, truth: CovPath, window, element) -> tuple[np.ndarray, np.ndarray]:
    """Element errors (replications x window times) and the window times."""
    estimates = list(estimates)
    if not estimates:
        raise InvalidArgument("need at least one replication")
    for est in estimates:
        if len(est) != len(truth) or not np.allclose(
            est.times, truth.times, rtol=1e-9, atol=1e-12
        ):
            raise InvalidArgument("estimate and truth must share evaluation times")
        if est.d != truth.d:
            raise InvalidArgument("estimate and truth dimensions differ")
    t_l, t_u = window
    times = truth.times
    idx = np.flatnonzero((times >= t_l) & (times <= t_u))
    if idx.size < 2:
        raise InvalidArgument("too few evaluation times inside the window")
    k, l = element
    errs = np.stack([est.values[idx, k, l] - truth.values[idx, k, l] for est in estimates])
    return errs, times[idx]


def _error_integrals(errs: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Per-replication ISE, their mean (IMSE) and the integrated squared
    mean error (ISB) of error curves sampled at the given times."""
    ise_values = np.trapezoid(errs**2, times, axis=1)
    return ise_values, float(np.mean(ise_values)), float(np.trapezoid(errs.mean(axis=0) ** 2, times))


def imse(estimates, truth: CovPath, window, element: tuple[int, int] = (0, 1)) -> float:
    """Mean over replications of the integrated squared error."""
    return _error_integrals(*_error_curves(estimates, truth, window, element))[1]


def isb(estimates, truth: CovPath, window, element: tuple[int, int] = (0, 1)) -> float:
    """Integrated squared bias: integral of the squared mean error."""
    return _error_integrals(*_error_curves(estimates, truth, window, element))[2]


@dataclass(frozen=True)
class QqData:
    """Sorted samples paired with standard normal quantiles."""

    theoretical: np.ndarray = field(repr=False)
    empirical: np.ndarray = field(repr=False)
    slope: float = 0.0
    intercept: float = 0.0


def plotting_pairs(z) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples paired with normal quantiles at positions (i - 0.5)/N."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = z.shape[0]
    if n < 2:
        raise InvalidArgument(f"need at least 2 samples, got {n}")
    empirical = np.sort(z)
    theoretical = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return theoretical, empirical


def qq_data(z) -> QqData:
    """Plotting pairs plus a least-squares line (slope and intercept)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[0] < 20:
        raise InvalidArgument(f"need at least 20 samples for a QQ fit, got {z.shape[0]}")
    theoretical, empirical = plotting_pairs(z)
    slope, intercept = np.polyfit(theoretical, empirical, 1)
    return QqData(
        theoretical=theoretical,
        empirical=empirical,
        slope=float(slope),
        intercept=float(intercept),
    )


def resolve_threshold(choice: ThresholdSpec | str, increments: IncrementSeries) -> ThresholdSpec:
    """A fixed cutoff as given, or one calibrated on this path by name."""
    if isinstance(choice, ThresholdSpec):
        return choice
    if choice == THRESHOLD_DEFAULT:
        return default_threshold(increments)
    return calibrated_threshold(increments)


def _eval_times(cfg: McConfig, master_grid) -> np.ndarray:
    """Snap an equally spaced window grid onto the master grid."""
    t_l, t_u = cfg.window
    raw = np.linspace(t_l, t_u, cfg.eval_points)
    idx = np.unique(np.round(raw / master_grid.delta).astype(int))
    idx = idx[(idx >= 0) & (idx <= master_grid.n)]
    times = master_grid.points[idx]
    keep = (times >= t_l) & (times <= t_u)
    return idx[keep]


def _replication(
    rep: int, *, cfg: McConfig, master_grid, v1, v2, jpath, taus, eval_rows, qq_row, truth_eval,
    truth_qq, omega_qq
) -> dict:
    """Per-replication work; pure function of its arguments.  Each kernel
    path is estimated at taus: rows eval_rows are the eval times, whose
    true covariance (m, d, d) is truth_eval, and row qq_row is the QQ
    target time, with truth truth_qq and its variance array omega_qq."""
    rep_seed = derive_seed(cfg.master_seed, "rep", rep)
    x = diffusion_prices(cfg.heston, master_grid, v1, v2, rep_seed)
    if jpath is not None:
        x = x + jpath
    n_max = master_grid.n

    out = {}
    for n in cfg.frequencies:
        stride = n_max // n
        grid_f = build_uniform_grid(cfg.horizon, n)
        path_f = PricePath(grid=grid_f, values=x[::stride])
        inc = IncrementSeries(grid=grid_f, values=np.diff(path_f.values, axis=0))
        thr = resolve_threshold(cfg.threshold, inc) if cfg.estimator == "tkcv" else None
        for name in cfg.kernels:
            spec = kernel_by_name(name)
            if cfg.bandwidth == "cv":
                grid = BandwidthGrid(
                    candidates=np.asarray(cfg.cv_candidates), t_l=cfg.window[0], t_u=cfg.window[1]
                )
                h = cv_bandwidth(inc, spec, grid).h
            else:
                h = float(cfg.bandwidth)
            est = spot_covariance_path(inc, spec, h, taus, thr=thr).values
            k, l = cfg.element
            err_curve = est[eval_rows, k, l] - truth_eval[:, k, l]
            z = standardized_errors(
                est[qq_row : qq_row + 1], truth_qq, omega_qq, grid_f.delta, h, spec
            )[0]
            out[(name, n)] = (err_curve, z, h)
    return out


def _try_replication(rep: int, **study) -> dict | None:
    """One replication, or None when it fails on its data (a numerical or
    validation error); any other exception is a fault and propagates."""
    try:
        return _replication(rep, **study)
    except (SpotcovError, np.linalg.LinAlgError):
        return None


def run_mc_study(cfg: McConfig) -> McReport:
    """Run the full study described by the configuration.

    Raises InvalidState if more than 1% of replications fail.
    """
    n_max = max(cfg.frequencies)
    master_grid = build_uniform_grid(cfg.horizon, n_max)
    v1 = simulate_cir(cfg.heston.cir[0], master_grid, derive_seed(cfg.master_seed, "vol-1"))
    v2 = simulate_cir(cfg.heston.cir[1], master_grid, derive_seed(cfg.master_seed, "vol-2"))
    true_cov = true_cov_path(master_grid, v1, v2, cfg.heston.rho)
    jpath = None
    if cfg.model == "bates":
        jpath, _ = simulate_compound_poisson(cfg.jumps, master_grid, cfg.master_seed)
        if not np.any(jpath):
            jpath = None

    eval_idx = _eval_times(cfg, master_grid)
    if eval_idx.size < 2:
        raise InvalidArgument("window too narrow for the requested evaluation grid")
    qq_tau = cfg.horizon / 2.0
    qq_idx = int(round(qq_tau / master_grid.delta))
    # one path per kernel and frequency serves both the error curve and
    # the QQ sample: the QQ time joins the eval times when it is absent
    path_idx = np.union1d(eval_idx, [qq_idx])
    truth_qq = true_cov.matrix(qq_idx)
    replicate = partial(
        _try_replication,
        cfg=cfg,
        master_grid=master_grid,
        v1=v1,
        v2=v2,
        jpath=jpath,
        taus=master_grid.points[path_idx],
        eval_rows=np.searchsorted(path_idx, eval_idx),
        qq_row=int(np.searchsorted(path_idx, qq_idx)),
        truth_eval=true_cov.values[eval_idx],
        truth_qq=truth_qq,
        omega_qq=omega(truth_qq),
    )
    if cfg.n_workers > 1:
        chunk = max(1, math.ceil(cfg.reps / (4 * cfg.n_workers)))
        with ProcessPoolExecutor(max_workers=cfg.n_workers) as pool:
            results = list(pool.map(replicate, range(cfg.reps), chunksize=chunk))
    else:
        results = [replicate(rep) for rep in range(cfg.reps)]
    failed = [rep for rep, res in enumerate(results) if res is None]
    if len(failed) > max(1, cfg.reps) * 0.01:
        raise InvalidState(
            f"{len(failed)} of {cfg.reps} replications failed (indices {failed[:5]}...)"
        )

    done = [res for res in results if res is not None]
    eval_times = master_grid.points[eval_idx]
    cells: list[McCell] = []
    z_samples: dict = {}
    for name in cfg.kernels:
        for n in cfg.frequencies:
            errs, zs, hs = zip(*(res[(name, n)] for res in done))
            errs = np.stack(errs)
            ise_values, cell_imse, cell_isb = _error_integrals(errs, eval_times)
            if cell_imse < cell_isb - 1e-12:
                raise InvalidState(
                    f"variance decomposition violated: imse={cell_imse} < isb={cell_isb}"
                )
            cells.append(
                McCell(
                    kernel=name,
                    n=n,
                    delta=master_grid.T / n,
                    imse=cell_imse,
                    isb=cell_isb,
                    reps=len(errs),
                    bandwidths=np.asarray(hs),
                    ise_values=ise_values,
                )
            )
            z_samples[(name, n)] = np.stack(zs)
    return McReport(
        cells=cells, z_samples=z_samples, qq_tau=qq_tau, failed_reps=tuple(failed)
    )
