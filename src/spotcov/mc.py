"""Monte Carlo harness for the estimator studies.

Each study choice is one McConfig field: jumps make Bates paths, a
threshold makes the estimator tkcv, and a tuple bandwidth selects h by CV.

One volatility trajectory (and, with jumps, one jump trajectory) is drawn
from the master seed and held fixed; each replication then draws a fresh
price path on the finest requested grid.  Coarser sampling frequencies
observe the same path at wider strides, so frequency comparisons share
identical underlying randomness.  Replications carry seeds derived from
(master seed, replication index) and results are reduced in replication
order, which makes reports independent of how many workers computed them.

Replications run in fixed blocks of BLOCK_REPS consecutive indices, the
unit handed to a worker: one product stack per frequency holds the whole
block, one engine call per kernel and bandwidth reduces it, and under the
engine's summation contract a block row equals each replication's own
row.  Each replication draws its price path, threshold and CV bandwidth
inside its own guard, and one that fails on its data is left out of its
block, so the others' results are those they give alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bandwidth import BandwidthGrid, _check_window, _window_index, cv_bandwidth
from .errors import (
    InvalidArgument,
    InvalidState,
    SpotcovError,
    check_bandwidth,
    check_count,
    check_positive,
    is_integer,
)
from .estimators import (
    GridTargets,
    ProductStack,
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
    true_cov,
)
from .timeseries import CovMatrix, IncrementSeries, PricePath, build_uniform_grid, log_returns

THRESHOLD_DEFAULT = "default"
THRESHOLD_CALIBRATED = "calibrated"
# replications reduced together by one engine call; blocks are fixed by
# replication index, never by worker count, so reports do not depend on it
BLOCK_REPS = 16


@dataclass(frozen=True)
class McConfig:
    """Study layout.  Paths are Bates exactly when ``jumps`` is given, the
    estimator is tkcv exactly when ``threshold`` is not None (a ThresholdSpec,
    or 'default' or 'calibrated' to calibrate the cutoff on each path), and
    each path selects h by CV over ``window`` exactly when ``bandwidth`` is a
    tuple of candidates rather than a fixed h."""

    reps: int = 500
    frequencies: tuple[int, ...] = (576, 2880)
    kernels: tuple[str, ...] = ("gaussian",)
    window: tuple[float, float] = (0.2, 1.8)
    bandwidth: float | tuple[float, ...] = 0.1
    master_seed: int = 0
    horizon: float = 2.0
    heston: HestonConfig = field(default_factory=HestonConfig)
    jumps: JumpConfig | None = None
    threshold: ThresholdSpec | str | None = None
    element: tuple[int, int] = (0, 1)
    eval_points: int = 101
    n_workers: int = 1
    # built from the candidates and window when bandwidth is a tuple
    cv_grid: BandwidthGrid | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count(self.reps, "reps", minimum=2)
        if not (self.frequencies and all(is_integer(n) for n in self.frequencies)):
            raise InvalidArgument(f"frequencies must be nonempty integers, got {list(self.frequencies)!r}")
        n_max = max(self.frequencies)
        for n in self.frequencies:
            if n < 2 or n_max % n != 0:
                raise InvalidArgument(
                    f"every frequency must divide the finest one ({n_max}); got {n}"
                )
        if not self.kernels:
            raise InvalidArgument("kernels must be nonempty")
        if not all(isinstance(name, str) for name in self.kernels):
            raise InvalidArgument(f"kernels must be kernel names, got {list(self.kernels)!r}")
        for name, values in (("frequencies", self.frequencies), ("kernels", self.kernels)):
            if len(set(values)) != len(values):
                raise InvalidArgument(f"{name} must not repeat, got {list(values)}")
        for name in self.kernels:
            kernel_by_name(name)
        check_positive(self.horizon, "horizon")
        _check_window(self.window, self.horizon, name="window")
        if self.jumps is not None:
            self.jumps.check_steps(self.horizon, n_max)
        if isinstance(self.bandwidth, tuple):
            object.__setattr__(self, "cv_grid", BandwidthGrid(self.bandwidth, *self.window))
        elif isinstance(self.bandwidth, numbers.Real) and not isinstance(self.bandwidth, bool):
            check_bandwidth(self.bandwidth)
        else:
            raise InvalidArgument(f"bandwidth must be a number or a tuple, got {self.bandwidth!r}")
        words = (None, THRESHOLD_DEFAULT, THRESHOLD_CALIBRATED)
        if not (isinstance(self.threshold, ThresholdSpec) or self.threshold in words):
            raise InvalidArgument("threshold must be a ThresholdSpec, None, 'default' or 'calibrated'")
        if not (len(self.element) == 2 and all(is_integer(i) and 0 <= i < 2 for i in self.element)):
            raise InvalidArgument(
                f"element indices must be integers in {{0, 1}} (0-based), got {self.element!r}"
            )
        if not is_integer(self.master_seed):
            raise InvalidArgument(f"master_seed must be an integer, got {self.master_seed!r}")
        check_count(self.eval_points, "eval_points", minimum=2)
        try:
            _eval_times(self, build_uniform_grid(self.horizon, n_max))
        except InvalidArgument as e:
            raise InvalidArgument(f"window and eval_points: {e}") from None
        check_count(self.n_workers, "threads (n_workers)")


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
    ise_values: np.ndarray = field(repr=False)  # per-rep ISE


@dataclass(frozen=True)
class McReport:
    """Study output: one cell per (kernel, frequency) plus QQ raw samples."""

    cells: list[McCell]
    z_samples: dict = field(repr=False)  # (kernel, n) -> array (reps, d, d)
    failed_reps: tuple[int, ...] = ()

    def cell(self, kernel: str, n: int) -> McCell:
        for c in self.cells:
            if c.kernel == kernel and c.n == n:
                return c
        raise KeyError((kernel, n))


def _error_integrals(errs: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Per-replication ISE, their mean (IMSE) and the integrated squared
    mean error (ISB) of error curves sampled at the given times."""
    ise_values = np.trapezoid(errs**2, times, axis=1)
    return ise_values, float(np.mean(ise_values)), float(np.trapezoid(errs.mean(axis=0) ** 2, times))


def plotting_pairs(z) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples paired with normal quantiles at positions (i - 0.5)/N."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = z.shape[0]
    if n < 2:
        raise InvalidArgument(f"need at least 2 samples, got {n}")
    from statistics import NormalDist

    empirical = np.sort(z)
    inv_cdf = NormalDist().inv_cdf
    theoretical = np.array([inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    return theoretical, empirical


def resolve_threshold(choice: ThresholdSpec | str | None, increments: IncrementSeries):
    """A fixed cutoff (or None, no cutoff) as given, or one calibrated on this path by name."""
    if choice is None or isinstance(choice, ThresholdSpec):
        return choice
    if choice == THRESHOLD_DEFAULT:
        return default_threshold(increments)
    return calibrated_threshold(increments)


def _eval_times(cfg: McConfig, master_grid) -> np.ndarray:
    """Master-grid indices of an even window grid, snapped and kept inside the window."""
    raw = np.linspace(*cfg.window, cfg.eval_points)
    idx = np.unique(np.round(raw / master_grid.delta).astype(int))
    return idx[_window_index(master_grid.points[idx], cfg.window)]


def _block(
    reps: range, *, cfg: McConfig, master_grid, v1, v2, jpath, path_idx, eval_rows, qq_row,
    truth_eval, truth_qq, omega_qq
) -> list[dict | str]:
    """One block of replications; entry r is the results of reps[r], or the
    type and message of the error on which that replication failed.

    Phase 1 draws each replication inside its own guard: its price path,
    then per frequency its increments, cutoff and, per kernel, bandwidth.
    Phase 2 reduces the replications that passed it: per frequency one
    ProductStack holds their products and cutoffs, and per kernel and
    distinct bandwidth one engine call reduces the rows that chose it.  Its
    targets are the master-grid indices path_idx: rows eval_rows are the
    eval times, with true covariance (m, d, d) truth_eval, and row qq_row
    is the QQ target time, with truth truth_qq and its variance array
    omega_qq.  Phase 2 can fail only on what the whole study shares (the
    targets, the truth, omega_qq, or a shared jump or variance path whose
    products overflow), so an error there stops the study.  A block's row
    equals each replication's own row, so its results do not depend on its
    block."""
    k, l = cfg.element
    grids = {n: build_uniform_grid(cfg.horizon, n) for n in cfg.frequencies}
    specs = {name: kernel_by_name(name) for name in cfg.kernels}

    def draw(rep):
        # {n: (increments, cutoff, {kernel: h})} per frequency, so the price
        # path is released before the next replication's is drawn
        x = diffusion_prices(cfg.heston, master_grid, v1, v2, derive_seed(cfg.master_seed, "rep", rep))
        if jpath is not None:
            x += jpath
        out = {}
        for n, grid_f in grids.items():
            inc = log_returns(PricePath(grid=grid_f, values=x[:: master_grid.n // n]))
            hs = {
                name: float(cfg.bandwidth) if cfg.cv_grid is None else cv_bandwidth(inc, spec, cfg.cv_grid).h
                for name, spec in specs.items()
            }
            out[n] = inc, resolve_threshold(cfg.threshold, inc), hs
        return out

    drawn, results = {}, {rep: {} for rep in reps}
    for rep in reps:
        try:
            drawn[rep] = draw(rep)
        except (SpotcovError, np.linalg.LinAlgError) as e:
            # a numerical or validation error on this replication's data;
            # any other exception is a fault and propagates
            results[rep] = f"{type(e).__name__}: {e}"
    members = list(drawn)  # the replications in each frequency's stack, in its row order
    for n, grid_f in grids.items() if members else ():
        incs, thrs, hs = zip(*(drawn[rep].pop(n) for rep in members))
        stack = ProductStack.of(incs, thrs)
        targets = GridTargets(path_idx, master_grid.n // n)
        for name, spec in specs.items():
            groups = {}  # h -> the stack rows that chose it
            for row, h_row in enumerate(hs):
                groups.setdefault(h_row[name], []).append(row)
            for h, rows in groups.items():
                ests = spot_covariance_path(stack.select(rows), spec, h, targets)
                for row, est in zip(rows, ests):
                    err_curve = est.values[eval_rows, k, l] - truth_eval[:, k, l]
                    z = standardized_errors(
                        est.values[qq_row : qq_row + 1], truth_qq, omega_qq, grid_f.delta, h, spec
                    )[0]
                    results[members[row]][(name, n)] = err_curve, z, h
        stack = incs = None  # this frequency is done: release its stack and increments
    return [results[rep] for rep in reps]


def run_mc_study(cfg: McConfig) -> McReport:
    """Run the full study described by the configuration.

    Raises InvalidState if more than 1% of replications fail.
    """
    n_max = max(cfg.frequencies)
    master_grid = build_uniform_grid(cfg.horizon, n_max)
    v1 = simulate_cir(cfg.heston.cir[0], master_grid, derive_seed(cfg.master_seed, "vol-1"))
    v2 = simulate_cir(cfg.heston.cir[1], master_grid, derive_seed(cfg.master_seed, "vol-2"))
    jpath = None
    if cfg.jumps is not None:
        jpath, _ = simulate_compound_poisson(cfg.jumps, master_grid, cfg.master_seed)
        if not np.any(jpath):
            jpath = None

    eval_idx = _eval_times(cfg, master_grid)
    qq_idx = int(round(cfg.horizon / 2.0 / master_grid.delta))
    # one path per kernel and frequency serves both the error curve and
    # the QQ sample: the QQ time joins the eval times when it is absent
    path_idx = np.union1d(eval_idx, [qq_idx])
    eval_rows = np.searchsorted(path_idx, eval_idx)
    qq_row = int(np.searchsorted(path_idx, qq_idx))
    truth = true_cov(v1[path_idx], v2[path_idx], cfg.heston.rho)
    truth_qq = CovMatrix(entries=truth[qq_row])
    run_block = partial(
        _block,
        cfg=cfg,
        master_grid=master_grid,
        v1=v1,
        v2=v2,
        jpath=jpath,
        path_idx=path_idx,
        eval_rows=eval_rows,
        qq_row=qq_row,
        truth_eval=truth[eval_rows],
        truth_qq=truth_qq,
        omega_qq=omega(truth_qq),
    )
    blocks = [range(r, min(r + BLOCK_REPS, cfg.reps)) for r in range(0, cfg.reps, BLOCK_REPS)]
    workers = min(cfg.n_workers, len(blocks))  # a worker beyond the block count has nothing to run
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs its import

        chunk = max(1, math.ceil(len(blocks) / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [res for block in pool.map(run_block, blocks, chunksize=chunk) for res in block]
    else:
        results = [res for block in map(run_block, blocks) for res in block]
    failed = [rep for rep, res in enumerate(results) if isinstance(res, str)]
    if len(failed) > cfg.reps * 0.01:
        more = "..." if len(failed) > 5 else ""
        raise InvalidState(
            f"{len(failed)} of {cfg.reps} replications failed (indices {failed[:5]}{more}); "
            f"replication {failed[0]} raised {results[failed[0]]}"
        )

    done = [res for res in results if not isinstance(res, str)]
    eval_times = master_grid.points[eval_idx]
    cells: list[McCell] = []
    z_samples: dict = {}
    for name in cfg.kernels:
        for n in cfg.frequencies:
            errs, zs, hs = zip(*(res[(name, n)] for res in done))
            errs = np.stack(errs)
            with np.errstate(over="ignore", invalid="ignore"):
                ise_values, cell_imse, cell_isb = _error_integrals(errs, eval_times)
            if not (math.isfinite(cell_imse) and math.isfinite(cell_isb)):
                raise InvalidState(
                    f"kernel {name} at frequency {n}: error integrals are not finite "
                    f"(imse={cell_imse}, isb={cell_isb})"
                )
            if cell_isb - cell_imse > 1e-12 * cell_imse:
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
    return McReport(cells=cells, z_samples=z_samples, failed_reps=tuple(failed))
