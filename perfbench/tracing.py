"""Per-layer spans for the traced benchmark run, recorded from outside the
program.

Each public function of a layer is replaced, for the traced phase only, by
a wrapper installed at the module attribute its caller looks it up
through (``spotcov.mc.spot_covariance_path`` for the Monte Carlo harness,
``spotcov.cli.spot_covariance_path`` for ``estimate``, and so on), or on
the class for methods.  A span's name is ``<module>.<function>`` of the
layer that owns the code.  Nested spans form a stack: a span's self time
is its duration minus the durations of the spans it directly encloses, so
the self times of one job add up to the root span ``cli.job``.

Besides calls, total and self time, a wrapper may count work from its
arguments: kernel points evaluated, increment rows visited, simulation
steps and bytes read or written.  These are computed from array shapes
and file sizes, not measured, so they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import logging
import os
from collections import defaultdict
from time import perf_counter


def _points(stat, args, kwargs, result):
    stat["points"] += getattr(args[2], "size", 1)  # eval_scaled(spec, h, z)


def _rows(stat, args, kwargs, result):
    values = args[0].values  # tkcv(increments, ...)
    stat["rows"] += values.shape[0]
    stat["bytes"] += values.size * 8


def _steps(stat, args, kwargs, result):
    stat["steps"] += args[1].n  # (params, grid, ...)


def _file_bytes(stat, args, kwargs, result):
    stat["bytes"] += os.path.getsize(args[0])


def _mc_reps(stat, args, kwargs, result):
    stat["reps"] += args[0].reps
    stat["failed_reps"] += len(result.failed_reps)


_CSV_WRITERS = (
    "write_prices",
    "write_cov_path",
    "write_bands",
    "write_jump_times",
    "write_cv_curve",
    "write_mc_table",
    "write_qq_pairs",
    "write_losses",
    "write_coefficients",
    "write_factors",
)

# (object, attribute, span name, counter).  An object is a module path,
# or "module:Class" for a method.
POINTS = [
    ("spotcov.cli", "cv_bandwidth", "bandwidth.cv_bandwidth", None),
    ("spotcov.mc", "cv_bandwidth", "bandwidth.cv_bandwidth", None),
    ("spotcov.bandwidth", "eval_scaled", "bandwidth.eval_scaled", _points),
    ("spotcov.cli", "spot_covariance_path", "estimators.spot_covariance_path", None),
    ("spotcov.mc", "spot_covariance_path", "estimators.spot_covariance_path", None),
    ("spotcov.estimators", "tkcv", "estimators.tkcv", _rows),
    ("spotcov.estimators", "eval_scaled", "estimators.eval_scaled", _points),
    ("spotcov.estimators:ThresholdSpec", "keep_mask", "estimators.keep_mask", None),
    ("spotcov.cli", "calibrated_threshold", "estimators.calibrated_threshold", None),
    ("spotcov.mc", "calibrated_threshold", "estimators.calibrated_threshold", None),
    ("spotcov.cli", "asymptotic_band", "estimators.asymptotic_band", None),
    ("spotcov.cli", "omega", "estimators.omega", None),
    ("spotcov.mc", "omega", "estimators.omega", None),
    ("spotcov.mc", "standardized_errors", "estimators.standardized_errors", None),
    ("spotcov.timeseries:CovMatrix", "__post_init__", "timeseries.CovMatrix", None),
    ("spotcov.cli", "log_returns", "timeseries.log_returns", None),
    ("spotcov.cli", "kernel_by_name", "kernels.kernel_by_name", None),
    ("spotcov.mc", "kernel_by_name", "kernels.kernel_by_name", None),
    ("spotcov.cli", "simulate_heston2d", "simulate.simulate_heston2d", None),
    ("spotcov.simulate", "simulate_cir", "simulate.simulate_cir", _steps),
    ("spotcov.mc", "simulate_cir", "simulate.simulate_cir", _steps),
    ("spotcov.simulate", "diffusion_prices", "simulate.diffusion_prices", _steps),
    ("spotcov.mc", "diffusion_prices", "simulate.diffusion_prices", _steps),
    ("spotcov.mc", "simulate_compound_poisson", "simulate.simulate_compound_poisson", _steps),
    ("spotcov.mc", "derive_seed", "rng.derive_seed", None),
    ("spotcov.simulate", "derive_seed", "rng.derive_seed", None),
    ("spotcov.simulate", "substream", "rng.substream", None),
    ("spotcov.cli", "run_mc_study", "mc.run_mc_study", _mc_reps),
    ("spotcov.cli", "plotting_pairs", "mc.plotting_pairs", None),
    ("spotcov.cli", "compare_models", "forecast.compare_models", None),
    ("spotcov.cli", "daily_cov_series", "forecast.daily_cov_series", None),
    ("spotcov.forecast", "daily_cov_series", "forecast.daily_cov_series", None),
    ("spotcov.cli", "factor_series", "forecast.factor_series", None),
    ("spotcov.forecast", "factor_series", "forecast.factor_series", None),
    ("spotcov.forecast", "true_daily_integrated_cov", "forecast.true_daily_integrated_cov", None),
    ("spotcov.forecast", "fit_vhar", "forecast.fit_vhar", None),
    ("spotcov.forecast", "forecast_vhar", "forecast.forecast_vhar", None),
    ("spotcov.forecast", "kcv", "forecast.kcv", None),
    ("spotcov.forecast", "loss_euclidean", "forecast.losses", None),
    ("spotcov.forecast", "loss_frobenius", "forecast.losses", None),
    ("spotcov.forecast", "loss_qlike", "forecast.losses", None),
    ("spotcov.csvio", "read_prices", "csvio.read_prices", _file_bytes),
    *[("spotcov.csvio", w, "csvio.write", _file_bytes) for w in _CSV_WRITERS],
    *[
        ("spotcov.config", f, "config.resolve", None)
        for f in (
            "load_yaml",
            "resolve_estimate",
            "resolve_mc_study",
            "resolve_forecast",
            "build_mc_config",
            "build_heston",
            "dump_echo",
        )
    ],
]

ROOT_SPAN = "cli.job"


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _JitterCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "jitter" in record.getMessage():
            self.count += 1


class Tracer:
    """Installs the wrappers and collects one stats table per job."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._stats: dict[str, defaultdict] = {}
        self._undo: list[tuple] = []
        self._jitter = _JitterCounter()
        self._logger = logging.getLogger("spotcov.forecast")
        self._old_level = self._logger.level

    def _wrap(self, orig, name, counter):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat = tracer._stat(name)
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - frame[0]
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _stat(self, name):
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = defaultdict(float)
        return stat

    def install(self):
        for path, attr, name, counter in POINTS:
            owner = _owner(path)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, counter))
        self._logger.addHandler(self._jitter)
        self._logger.setLevel(logging.INFO)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._logger.removeHandler(self._jitter)
        self._logger.setLevel(self._old_level)

    def job(self, fn):
        """Run fn() as one job under the root span; return (result, stats)."""
        self._stats = {}
        self._jitter.count = 0
        result = self._wrap(fn, ROOT_SPAN, None)()
        stats = {name: dict(stat) for name, stat in self._stats.items()}
        stats["forecast"] = {"chol_jitter": float(self._jitter.count)}
        return result, stats
