"""The three benchmark workloads: how each one's inputs are made from a
seed, the CLI job that consumes them, and the files the job writes.

Inputs come from a fixed pool of CASES cases per workload.  A case is
identified by its index; the case seed, and with it every input byte, is
a hash of (workload, index), so the stored references in ``refs/`` stay
valid whatever the program does to its own seed derivation.  A run's
``--seed`` picks the order in which the pool is visited, so every job of a
run (set-up warm-ups included) gets its own case until the pool wraps.

The program only ever sees the files written here: YAML configs and, for
``estimate-cv``, a price CSV simulated by this module's own Euler scheme.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np
import yaml

CASES = 64
D = 2  # assets in every workload

# Values from configs/estimate_cv.yaml, copied so that edits to the shipped
# examples cannot move the benchmark.
CV_CANDIDATES = [0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30]
CV_WINDOW = [0.2, 1.8]
ESTIMATE_N = 2880
ESTIMATE_T = 2.0

# Heston parameters of configs/simulate_heston.yaml: (kappa, theta, eta, v0).
_CIR = ((5.0, 0.04, 0.5, 0.04), (4.0, 0.09, 0.4, 0.09))
_RHO = 0.5


def case_seed(workload: str, case: int) -> int:
    digest = hashlib.blake2s(f"perfbench:{workload}:{case}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def case_order(seed: int) -> list[int]:
    """The order in which a run with this seed visits the case pool."""
    order = list(range(CASES))
    random.Random(seed).shuffle(order)
    return order


def _heston_prices(seed: int) -> np.ndarray:
    """Log-prices (n+1, 2) of a bivariate full-truncation Euler Heston path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, delta = ESTIMATE_N, ESTIMATE_T / ESTIMATE_N
    sqdt = math.sqrt(delta)
    shocks = rng.standard_normal((4, n))
    variances = []
    for (kappa, theta, eta, v0), xi in zip(_CIR, shocks[:2]):
        v = [v0]
        for z in xi[:-1]:
            vi = v[-1]
            v.append(max(vi + kappa * (theta - vi) * delta + eta * math.sqrt(vi) * sqdt * z, 0.0))
        variances.append(np.asarray(v))
    eps1 = shocks[2]
    eps2 = _RHO * shocks[2] + math.sqrt(1.0 - _RHO**2) * shocks[3]
    dx = np.stack([np.sqrt(variances[0]) * sqdt * eps1, np.sqrt(variances[1]) * sqdt * eps2], axis=1)
    x = np.zeros((n + 1, D))
    np.cumsum(dx, axis=0, out=x[1:])
    return x


def _write_prices_csv(path: Path, x: np.ndarray) -> None:
    n = x.shape[0] - 1
    times = np.arange(n + 1) * (ESTIMATE_T / n)
    times[-1] = ESTIMATE_T
    lines = ["time,asset_1,asset_2"]
    lines += [f"{t!r},{a!r},{b!r}" for t, a, b in zip(times.tolist(), x[:, 0].tolist(), x[:, 1].tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_yaml(path: Path, mapping: dict) -> Path:
    path.write_text(yaml.safe_dump(mapping, sort_keys=False, default_flow_style=None), encoding="utf-8")
    return path


class Workload:
    name = ""
    subcommand = ""
    ops_per_job = 1  # operations a job counts as, for attempted/failed

    def write_inputs(self, workdir: Path, case: int) -> Path:
        """Write the case's inputs under workdir; return its config path."""
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Data files one job writes, compared against the references."""
        raise NotImplementedError

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.subcommand, "--config", str(config), "--out", str(out), "--threads", "1"]


class EstimateCv(Workload):
    name = "estimate-cv"
    subcommand = "estimate"

    def write_inputs(self, workdir, case):
        prices = workdir / f"prices_{case:02d}.csv"
        _write_prices_csv(prices, _heston_prices(case_seed(self.name, case)))
        return _write_yaml(
            workdir / f"estimate_{case:02d}.yaml",
            {
                "prices": str(prices),
                "kernel": "gaussian",
                "estimator": "kcv",
                "bandwidth": "cv",
                "cv": {"candidates": CV_CANDIDATES, "window": CV_WINDOW},
                "taus": {"start": 0.2, "stop": 1.8, "count": 81},
                "band_level": 0.95,
            },
        )

    def outputs(self):
        return ["cv_curve.csv", "spot_cov.csv", "bands.csv"]


class McJump(Workload):
    name = "mc-jump"
    subcommand = "mc-study"
    reps = 2  # the smallest study McConfig accepts; ~0.6 s per replication
    ops_per_job = reps  # an operation is one replication
    frequencies = (576, 2880, 34560)
    kernels = ("gaussian", "onesided", "beta")

    def write_inputs(self, workdir, case):
        return _write_yaml(
            workdir / f"mc_{case:02d}.yaml",
            {
                "model": "bates",
                "reps": self.reps,
                "horizon": 2.0,
                "frequencies": list(self.frequencies),
                "kernels": list(self.kernels),
                "estimator": "tkcv",
                "threshold": "calibrated",
                "window": [0.2, 1.8],
                "bandwidth": 0.05,
                "eval_points": 101,
                "seed": case_seed(self.name, case),
                # jump sizes of configs/mc_jump_robust.yaml
                "jumps": {"intensity": 5.0, "mean": [0.0, 0.0], "sd": [0.0527, 0.0791]},
            },
        )

    def outputs(self):
        return ["mc_table.csv"] + [
            f"qq_pairs_{kernel}_n{n}.csv" for kernel in self.kernels for n in self.frequencies
        ]


class Forecast(Workload):
    name = "forecast"
    subcommand = "forecast"

    def write_inputs(self, workdir, case):
        # configs/forecast_comparison.yaml with the case seed
        return _write_yaml(
            workdir / f"forecast_{case:02d}.yaml",
            {
                "days": 120,
                "n_per_day": 288,
                "split": 0.8,
                "horizons": [1, 5, 22],
                "kernel": "gaussian",
                "bandwidth": 0.75,
                "seed": case_seed(self.name, case),
                "heston": {
                    "rho": 0.5,
                    "cir": [
                        {"kappa": 0.10, "theta": 0.04, "eta": 0.04, "v0": 0.04},
                        {"kappa": 0.15, "theta": 0.09, "eta": 0.06, "v0": 0.09},
                    ],
                },
            },
        )

    def outputs(self):
        return ["losses.csv", "coefficients.csv", "factors_vhar_rc.csv", "factors_vhar_kcv.csv"]


WORKLOADS = {w.name: w for w in (EstimateCv(), McJump(), Forecast())}
