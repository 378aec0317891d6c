"""Experiment configuration: YAML loading, defaulting, validation, and the
resolved-config echo every command writes before running.

Configs are plain key trees.  Each command has a resolver that fills
defaults, rejects unknown keys, applies command-line overrides, and
returns a fully resolved dict; builders then turn that dict into domain
objects (whose constructors enforce the numeric constraints, so error
messages name the offending field).  Echo files are YAML with sorted keys
and can be passed straight back to --config for a byte-identical rerun.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .errors import InvalidArgument
from .estimators import ThresholdSpec
from .mc import THRESHOLD_CALIBRATED, THRESHOLD_DEFAULT, McConfig
from .simulate import CirParams, HestonConfig, JumpConfig

_HESTON_DEFAULT = {
    "mu": [0.0, 0.0],
    "rho": 0.5,
    "cir": [
        {"kappa": 5.0, "theta": 0.04, "eta": 0.5, "v0": 0.04},
        {"kappa": 4.0, "theta": 0.09, "eta": 0.4, "v0": 0.09},
    ],
}

# Slow mean reversion for multi-day forecasting studies: the variance
# processes need day-scale persistence for lagged factors to carry signal.
_HESTON_FORECAST_DEFAULT = {
    "mu": [0.0, 0.0],
    "rho": 0.5,
    "cir": [
        {"kappa": 0.10, "theta": 0.04, "eta": 0.04, "v0": 0.04},
        {"kappa": 0.15, "theta": 0.09, "eta": 0.06, "v0": 0.09},
    ],
}

_JUMPS_DEFAULT = {"intensity": 5.0, "mean": [0.0, 0.0], "sd": [0.02, 0.02]}


def load_yaml(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise InvalidArgument(f"config is not valid YAML: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise InvalidArgument("config root must be a mapping")
    return raw


def dump_echo(path, resolved: dict) -> None:
    text = yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False)
    Path(path).write_text(text, encoding="utf-8")


def _int(value, name: str) -> int:
    """An integer field: integral numbers pass, anything else is rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidArgument(f"{name} must be an integer, got {value!r}")


def _list(value, name: str) -> list:
    """A list field; a scalar or a string is rejected, not iterated."""
    if not isinstance(value, (list, tuple)):
        raise InvalidArgument(f"{name} must be a list, got {value!r}")
    return list(value)


def _reject_unknown(raw: dict, allowed: set[str], where: str = "config") -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise InvalidArgument(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def _merge_heston(raw: dict | None, default: dict) -> dict:
    raw = dict(raw or {})
    _reject_unknown(raw, {"mu", "rho", "cir"}, "heston")
    out = {
        "mu": [float(x) for x in _list(raw.get("mu", default["mu"]), "heston.mu")],
        "rho": float(raw.get("rho", default["rho"])),
        "cir": [],
    }
    cir_raw = _list(raw.get("cir", default["cir"]), "heston.cir")
    if len(cir_raw) != 2:
        raise InvalidArgument("cir must list exactly 2 parameter sets")
    for entry in cir_raw:
        _reject_unknown(dict(entry), {"kappa", "theta", "eta", "v0"}, "cir")
        out["cir"].append({k: float(entry[k]) for k in ("kappa", "theta", "eta", "v0")})
    return out


def _merge_jumps(raw: dict | None) -> dict:
    raw = dict(raw or {})
    _reject_unknown(raw, {"intensity", "mean", "sd"}, "jumps")
    return {
        "intensity": float(raw.get("intensity", _JUMPS_DEFAULT["intensity"])),
        "mean": [float(x) for x in _list(raw.get("mean", _JUMPS_DEFAULT["mean"]), "jumps.mean")],
        "sd": [float(x) for x in _list(raw.get("sd", _JUMPS_DEFAULT["sd"]), "jumps.sd")],
    }


def build_heston(resolved: dict) -> HestonConfig:
    h = resolved["heston"]
    return HestonConfig(
        mu=tuple(h["mu"]),
        cir=tuple(CirParams(**c) for c in h["cir"]),
        rho=h["rho"],
    )


def build_jumps(resolved: dict) -> JumpConfig | None:
    j = resolved.get("jumps")
    if j is None:
        return None
    return JumpConfig(intensity=j["intensity"], mean=tuple(j["mean"]), sd=tuple(j["sd"]))


def _require(raw: dict, key: str):
    if key not in raw or raw[key] is None:
        raise InvalidArgument(f"missing required config field: {key}")
    return raw[key]


def _resolve_out(raw: dict, overrides: dict) -> str:
    out = overrides.get("out") or raw.get("out")
    if not out:
        raise InvalidArgument("missing required config field: out (or pass --out)")
    return str(out)


def _resolve_seed(raw: dict, overrides: dict, default=None) -> int:
    seed = overrides.get("seed")
    if seed is None:
        seed = raw.get("seed", default)
    if seed is None:
        raise InvalidArgument("missing required config field: seed (or pass --seed)")
    return _int(seed, "seed")


def _threshold_entry(raw) -> dict | str:
    if raw is None:
        return THRESHOLD_CALIBRATED
    if isinstance(raw, str):
        if raw not in (THRESHOLD_DEFAULT, THRESHOLD_CALIBRATED):
            raise InvalidArgument(
                f"threshold must be 'default', 'calibrated' or a mapping, got {raw!r}"
            )
        return raw
    raw = dict(raw)
    _reject_unknown(raw, {"c", "beta", "mode"}, "threshold")
    return {
        "c": float(_require(raw, "c")),
        "beta": float(raw.get("beta", 0.49)),
        "mode": str(raw.get("mode", "squared-norm")),
    }


def build_threshold(entry) -> ThresholdSpec | str:
    if isinstance(entry, str):
        return entry
    return ThresholdSpec(c=entry["c"], beta=entry["beta"], mode=entry["mode"])


def resolve_simulate(raw: dict, overrides: dict) -> dict:
    _reject_unknown(
        raw, {"command", "model", "horizon", "n", "seed", "out", "heston", "jumps"}
    )
    model = str(raw.get("model", "heston"))
    if model not in ("heston", "bates"):
        raise InvalidArgument(f"model must be 'heston' or 'bates', got {model!r}")
    resolved = {
        "command": "simulate",
        "model": model,
        "horizon": float(raw.get("horizon", 2.0)),
        "n": _int(_require(raw, "n"), "n"),
        "seed": _resolve_seed(raw, overrides),
        "out": _resolve_out(raw, overrides),
        "heston": _merge_heston(raw.get("heston"), _HESTON_DEFAULT),
    }
    if model == "bates":
        resolved["jumps"] = _merge_jumps(raw.get("jumps"))
    build_heston(resolved)  # fail fast on bad numerics
    build_jumps(resolved)
    return resolved


def resolve_estimate(raw: dict, overrides: dict) -> dict:
    _reject_unknown(
        raw,
        {
            "command",
            "prices",
            "kernel",
            "estimator",
            "bandwidth",
            "cv",
            "threshold",
            "taus",
            "band_level",
            "out",
        },
    )
    estimator = str(raw.get("estimator", "kcv"))
    if estimator not in ("kcv", "tkcv"):
        raise InvalidArgument(f"estimator must be 'kcv' or 'tkcv', got {estimator!r}")
    bandwidth = raw.get("bandwidth", "cv")
    if isinstance(bandwidth, str):
        if bandwidth != "cv":
            raise InvalidArgument(f"bandwidth must be a number or 'cv', got {bandwidth!r}")
    else:
        bandwidth = float(bandwidth)
        if bandwidth <= 0:
            raise InvalidArgument(f"bandwidth must be positive, got {bandwidth}")
    cv = dict(raw.get("cv") or {})
    _reject_unknown(cv, {"candidates", "window"}, "cv")
    resolved = {
        "command": "estimate",
        "prices": str(_require(raw, "prices")),
        "kernel": str(raw.get("kernel", "gaussian")),
        "estimator": estimator,
        "bandwidth": bandwidth,
        "cv": {
            "candidates": [float(x) for x in _list(cv.get("candidates", []), "cv.candidates")],
            "window": (
                [float(x) for x in _list(cv["window"], "cv.window")] if cv.get("window") else None
            ),
        },
        "threshold": _threshold_entry(raw.get("threshold")) if estimator == "tkcv" else None,
        "taus": _resolve_taus(raw.get("taus")),
        "band_level": float(raw["band_level"]) if raw.get("band_level") else None,
        "out": _resolve_out(raw, overrides),
    }
    if bandwidth == "cv" and not resolved["cv"]["candidates"]:
        raise InvalidArgument("bandwidth 'cv' requires cv.candidates")
    if resolved["band_level"] is not None and not (0.0 < resolved["band_level"] < 1.0):
        raise InvalidArgument(f"band_level must be in (0, 1), got {resolved['band_level']}")
    return resolved


def _resolve_taus(raw) -> dict | list | None:
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return [float(x) for x in raw]
    if not isinstance(raw, dict):
        raise InvalidArgument(f"taus must be a list or a mapping, got {raw!r}")
    raw = dict(raw)
    _reject_unknown(raw, {"start", "stop", "count"}, "taus")
    return {
        "start": float(_require(raw, "start")),
        "stop": float(_require(raw, "stop")),
        "count": _int(raw.get("count", 101), "taus.count"),
    }


def resolve_mc_study(raw: dict, overrides: dict) -> dict:
    _reject_unknown(
        raw,
        {
            "command",
            "model",
            "reps",
            "horizon",
            "frequencies",
            "kernels",
            "estimator",
            "window",
            "bandwidth",
            "cv_candidates",
            "threshold",
            "element",
            "eval_points",
            "seed",
            "out",
            "heston",
            "jumps",
            "threads",
        },
    )
    model = str(raw.get("model", "heston"))
    estimator = str(raw.get("estimator", "kcv"))
    bandwidth = raw.get("bandwidth", 0.1)
    if not isinstance(bandwidth, str):
        bandwidth = float(bandwidth)
    element = [_int(x, "element") for x in _list(raw.get("element", [1, 2]), "element")]
    if len(element) != 2 or not all(1 <= x <= 2 for x in element):
        raise InvalidArgument(f"element must be a pair of 1-based indices, got {element}")
    resolved = {
        "command": "mc-study",
        "model": model,
        "reps": _int(raw.get("reps", 500), "reps"),
        "horizon": float(raw.get("horizon", 2.0)),
        "frequencies": [
            _int(x, "frequencies") for x in _list(_require(raw, "frequencies"), "frequencies")
        ],
        "kernels": [str(x) for x in _list(raw.get("kernels", ["gaussian"]), "kernels")],
        "estimator": estimator,
        "window": [float(x) for x in _list(raw.get("window", [0.2, 1.8]), "window")],
        "bandwidth": bandwidth,
        "cv_candidates": [float(x) for x in _list(raw.get("cv_candidates", []), "cv_candidates")],
        "threshold": _threshold_entry(raw.get("threshold")) if estimator == "tkcv" else None,
        "element": element,
        "eval_points": _int(raw.get("eval_points", 101), "eval_points"),
        "seed": _resolve_seed(raw, overrides),
        "out": _resolve_out(raw, overrides),
        "heston": _merge_heston(raw.get("heston"), _HESTON_DEFAULT),
        "threads": _int(overrides.get("threads") or raw.get("threads", 1), "threads"),
    }
    if model == "bates":
        resolved["jumps"] = _merge_jumps(raw.get("jumps"))
    build_mc_config(resolved)  # full validation
    return resolved


def build_mc_config(resolved: dict) -> McConfig:
    threshold = resolved.get("threshold")
    return McConfig(
        model=resolved["model"],
        reps=resolved["reps"],
        frequencies=tuple(resolved["frequencies"]),
        kernels=tuple(resolved["kernels"]),
        estimator=resolved["estimator"],
        window=tuple(resolved["window"]),
        bandwidth=resolved["bandwidth"],
        master_seed=resolved["seed"],
        horizon=resolved["horizon"],
        heston=build_heston(resolved),
        jumps=build_jumps(resolved),
        threshold=build_threshold(threshold) if threshold is not None else THRESHOLD_CALIBRATED,
        element=(resolved["element"][0] - 1, resolved["element"][1] - 1),
        eval_points=resolved["eval_points"],
        cv_candidates=tuple(resolved["cv_candidates"]) or None,
        n_workers=resolved["threads"],
    )


def resolve_forecast(raw: dict, overrides: dict) -> dict:
    _reject_unknown(
        raw,
        {
            "command",
            "days",
            "n_per_day",
            "split",
            "horizons",
            "kernel",
            "bandwidth",
            "seed",
            "out",
            "heston",
        },
    )
    resolved = {
        "command": "forecast",
        "days": _int(_require(raw, "days"), "days"),
        "n_per_day": _int(raw.get("n_per_day", 288), "n_per_day"),
        "split": float(raw.get("split", 0.8)),
        "horizons": [
            _int(x, "horizons") for x in _list(raw.get("horizons", [1, 5, 22]), "horizons")
        ],
        "kernel": str(raw.get("kernel", "gaussian")),
        "bandwidth": float(raw.get("bandwidth", 0.75)),
        "seed": _resolve_seed(raw, overrides),
        "out": _resolve_out(raw, overrides),
        "heston": _merge_heston(raw.get("heston"), _HESTON_FORECAST_DEFAULT),
    }
    if resolved["days"] < 1 or resolved["n_per_day"] < 2:
        raise InvalidArgument("days must be >= 1 and n_per_day >= 2")
    if resolved["bandwidth"] <= 0:
        raise InvalidArgument(f"bandwidth must be positive, got {resolved['bandwidth']}")
    build_heston(resolved)
    return resolved
