"""Experiment configuration: YAML loading, defaulting, parsing, and the
resolved-config echo every command writes before running.

Each command has a resolver that reads every field once (a ``null`` value
reads as absent), fills defaults, applies command-line overrides and returns
a fully resolved dict.  Unknown keys are the keys a resolver never read.
Every block is checked, even one the command then drops (``jumps`` under
``model: heston``, ``threshold`` under ``estimator: kcv``, ``cv`` under a
fixed bandwidth), and the ``command`` key every echo carries is read and
ignored.  Resolvers parse, and check only the fields no domain object owns
(the ``model``, ``estimator`` and ``threshold`` words, a fixed bandwidth, CV
candidates, ``taus``, ``band_level``): builders turn the resolved dict into
domain objects whose constructors enforce the other numeric constraints,
and the CLI builds them all before it writes the echo, so every check that
needs no input file runs before anything is written.  Echo files are YAML
with sorted keys and can be passed straight back to --config for a
byte-identical rerun.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import yaml

from .bandwidth import _check_candidates, _check_window
from .errors import InvalidArgument, check_count, check_positive
from .estimators import ThresholdSpec
from .mc import THRESHOLD_CALIBRATED, THRESHOLD_DEFAULT, McConfig
from .simulate import CirParams, HestonConfig, JumpConfig

_HESTON_DEFAULT = asdict(HestonConfig())

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

_REQUIRED = object()


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


def _float(value, name: str) -> float:
    """A real-number field; bools and non-numeric values are rejected.  Numeric
    strings pass, because YAML 1.1 reads exponent forms such as ``1e-3`` as strings."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise InvalidArgument(f"{name} must be a number, got {value!r}")


def _str(value, name: str) -> str:
    """A non-empty string field; numbers and other values are rejected, not coerced."""
    if isinstance(value, str) and value:
        return value
    raise InvalidArgument(f"{name} must be a non-empty string, got {value!r}")


def _choice(*words):
    """A field that must be one of the given words."""

    def read(value, name: str) -> str:
        if value not in words:
            raise InvalidArgument(f"{name} must be {' or '.join(map(repr, words))}, got {value!r}")
        return value

    return read


_model = _choice("heston", "bates")
_estimator = _choice("kcv", "tkcv")


def _list_of(convert):
    """A list field whose entries pass through convert, named ``name[i]``;
    a scalar or a string is rejected, not iterated."""

    def read(value, name: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise InvalidArgument(f"{name} must be a list, got {value!r}")
        return [convert(x, f"{name}[{i}]") for i, x in enumerate(value)]

    return read


_floats = _list_of(_float)
_ints = _list_of(_int)
_strs = _list_of(_str)


def _pair(convert):
    """A list field of exactly two entries."""

    def read(value, name: str) -> list:
        items = convert(value, name)
        if len(items) != 2:
            raise InvalidArgument(f"{name} must list exactly 2 entries, got {value!r}")
        return items

    return read


class _Fields:
    """One mapping block of a config, named by its dotted path, and the keys
    read from it.  Being a converter itself, ``fields.get(key, _Fields, {})``
    reads a nested block; a null block reads as empty."""

    def __init__(self, raw, path: str = ""):
        if raw is not None and not isinstance(raw, dict):
            raise InvalidArgument(f"{path} must be a mapping, got {raw!r}")
        self.raw = {} if raw is None else raw
        self.path = path
        self.read: set = set()

    def get(self, key: str, convert, default=_REQUIRED):
        """convert(value, "path.key"); an absent or null value reads as the
        default, and a default of None leaves an optional field None."""
        self.read.add(key)
        name = f"{self.path}.{key}" if self.path else key
        value = self.raw.get(key)
        if value is None:
            if default is _REQUIRED:
                raise InvalidArgument(f"missing required config field: {name}")
            if default is None:
                return None
            value = default
        return convert(value, name)

    def close(self) -> None:
        """Reject every key that was never read."""
        unknown = sorted(str(k) for k in self.raw.keys() - self.read)
        if unknown:
            raise InvalidArgument(f"unknown {self.path or 'config'} field(s): {', '.join(unknown)}")


def _overridable(fields: _Fields, overrides: dict, key: str, convert, default=None):
    """A field that the ``--<key>`` option overrides.  The config value is
    read either way; without both, the default applies (None: required)."""
    value = fields.get(key, convert, default)
    if overrides.get(key) is not None:
        value = convert(overrides[key], key)
    if value is None:
        raise InvalidArgument(f"missing required config field: {key} (or pass --{key})")
    return value


def _cir(value, name: str) -> dict:
    c = _Fields(value, name)
    params = {k: c.get(k, _float) for k in ("kappa", "theta", "eta", "v0")}
    c.close()
    return params


def _heston(fields: _Fields, default: dict) -> dict:
    h = fields.get("heston", _Fields, {})
    out = {
        "mu": h.get("mu", _floats, default["mu"]),
        "rho": h.get("rho", _float, default["rho"]),
        "cir": h.get("cir", _list_of(_cir), default["cir"]),
    }
    h.close()
    return out


def _jumps(fields: _Fields) -> dict:
    j = fields.get("jumps", _Fields, {})
    out = {
        "intensity": j.get("intensity", _float, JumpConfig.intensity),
        "mean": j.get("mean", _floats, JumpConfig.mean),
        "sd": j.get("sd", _floats, JumpConfig.sd),
    }
    j.close()
    return out


def _threshold(value, name: str) -> dict | str:
    """'default', 'calibrated', or a fixed cutoff {c, beta, mode}."""
    if isinstance(value, str):
        return _choice(THRESHOLD_DEFAULT, THRESHOLD_CALIBRATED)(value, name)
    t = _Fields(value, name)
    entry = {
        "c": t.get("c", _float),
        "beta": t.get("beta", _float, ThresholdSpec.beta),
        "mode": t.get("mode", _str, ThresholdSpec.mode),
    }
    t.close()
    return entry


def _fixed_bandwidth(value, name: str) -> float:
    """A number h with 0 < h < inf, the bandwidths every estimate accepts."""
    return check_positive(_float(value, name), name)


def _bandwidth(value, name: str) -> float | str:
    """A fixed bandwidth, or 'cv' to select one by cross-validation."""
    return value if value == "cv" else _fixed_bandwidth(value, name)


def _candidates(value, name: str) -> list:
    """CV candidate bandwidths: none, or positive, finite and increasing."""
    candidates = _floats(value, name)
    if candidates:
        try:
            _check_candidates(candidates)
        except InvalidArgument as e:
            raise InvalidArgument(f"{name}: {e}") from None
    return candidates


def _window(value, name: str) -> list:
    """An interior window [t_l, t_u] with 0 < t_l < t_u."""
    window = _pair(_floats)(value, name)
    _check_window(window, name=name)
    return window


def _taus(value, name: str) -> dict | list:
    """Evaluation times: a list, or {start, stop, count} for an even grid."""
    if isinstance(value, (list, tuple)):
        taus = _floats(value, name)
        if not taus:
            raise InvalidArgument(f"{name} must list at least one time")
        if not all(b > a for a, b in zip(taus, taus[1:])):
            raise InvalidArgument(f"{name} must be strictly increasing, got {taus}")
        return taus
    if not isinstance(value, dict):
        raise InvalidArgument(f"{name} must be a list or a mapping, got {value!r}")
    t = _Fields(value, name)
    spec = {
        "start": t.get("start", _float),
        "stop": t.get("stop", _float),
        "count": t.get("count", _int, 101),
    }
    t.close()
    check_count(spec["count"], f"{name}.count")
    if spec["count"] > 1 and not spec["stop"] > spec["start"]:
        raise InvalidArgument(f"{name}.stop must exceed {name}.start when {name}.count > 1")
    return spec


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


def build_threshold(entry) -> ThresholdSpec | str | None:
    if not isinstance(entry, dict):
        return entry
    return ThresholdSpec(c=entry["c"], beta=entry["beta"], mode=entry["mode"])


def resolve_simulate(raw: dict, overrides: dict) -> dict:
    fields = _Fields(raw)
    fields.get("command", _str, None)
    model = fields.get("model", _model, "heston")
    resolved = {
        "command": "simulate",
        "model": model,
        "horizon": fields.get("horizon", _float, 2.0),
        "n": fields.get("n", _int),
        "seed": _overridable(fields, overrides, "seed", _int),
        "out": _overridable(fields, overrides, "out", _str),
        "heston": _heston(fields, _HESTON_DEFAULT),
    }
    jumps = _jumps(fields)
    if model == "bates":
        resolved["jumps"] = jumps
    fields.close()
    return resolved


def resolve_estimate(raw: dict, overrides: dict) -> dict:
    fields = _Fields(raw)
    fields.get("command", _str, None)
    estimator = fields.get("estimator", _estimator, "kcv")
    bandwidth = fields.get("bandwidth", _bandwidth, "cv")
    cv = fields.get("cv", _Fields, {})
    threshold = fields.get("threshold", _threshold, THRESHOLD_CALIBRATED)
    band_level = fields.get("band_level", _float, None)
    if band_level is not None and not (0.0 < band_level < 1.0):
        raise InvalidArgument(f"band_level must be in (0, 1), got {band_level}")
    resolved = {
        "command": "estimate",
        "prices": fields.get("prices", _str),
        "kernel": fields.get("kernel", _str, "gaussian"),
        "estimator": estimator,
        "bandwidth": bandwidth,
        "cv": {
            "candidates": cv.get("candidates", _candidates, []),
            "window": cv.get("window", _window, None),
        },
        "threshold": threshold if estimator == "tkcv" else None,
        "taus": fields.get("taus", _taus, None),
        "band_level": band_level,
        "out": _overridable(fields, overrides, "out", _str),
    }
    cv.close()
    fields.close()
    return resolved


def resolve_mc_study(raw: dict, overrides: dict) -> dict:
    fields = _Fields(raw)
    fields.get("command", _str, None)
    model = fields.get("model", _model, "heston")
    estimator = fields.get("estimator", _estimator, "kcv")
    threshold = fields.get("threshold", _threshold, THRESHOLD_CALIBRATED)
    jumps = _jumps(fields)
    bandwidth = fields.get("bandwidth", _bandwidth, McConfig.bandwidth)
    cv_candidates = fields.get("cv_candidates", _candidates, [])
    if bandwidth == "cv" and not cv_candidates:
        raise InvalidArgument("cv_candidates must list at least one bandwidth when bandwidth is 'cv'")
    resolved = {
        "command": "mc-study",
        "model": model,
        "reps": fields.get("reps", _int, McConfig.reps),
        "horizon": fields.get("horizon", _float, McConfig.horizon),
        "frequencies": fields.get("frequencies", _ints),
        "kernels": fields.get("kernels", _strs, McConfig.kernels),
        "estimator": estimator,
        "window": fields.get("window", _pair(_floats), McConfig.window),
        "bandwidth": bandwidth,
        "cv_candidates": cv_candidates,
        "threshold": threshold if estimator == "tkcv" else None,
        "element": fields.get("element", _pair(_ints), [1, 2]),
        "eval_points": fields.get("eval_points", _int, McConfig.eval_points),
        "seed": _overridable(fields, overrides, "seed", _int),
        "out": _overridable(fields, overrides, "out", _str),
        "heston": _heston(fields, _HESTON_DEFAULT),
        "threads": _overridable(fields, overrides, "threads", _int, 1),
    }
    if model == "bates":
        resolved["jumps"] = jumps
    fields.close()
    return resolved


def build_mc_config(resolved: dict) -> McConfig:
    """The jumps (kept under ``model: bates``) and the threshold (kept under
    ``estimator: tkcv``) pass through; ``bandwidth: cv`` becomes the candidates."""
    bandwidth = resolved["bandwidth"]
    return McConfig(
        reps=resolved["reps"],
        frequencies=tuple(resolved["frequencies"]),
        kernels=tuple(resolved["kernels"]),
        window=tuple(resolved["window"]),
        bandwidth=tuple(resolved["cv_candidates"]) if bandwidth == "cv" else bandwidth,
        master_seed=resolved["seed"],
        horizon=resolved["horizon"],
        heston=build_heston(resolved),
        jumps=build_jumps(resolved),
        threshold=build_threshold(resolved["threshold"]),
        element=(resolved["element"][0] - 1, resolved["element"][1] - 1),
        eval_points=resolved["eval_points"],
        n_workers=resolved["threads"],
    )


def resolve_forecast(raw: dict, overrides: dict) -> dict:
    fields = _Fields(raw)
    fields.get("command", _str, None)
    resolved = {
        "command": "forecast",
        "days": fields.get("days", _int),
        "n_per_day": fields.get("n_per_day", _int, 288),
        "split": fields.get("split", _float, 0.8),
        "horizons": fields.get("horizons", _ints, [1, 5, 22]),
        "kernel": fields.get("kernel", _str, "gaussian"),
        "bandwidth": fields.get("bandwidth", _fixed_bandwidth, 0.75),
        "seed": _overridable(fields, overrides, "seed", _int),
        "out": _overridable(fields, overrides, "out", _str),
        "heston": _heston(fields, _HESTON_FORECAST_DEFAULT),
    }
    fields.close()
    check_count(resolved["n_per_day"], "n_per_day", minimum=2)
    return resolved
