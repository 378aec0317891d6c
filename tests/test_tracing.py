"""The benchmark's traced run wraps program functions by module attribute
(perfbench/tracing.py, POINTS).  A refactor that removes or renames one
of those names breaks `perfbench/run.py --trace 1`; this test fails first."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(tracing, path, attr):
    owner = tracing._owner(path)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_names_install_and_restore():
    tracing = _load_tracing()
    before = {(path, attr): _lookup(tracing, path, attr) for path, attr, _, _ in tracing.POINTS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (path, attr), orig in before.items():
            assert _lookup(tracing, path, attr).__wrapped__ is orig, f"{path}.{attr}"
    finally:
        tracer.uninstall()
    for (path, attr), orig in before.items():
        assert _lookup(tracing, path, attr) is orig, f"{path}.{attr}"


def _calls(stats, name):
    return int(stats.get(name, {}).get("calls", 0))


def test_covariance_sequences_stay_whole_arrays(tmp_path):
    """A band over a path and a forecast comparison are one call per stack,
    with no per-matrix CovMatrix on the way."""
    import yaml

    from spotcov import cli

    data = Path(__file__).parent / "data" / "fixture_prices.csv"
    estimate = tmp_path / "estimate.yaml"
    estimate.write_text(yaml.safe_dump({
        "prices": str(data), "bandwidth": 0.15, "band_level": 0.95,
        "taus": {"start": 0.2, "stop": 1.8, "count": 21},
    }))
    horizons = [1, 3, 5]
    forecast = tmp_path / "forecast.yaml"
    forecast.write_text(yaml.safe_dump({
        "days": 40, "n_per_day": 12, "split": 0.8, "horizons": horizons, "seed": 7,
    }))

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        stats = {}
        for name, command, config in (
            ("estimate", "estimate", estimate), ("forecast", "forecast", forecast)
        ):
            argv = [command, "--config", str(config), "--out", str(tmp_path / name)]
            _, stats[name] = tracer.job(lambda: cli.main(argv, standalone_mode=False))
    finally:
        tracer.uninstall()

    est, fc = stats["estimate"], stats["forecast"]
    assert (tmp_path / "estimate" / "bands.csv").exists()
    assert _calls(est, "estimators.omega") == 1
    assert _calls(est, "estimators.asymptotic_band") == 1
    assert (tmp_path / "forecast" / "losses.csv").exists()
    assert _calls(fc, "forecast.forecast_vhar") == 2 * len(horizons)
    assert _calls(fc, "forecast.losses") == 2 * 3 * len(horizons)
    for job in (est, fc):
        assert _calls(job, "timeseries.CovMatrix") == 0
