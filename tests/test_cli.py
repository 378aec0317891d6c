import csv
import importlib.util
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spotcov import cli
from spotcov import config as cfgmod

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parents[1]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "spotcov.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def read_csv_floats(path: Path):
    with path.open() as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    return header, np.asarray(rows)


# Minimal valid configs that single rows of the tables below alter.
_EST = {"prices": str(DATA / "fixture_prices.csv"), "bandwidth": 0.1}
_EST_CV = {"prices": str(DATA / "fixture_prices.csv"), "bandwidth": "cv"}
_MC = {"reps": 2, "frequencies": [100], "seed": 1}
_BATES = {"model": "bates", "n": 480, "seed": 1}
_INF, _NAN = float("inf"), float("nan")
# CIR starts whose product overflows in the true covariance
_OVERFLOW_HESTON = {"rho": 0.9, "cir": [
    {"kappa": 5.0, "theta": 0.04, "eta": 0.5, "v0": 1e300},
    {"kappa": 4.0, "theta": 0.09, "eta": 0.4, "v0": 1e100},
]}


@pytest.fixture()
def sim_cfg(tmp_path):
    return write_yaml(
        tmp_path / "sim.yaml",
        {"model": "heston", "horizon": 2.0, "n": 480, "seed": 42},
    )


class TestSimulate:
    def test_creates_four_files(self, tmp_path, sim_cfg):
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", str(sim_cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "config_echo.yaml",
            "jump_times.csv",
            "prices.csv",
            "true_cov.csv",
        ]

    def test_rerun_byte_identical(self, tmp_path, sim_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(out1)).returncode == 0
        # rerun from the echoed config
        echo = out1 / "config_echo.yaml"
        assert run_cli("simulate", "--config", str(echo), "--out", str(out2)).returncode == 0
        for name in ("prices.csv", "true_cov.csv", "jump_times.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        base = {"model": "heston", "horizon": 2.0, "n": 480}
        one, seven = (write_yaml(tmp_path / f"s{seed}.yaml", {**base, "seed": seed}) for seed in (1, 7))
        flag, plain, again = tmp_path / "flag", tmp_path / "plain", tmp_path / "again"
        assert run_cli("simulate", "--config", str(one), "--seed", "7", "--out", str(flag)).returncode == 0
        assert run_cli("simulate", "--config", str(seven), "--out", str(plain)).returncode == 0
        assert (flag / "prices.csv").read_bytes() == (plain / "prices.csv").read_bytes()
        echo = flag / "config_echo.yaml"
        assert yaml.safe_load(echo.read_text(encoding="utf-8"))["seed"] == 7
        assert run_cli("simulate", "--config", str(echo), "--out", str(again)).returncode == 0
        for name in ("prices.csv", "true_cov.csv", "jump_times.csv"):
            assert (flag / name).read_bytes() == (again / name).read_bytes()

    def test_bates_records_jumps(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "b.yaml",
            {
                "model": "bates",
                "n": 480,
                "seed": 7,
                "jumps": {"intensity": 5.0, "sd": [0.05, 0.05]},
            },
        )
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv_floats(out / "jump_times.csv")
        assert header == ["time", "jump_1", "jump_2"]
        assert rows.shape[0] > 0

    def test_invalid_rho_exit_1(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "bad.yaml",
            {"model": "heston", "n": 480, "seed": 1, "heston": {"rho": 1.5}},
        )
        res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        assert "rho" in res.stderr

    def test_missing_config_exit_2(self, tmp_path):
        res = run_cli("simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path))
        assert res.returncode == 2

    def test_unknown_field_exit_1(self, tmp_path):
        cfg = write_yaml(tmp_path / "u.yaml", {"n": 480, "seed": 1, "rho": 0.5})
        res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        assert "unknown" in res.stderr

    def test_fractional_n_exit_1(self, tmp_path):
        cfg = write_yaml(tmp_path / "f.yaml", {"n": 2.5, "seed": 1})
        out = tmp_path / "x"
        res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 1
        assert "error: n must be an integer, got 2.5" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, raw, field",
        [
            ("simulate", {"n": 480, "seed": 1, "horizon": "abc"}, "horizon"),
            ("simulate", {"n": 480, "seed": 1, "heston": {"mu": [0.0, "abc"]}}, "heston.mu[1]"),
            (
                "simulate",
                {
                    "n": 480,
                    "seed": 1,
                    "heston": {
                        "cir": [
                            {"kappa": 5.0, "theta": 0.04, "eta": 0.5, "v0": 0.04},
                            {"kappa": 4.0, "eta": 0.4, "v0": 0.09},
                        ]
                    },
                },
                "heston.cir[1].theta",
            ),
            ("simulate", {"n": 480, "seed": 1, "heston": {"cir": [1, 2]}}, "heston.cir[0]"),
            ("forecast", {"days": 130, "seed": 1, "split": "abc"}, "split"),
            ("estimate", {**_EST, "band_level": 0}, "band_level"),
            ("estimate", {**_EST_CV, "cv": {"candidates": [0.1, 0.2], "window": []}}, "cv.window"),
            ("estimate", {**_EST_CV, "cv": {"candidates": [0.1, 0.2], "window": [0.5]}}, "cv.window"),
            ("estimate", {**_EST_CV, "cv": {"candidates": [0.1, 0.2], "window": [1.5, 0.5]}}, "cv.window"),
            ("estimate", _EST_CV, "cv.candidates"),
            ("estimate", {**_EST, "taus": {"start": 0.2, "stop": 1.8, "count": 0}}, "taus.count"),
            ("estimate", {**_EST, "taus": []}, "taus"),
            ("estimate", {**_EST, "taus": [1.0, 0.5]}, "taus must be strictly increasing"),
            ("estimate", {**_EST, "taus": {"start": 1.8, "stop": 0.2, "count": 5}}, "taus.stop"),
            ("estimate", {**_EST, "taus": {"start": 1.0, "stop": 1.0, "count": 3}}, "taus.stop"),
            ("estimate", {**_EST, "kernel": "foo"}, "unknown kernel 'foo'"),
            ("estimate", {**_EST, "estimator": "tkcv", "threshold": {"c": -1}}, "c must be positive"),
            ("estimate", {**_EST, "threshold": {"c": 1.0, "zz": 2}}, "unknown threshold field(s): zz"),
            ("simulate", {"n": 480, "seed": 1, "horizon": -1}, "horizon"),
            ("simulate", {"n": 480, "seed": 1, "jumps": {"intensity": "abc"}}, "jumps.intensity"),
            (
                "simulate",
                {"model": "bates", "n": 480, "seed": 1, "jumps": {"intensity": 1e12}},
                "intensity",
            ),
            ("mc-study", {**_MC, "window": [0.5]}, "window"),
            ("mc-study", {**_MC, "threads": 0}, "threads"),
            ("mc-study", {**_MC, "bandwidth": "cv", "cv_candidates": [-0.1, 0.2]}, "cv_candidates"),
            ("forecast", {"days": 130, "seed": 1, "horizons": [0]}, "horizons"),
            (
                "forecast",
                {"days": 40, "n_per_day": 12, "seed": 1, "horizons": [5, 1, 5]},
                "horizons must not repeat",
            ),
            ("estimate", {**_EST, "bandwidth": _INF}, "bandwidth must be positive and finite"),
            ("estimate", {**_EST, "bandwidth": 1e-310}, "bandwidth must have a finite reciprocal"),
            ("forecast", {"days": 130, "seed": 1, "bandwidth": _INF}, "bandwidth must be positive"),
            ("mc-study", {**_MC, "bandwidth": _INF}, "bandwidth must be positive and finite"),
            ("mc-study", {**_MC, "horizon": _INF}, "horizon must be positive and finite"),
            ("simulate", {"n": 480, "seed": 1, "heston": {"mu": [_INF, 0.0]}}, "mu must be finite"),
            ("simulate", {**_BATES, "jumps": {"sd": [_INF, 0.02]}}, "jump sd"),
            ("simulate", {**_BATES, "jumps": {"mean": [_NAN, 0.0]}}, "jump mean must be finite"),
            ("mc-study", {**_MC, "model": "bates", "jumps": {"sd": [_NAN, 0.02]}}, "jump sd"),
            ("estimate", {**_EST, "cv": {"candidates": [-1.0], "window": [1.5, 0.5]}}, "cv.candidates"),
            ("estimate", {**_EST, "cv": {"window": [1.5, 0.5]}}, "cv.window"),
            ("mc-study", {**_MC, "cv_candidates": [-1.0]}, "cv_candidates"),
            ("mc-study", {**_MC, "window": [0.5, 0.5001]}, "window and eval_points"),
            ("mc-study", {**_MC, "frequencies": [100, 100], "kernels": ["beta", "beta"]}, "frequencies"),
            ("mc-study", {**_MC, "kernels": ["beta", "beta"]}, "kernels must not repeat"),
            ("mc-study", {**_MC, "model": "merton"}, "model must be 'heston' or 'bates', got 'merton'"),
            ("mc-study", {**_MC, "estimator": "xkcv"}, "estimator must be 'kcv' or 'tkcv', got 'xkcv'"),
            ("mc-study", {**_MC, "bandwidth": "cv"}, "cv_candidates must list at least one bandwidth"),
            ("estimate", {**_EST, "taus": [_NAN]}, "taus[0] must be a finite time of at least 0, got nan"),
            ("estimate", {**_EST, "taus": [-0.5, 0.5]}, "taus[0] must be a finite time of at least 0, got -0.5"),
            ("estimate", {**_EST, "taus": {"start": _NAN, "stop": 1.8, "count": 3}}, "taus.start must be a finite"),
            ("estimate", {**_EST, "taus": {"start": 0.1, "stop": _INF, "count": 3}}, "taus.stop must be a finite"),
            ("mc-study", {**_MC, "element": [1, 3]}, "element[1] must be 1 or 2 (a 1-based asset index), got 3"),
        ],
        ids=[
            "horizon", "mu-entry", "cir-missing-key", "cir-not-mapping", "split",
            "band-level-zero", "cv-window-empty", "cv-window-short", "cv-window-reversed",
            "cv-no-candidates", "taus-count-zero", "taus-empty", "taus-decreasing",
            "taus-stop-below-start", "taus-stop-equals-start", "kernel-unknown", "threshold-c-negative",
            "unused-threshold-checked", "horizon-negative", "unused-jumps-checked",
            "jump-count", "mc-window-short", "mc-threads-zero", "mc-cv-candidates-negative",
            "forecast-horizon-zero", "forecast-horizons-repeat", "bandwidth-inf", "bandwidth-subnormal",
            "forecast-bandwidth-inf", "mc-bandwidth-inf", "mc-horizon-inf", "mu-inf",
            "jump-sd-inf", "jump-mean-nan", "mc-jump-sd-nan", "unused-cv-checked",
            "unused-cv-window-checked", "mc-unused-cv-candidates-checked", "mc-window-one-eval-time",
            "mc-frequencies-repeat", "mc-kernels-repeat", "mc-model-unknown",
            "mc-estimator-unknown", "mc-cv-no-candidates", "taus-nan", "taus-negative", "taus-start-nan",
            "taus-stop-inf", "mc-element-out-of-range",
        ],
    )
    def test_malformed_float_field_exit_1(self, tmp_path, command, raw, field):
        cfg = write_yaml(tmp_path / "bad.yaml", raw)
        out = tmp_path / "x"
        res = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert field in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, env",
        [(["--threads", "0"], None), (["--threads", "-1"], None), ([], {"SPOTCOV_THREADS": "0"})],
        ids=["flag-zero", "flag-negative", "env-zero"],
    )
    def test_threads_below_one_exit_1(self, tmp_path, args, env):
        cfg = write_yaml(tmp_path / "mc.yaml", _MC)
        out = tmp_path / "x"
        res = run_cli("mc-study", "--config", str(cfg), "--out", str(out), *args, env=env)
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert "threads (n_workers) must be an integer of at least 1" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "select-bandwidth"])
    def test_seed_rejected_where_unread(self, tmp_path, capsys, command):
        cfg = write_yaml(tmp_path / "est.yaml", {**_EST_CV, "cv": {"candidates": [0.1, 0.2]}})
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "7", "--threads", "1"],
                     standalone_mode=False)
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "error: --seed is not read by estimate or select-bandwidth: they draw no random numbers\n"
        )
        assert not out.exists()

    def test_bad_thread_env_exit_1(self, tmp_path, sim_cfg):
        res = run_cli(
            "simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "x"),
            env={"SPOTCOV_THREADS": "abc"},
        )
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "SPOTCOV_THREADS" in res.stderr

    @pytest.mark.parametrize(
        "command, raw, block",
        [
            ("simulate", {"n": 480, "seed": 1, "heston": [1, 2]}, "heston"),
            ("simulate", {"model": "bates", "n": 480, "seed": 1, "jumps": [1]}, "jumps"),
            (
                "estimate",
                {"prices": str(DATA / "fixture_prices.csv"), "cv": [1, 2]},
                "cv",
            ),
            (
                "estimate",
                {
                    "prices": str(DATA / "fixture_prices.csv"),
                    "bandwidth": 0.1,
                    "estimator": "tkcv",
                    "threshold": [1, 2],
                },
                "threshold",
            ),
            (
                "mc-study",
                {"reps": 2, "frequencies": [100], "estimator": "tkcv", "threshold": [1], "seed": 1},
                "threshold",
            ),
            ("forecast", {"days": 130, "seed": 1, "heston": [1, 2]}, "heston"),
        ],
        ids=["heston", "jumps", "cv", "threshold", "mc-threshold", "forecast-heston"],
    )
    def test_mapping_block_given_as_list_exit_1(self, tmp_path, command, raw, block):
        cfg = write_yaml(tmp_path / "bad.yaml", raw)
        res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert f"{block} must be a mapping" in res.stderr


class TestEstimate:
    def test_golden_file_from_naive_oracle(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "est.yaml",
            {
                "prices": str(DATA / "fixture_prices.csv"),
                "kernel": "gaussian",
                "bandwidth": 0.1,
                "taus": {"start": 0.2, "stop": 1.8, "count": 17},
            },
        )
        out = tmp_path / "est"
        res = run_cli("estimate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        got_h, got = read_csv_floats(out / "spot_cov.csv")
        want_h, want = read_csv_floats(DATA / "golden_spot_cov.csv")
        assert got_h == want_h
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10

    def test_huge_threshold_matches_kcv_output(self, tmp_path):
        base = {
            "prices": str(DATA / "fixture_prices.csv"),
            "kernel": "onesided",
            "bandwidth": 0.15,
            "taus": {"start": 0.3, "stop": 1.7, "count": 9},
        }
        cfg_k = write_yaml(tmp_path / "k.yaml", {**base, "estimator": "kcv"})
        cfg_t = write_yaml(
            tmp_path / "t.yaml",
            {**base, "estimator": "tkcv", "threshold": {"c": 1e9}},
        )
        out_k, out_t = tmp_path / "k", tmp_path / "t"
        assert run_cli("estimate", "--config", str(cfg_k), "--out", str(out_k)).returncode == 0
        assert run_cli("estimate", "--config", str(cfg_t), "--out", str(out_t)).returncode == 0
        assert (out_k / "spot_cov.csv").read_bytes() == (out_t / "spot_cov.csv").read_bytes()

    def test_missing_prices_exit_2(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "e.yaml",
            {"prices": str(tmp_path / "absent.csv"), "bandwidth": 0.1},
        )
        res = run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_malformed_csv_exit_1_with_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,asset_1\n0.0,0.0\n0.5,oops\n1.0,0.2\n")
        cfg = write_yaml(tmp_path / "e.yaml", {"prices": str(bad), "bandwidth": 0.1})
        res = run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert "line 3" in res.stderr

    def test_nonuniform_times_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,asset_1\n0.0,0.0\n0.4,0.1\n1.0,0.2\n")
        cfg = write_yaml(tmp_path / "e.yaml", {"prices": str(bad), "bandwidth": 0.1})
        res = run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert "non-uniform" in res.stderr

    def test_bands_written_when_requested(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "e.yaml",
            {
                "prices": str(DATA / "fixture_prices.csv"),
                "bandwidth": 0.15,
                "band_level": 0.95,
                "taus": [0.5, 1.0, 1.5],
            },
        )
        out = tmp_path / "o"
        res = run_cli("estimate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv_floats(out / "bands.csv")
        assert header[:3] == ["time", "s_1_1_lo", "s_1_1_hi"]
        assert rows.shape[0] == 3
        # intervals contain the point estimates
        _, est = read_csv_floats(out / "spot_cov.csv")
        assert np.all(rows[:, 1] <= est[:, 1]) and np.all(est[:, 1] <= rows[:, 2])


    def test_band_level_next_below_one_writes_infinite_bands(self, tmp_path):
        # (1 + level)/2 rounds to 1 at the largest double below 1: z is +inf
        cfg = write_yaml(
            tmp_path / "e.yaml",
            {"prices": str(DATA / "fixture_prices.csv"), "bandwidth": 0.15, "band_level": 1.0 - 2.0**-53, "taus": [0.5, 1.0]},
        )
        out = tmp_path / "o"
        res = run_cli("estimate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        _, rows = read_csv_floats(out / "bands.csv")
        assert np.all(rows[:, 1::2] == -np.inf) and np.all(rows[:, 2::2] == np.inf)


@pytest.mark.parametrize(
    "command, raw, message",
    [
        (
            # zero-weight beta estimates have no band; spot_cov.csv was once written before this error
            "estimate",
            {**_EST, "kernel": "beta", "bandwidth": 0.00122, "band_level": 0.95,
             "taus": {"start": 0.354, "stop": 0.710, "count": 20}},
            "error: asymptotic variance array has nonpositive diagonal entries",
        ),
        (
            # the squared errors overflow: once inf cells and a RuntimeWarning with exit 0
            "mc-study",
            {**_MC, "bandwidth": 0.001, "heston": {"rho": 0.9, "cir": [
                {"kappa": 5.0, "theta": 0.04, "eta": 0.5, "v0": 1e300},
                {"kappa": 4.0, "theta": 0.09, "eta": 0.4, "v0": 1e7},
            ]}},
            "error: kernel gaussian at frequency 100: error integrals are not finite (imse=inf, isb=inf)",
        ),
        (
            "simulate",
            {"n": 100, "seed": 1, "heston": _OVERFLOW_HESTON},
            "error: heston.cir: the true covariance is not finite; the variances reach 1e+300 and 1e+100",
        ),
        (
            "mc-study",
            {**_MC, "heston": _OVERFLOW_HESTON},
            "error: heston.cir: the true covariance is not finite; "
            "the variances reach 3.486784401000002e+299 and 4.3438845422363237e+99",
        ),
        (
            "forecast",
            {"days": 40, "n_per_day": 20, "horizons": [1], "bandwidth": 0.75, "seed": 1, "heston": _OVERFLOW_HESTON},
            "error: heston.cir: the true covariance is not finite; the variances reach 1e+300 and 1e+100",
        ),
    ],
    ids=["estimate-band-nonpositive", "mc-study-overflow", "simulate-truth-overflow",
         "mc-study-truth-overflow", "forecast-truth-overflow"],
)
def test_failed_run_writes_no_data_file(tmp_path, command, raw, message):
    cfg = write_yaml(tmp_path / "c.yaml", raw)
    out = tmp_path / "o"
    res = run_cli(command, "--config", str(cfg), "--out", str(out), env={"PYTHONWARNINGS": "error"})
    assert res.returncode == 1
    assert res.stderr == message + "\n"
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.yaml"]


@pytest.mark.parametrize(
    "command, raw, field",
    [
        ("estimate", {**_EST_CV, "cv": {"candidates": [float("nan")]}}, "cv.candidates"),
        ("estimate", {**_EST_CV, "cv": {"candidates": [0.1, float("inf")]}}, "cv.candidates"),
        ("estimate", {**_EST_CV, "cv": {"candidates": [0.2, 0.1]}}, "cv.candidates"),
        ("select-bandwidth", {**_EST_CV, "cv": {"candidates": [-0.1, 0.2]}}, "cv.candidates"),
        ("select-bandwidth", {**_EST_CV, "cv": {"candidates": [float("nan")]}}, "cv.candidates"),
        ("mc-study", {**_MC, "bandwidth": "cv", "cv_candidates": [float("nan")]}, "cv_candidates"),
    ],
    ids=["est-nan", "est-inf", "est-decreasing", "select-negative", "select-nan", "mc-nan"],
)
def test_bad_cv_candidates_exit_1_before_echo(tmp_path, capsys, command, raw, field):
    cfg = write_yaml(tmp_path / "cv.yaml", raw)
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert field in err and "candidates must" in err
    assert not (out / "config_echo.yaml").exists()


@pytest.mark.parametrize("model", ["heston", "bates"])
@pytest.mark.parametrize("estimator", ["kcv", "tkcv"])
@pytest.mark.parametrize("bandwidth", [0.05, "cv"])
def test_mc_study_words_map_to_one_field_each(model, estimator, bandwidth):
    raw = {
        **_MC, "out": "o", "model": model, "estimator": estimator, "bandwidth": bandwidth,
        "cv_candidates": [0.1, 0.2], "jumps": {"intensity": 2.0}, "threshold": "default",
    }
    cfg = cfgmod.build_mc_config(cfgmod.resolve_mc_study(raw, {}))
    assert (cfg.jumps is not None) == (model == "bates")
    if model == "bates":
        assert cfg.jumps.intensity == 2.0
    assert cfg.threshold == ("default" if estimator == "tkcv" else None)
    if bandwidth == "cv":
        assert cfg.bandwidth == (0.1, 0.2) and list(cfg.cv_grid.candidates) == [0.1, 0.2]
        assert (cfg.cv_grid.t_l, cfg.cv_grid.t_u) == cfg.window
    else:
        assert cfg.bandwidth == 0.05 and cfg.cv_grid is None


@pytest.mark.parametrize("command, base", [("estimate", _EST), ("mc-study", _MC)])
def test_exponent_string_bandwidth_accepted(tmp_path, command, base):
    # YAML 1.1 reads 5e-2 (no decimal point) as the string '5e-2'
    config = write_yaml(tmp_path / "cfg.yaml", {k: v for k, v in base.items() if k != "bandwidth"})
    config.write_text(config.read_text() + "bandwidth: 5e-2\n")
    assert yaml.safe_load(config.read_text())["bandwidth"] == "5e-2"
    echo = echo_in_process(command, config, tmp_path)
    assert echo is not None and yaml.safe_load(echo)["bandwidth"] == 0.05


class TestSelectBandwidth:
    def test_cv_curve_written(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "cv.yaml",
            {
                "prices": str(DATA / "fixture_prices.csv"),
                "kernel": "gaussian",
                "bandwidth": "cv",
                "cv": {"candidates": [0.05, 0.1, 0.2, 0.4]},
            },
        )
        out = tmp_path / "o"
        res = run_cli("select-bandwidth", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv_floats(out / "cv_curve.csv")
        assert header == ["h", "cv_value"]
        assert rows.shape == (4, 2)
        assert "selected bandwidth" in res.stdout


class TestMcStudy:
    def test_kernels_string_exit_1(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {"reps": 2, "frequencies": [100, 200], "kernels": "gaussian", "seed": 3},
        )
        res = run_cli("mc-study", "--config", str(cfg), "--out", str(tmp_path / "mc"))
        assert res.returncode == 1
        assert "error: kernels must be a list, got 'gaussian'" in res.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_study_names_its_first_failure(self, tmp_path, threads):
        # candidates far below the grid spacing leave every beta LOO estimate weightless
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {**_MC, "reps": 4, "kernels": ["beta"], "bandwidth": "cv", "cv_candidates": [1.0e-9, 2.0e-9]},
        )
        res = run_cli("mc-study", "--config", str(cfg), "--out", str(tmp_path / "mc"), "--threads", threads)
        assert res.returncode == 1
        assert res.stderr == (
            "error: 4 of 4 replications failed (indices [0, 1, 2, 3]); replication 0 raised "
            "InvalidState: every candidate bandwidth leaves all leave-one-out estimates weightless\n"
        )

    def test_smoke(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {
                "model": "heston",
                "reps": 2,
                "frequencies": [100, 200],
                "kernels": ["onesided"],
                "bandwidth": 0.2,
                "window": [0.5, 1.5],
                "eval_points": 11,
                "seed": 3,
            },
        )
        out = tmp_path / "mc"
        res = run_cli("mc-study", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv_floats_with_strings(out / "mc_table.csv")
        assert header == ["kernel", "n", "delta", "imse", "isb", "reps"]
        assert len(rows) == 2
        qq = out / "qq_pairs_onesided_n100.csv"
        assert qq.exists()
        with qq.open() as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "theoretical,empirical"
        assert len(lines) == 3  # header + one row per replication

    def test_table_rows_span_kernel_frequency_grid(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {
                "model": "heston",
                "reps": 2,
                "frequencies": [100, 200],
                "kernels": ["gaussian", "onesided", "beta"],
                "bandwidth": 0.2,
                "window": [0.5, 1.5],
                "eval_points": 7,
                "seed": 4,
            },
        )
        out = tmp_path / "mc"
        res = run_cli("mc-study", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv_floats_with_strings(out / "mc_table.csv")
        assert len(rows) == 6  # one row per kernel x frequency
        assert {(r[0], r[1]) for r in rows} == {
            (k, n) for k in ("gaussian", "onesided", "beta") for n in ("100", "200")
        }


def read_csv_floats_with_strings(path: Path):
    with path.open() as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


class TestForecastCmd:
    def test_smoke_and_short_history(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "f.yaml",
            {"days": 130, "n_per_day": 48, "split": 0.8, "seed": 5},
        )
        out = tmp_path / "f"
        res = run_cli("forecast", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv_floats_with_strings(out / "losses.csv")
        assert header == ["model", "horizon", "loss_name", "value"]
        assert len(rows) == 18
        assert (out / "coefficients.csv").exists()
        assert (out / "factors_vhar_rc.csv").exists()
        assert (out / "factors_vhar_kcv.csv").exists()

        short = write_yaml(
            tmp_path / "short.yaml",
            {"days": 130, "n_per_day": 48, "split": 0.15, "seed": 5},
        )
        res2 = run_cli("forecast", "--config", str(short), "--out", str(tmp_path / "g"))
        assert res2.returncode == 1
        assert "history" in res2.stderr

    def test_degenerate_kernel_measure_names_model_and_bandwidth(self, tmp_path):
        # a tiny bandwidth leaves the kernel-cov factors degenerate and the fit rank deficient
        cfg = write_yaml(
            tmp_path / "f.yaml",
            {"days": 130, "n_per_day": 48, "split": 0.8, "seed": 5, "bandwidth": 1e-200},
        )
        res = run_cli("forecast", "--config", str(cfg), "--out", str(tmp_path / "f"))
        assert res.returncode == 1
        assert "error: vhar-kcv (gaussian kernel, bandwidth 1e-200): rank-deficient design" in res.stderr


class TestDeterminismAcrossThreads:
    @pytest.mark.slow
    def test_mc_study_threads(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {
                "model": "heston",
                "reps": 24,
                "frequencies": [120],
                "kernels": ["gaussian"],
                "bandwidth": 0.2,
                "window": [0.5, 1.5],
                "eval_points": 11,
                "seed": 11,
            },
        )
        outputs = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            res = run_cli(
                "mc-study",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--threads",
                str(threads),
            )
            assert res.returncode == 0, res.stderr
            outputs[threads] = {
                name.name: name.read_bytes()
                for name in sorted(out.iterdir())
                if name.suffix == ".csv"
            }
        assert outputs[1] == outputs[2] == outputs[8]

    def test_mc_study_threads_across_replication_blocks(self, tmp_path):
        from spotcov.mc import BLOCK_REPS

        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {
                "model": "heston",
                "reps": BLOCK_REPS + 3,
                "frequencies": [60, 120],
                "kernels": ["gaussian", "onesided", "beta"],
                "estimator": "tkcv",
                "threshold": "calibrated",
                "bandwidth": 0.3,
                "window": [0.5, 1.5],
                "eval_points": 11,
                "seed": 13,
            },
        )
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            res = run_cli("mc-study", "--config", str(cfg), "--out", str(out), "--threads", str(threads))
            assert res.returncode == 0, res.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert len(outputs[1]) == 1 + 3 * 2
        assert outputs[1] == outputs[2]

    def test_env_var_thread_fallback(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "mc.yaml",
            {
                "model": "heston",
                "reps": 4,
                "frequencies": [100],
                "kernels": ["gaussian"],
                "bandwidth": 0.2,
                "window": [0.5, 1.5],
                "eval_points": 7,
                "seed": 13,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_cli("mc-study", "--config", str(cfg), "--out", str(out1))
        r2 = run_cli(
            "mc-study", "--config", str(cfg), "--out", str(out2), env={"SPOTCOV_THREADS": "2"}
        )
        assert r1.returncode == 0 and r2.returncode == 0
        assert (out1 / "mc_table.csv").read_bytes() == (out2 / "mc_table.csv").read_bytes()


class _Echoed(Exception):
    pass


def echo_in_process(command: str, config: Path, workdir: Path) -> bytes | None:
    """Run a command in-process up to its echo and return the echo bytes, or
    None when the config is rejected (exit 1, a SpotcovError).  Nothing past
    the echo runs: no input file is read and nothing is simulated."""
    echo = workdir / "config_echo.yaml"

    def stop(resolved):
        cfgmod.dump_echo(echo, resolved)
        raise _Echoed

    with mock.patch.object(cli, "_prepare", stop):
        try:
            cli.main([command, "--config", str(config), "--out", "x"], standalone_mode=False)
        except _Echoed:
            return echo.read_bytes()
        except SystemExit as e:
            assert e.code == 1
            return None
    raise AssertionError(f"{command} returned without writing its echo")


def assert_echo_round_trip(command: str, config: Path, workdir: Path) -> bytes | None:
    """Resolving the echo of a config gives the same echo."""
    first = echo_in_process(command, config, workdir)
    if first is not None:
        rerun = workdir / "rerun.yaml"
        rerun.write_bytes(first)
        assert echo_in_process(command, rerun, workdir) == first
    return first


_RESOLVERS = {
    "simulate": cfgmod.resolve_simulate,
    "estimate": cfgmod.resolve_estimate,
    "mc-study": cfgmod.resolve_mc_study,
    "forecast": cfgmod.resolve_forecast,
}


def _perfbench_config(workload: str, workdir: Path) -> tuple[str, Path]:
    """The subcommand and the config file of the benchmark workload's case 0."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (w,) = [w() for w in (workloads.EstimateCv, workloads.McJump, workloads.Forecast) if w.name == workload]
    return w.subcommand, w.write_inputs(workdir, 0)


def assert_echo_is_safe_dump(resolved: dict, workdir: Path) -> None:
    cfgmod.dump_echo(workdir / "echo.yaml", resolved)
    expected = yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False)
    assert (workdir / "echo.yaml").read_bytes() == expected.encode("utf-8")


# Per command: a minimal accepted config, and the fields a draw may edit.
_COMMANDS = {
    "simulate": ({"n": 100, "seed": 1}, "model horizon n seed out heston jumps"),
    "estimate": (
        {"prices": "prices.csv", "bandwidth": 0.1},
        "prices kernel estimator bandwidth cv threshold taus band_level out",
    ),
    "mc-study": (
        {"reps": 2, "frequencies": [100], "seed": 1},
        "model reps horizon frequencies kernels estimator window bandwidth cv_candidates "
        "threshold element eval_points seed out heston jumps threads",
    ),
    "forecast": (
        {"days": 130, "n_per_day": 8, "seed": 1},
        "days n_per_day split horizons kernel bandwidth seed out heston",
    ),
}
# A few accepted values per field, so that many drawn configs pass the checks.
_ACCEPTED = {
    "command": ["simulate"], "model": ["heston", "bates"], "horizon": [1.5], "n": [50],
    "seed": [7], "out": ["o"], "prices": ["p.csv"], "kernel": ["onesided", "beta"],
    "heston": [{"rho": -0.3, "mu": [0.1, 0.0]}, {"cir": [{"kappa": 1, "theta": 1, "eta": 0, "v0": 1}] * 2}],
    "jumps": [{"intensity": 2.0, "sd": [0.1, 0.0]}], "estimator": ["kcv", "tkcv"],
    "bandwidth": [0.05, "cv"], "cv": [{"candidates": [0.05, 0.1], "window": [0.3, 1.5]}],
    "threshold": ["default", {"c": 2.0, "beta": 0.3, "mode": "norm"}],
    "taus": [[0.5, 1.0], {"start": 0.2, "stop": 1.8, "count": 5}], "band_level": [0.9],
    "reps": [3], "frequencies": [[50, 100]], "kernels": [["beta", "gaussian"]],
    "window": [[0.3, 1.5]], "cv_candidates": [[0.1, 0.2]], "element": [[2, 1]],
    "eval_points": [5], "threads": [2], "days": [60], "n_per_day": [4], "split": [0.7],
    "horizons": [[1, 5]], "zz": [1],
}
_BLOCK_FIELDS = [
    "mu", "rho", "cir", "kappa", "theta", "eta", "v0", "intensity", "mean", "sd",
    "candidates", "window", "start", "stop", "count", "c", "beta", "mode", "zz",
]
# Magnitudes stay within 1000 so that a config the checks accept builds a
# small grid: the property is about parsing, not about memory.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 1000)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.sampled_from(["cv", "gaussian", "calibrated", "norm", "1e-2", "abc", ""])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_BLOCK_FIELDS) | st.integers(0, 2), inner, max_size=4),
    max_leaves=12,
)


def _edits(command: str):
    """Up to four fields of the command (or the key zz), each set to an
    accepted value or to any YAML value."""
    keys = st.sampled_from(_COMMANDS[command][1].split() + ["command", "zz"])
    item = keys.flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(_ACCEPTED[k]) | _VALUES))
    return st.lists(item, max_size=4).map(dict)


class TestConfigEcho:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_mapping_is_rejected_or_round_trips(self, tmp_path_factory, command, data):
        """Every check before the echo raises a SpotcovError or passes, and
        an accepted config echoes the same resolved config on a rerun."""
        edits = data.draw(_edits(command))
        workdir = tmp_path_factory.mktemp(command)
        config = workdir / "cfg.yaml"
        config.write_text(yaml.safe_dump({**_COMMANDS[command][0], **edits}, sort_keys=False))
        assert_echo_round_trip(command, config, workdir)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (Path(__file__).parents[1] / "configs").glob("*.yaml"))
    )
    def test_shipped_configs_resolve_and_round_trip(self, tmp_path, name):
        prefix = name.split("_")[0]
        command = prefix if prefix in _COMMANDS else "mc-study"
        config = Path(__file__).parents[1] / "configs" / name
        assert assert_echo_round_trip(command, config, tmp_path) is not None

    @pytest.mark.parametrize(
        "source",
        [f"configs/{p.name}" for p in sorted((ROOT / "configs").glob("*.yaml"))]
        + ["perfbench/estimate-cv", "perfbench/mc-jump", "perfbench/forecast"],
    )
    def test_config_io_reads_and_writes_what_pyyaml_does(self, tmp_path, source):
        """The loader in use reads the mapping yaml.SafeLoader reads, and the
        echo holds the bytes yaml.safe_dump writes."""
        kind, name = source.split("/")
        if kind == "perfbench":
            command, config = _perfbench_config(name, tmp_path)
        else:
            prefix = name.split("_")[0]
            command, config = (prefix if prefix in _COMMANDS else "mc-study"), ROOT / source
        raw = cfgmod.load_yaml(config)
        with config.open(encoding="utf-8") as f:
            assert raw == yaml.load(f, Loader=yaml.SafeLoader)
        resolved = _RESOLVERS[command](raw, {"seed": None, "out": str(tmp_path / "out"), "threads": None})
        assert_echo_is_safe_dump(resolved, tmp_path)

    @settings(max_examples=150, deadline=None)
    @given(out=st.text(min_size=1, max_size=120))
    def test_echo_is_safe_dump_for_any_out_path(self, tmp_path_factory, out):
        # libyaml wraps long escaped strings at other columns than PyYAML's emitter
        resolved = cfgmod.resolve_forecast({"days": 130}, {"seed": 1, "out": out, "threads": None})
        assert_echo_is_safe_dump(resolved, tmp_path_factory.mktemp("echo"))

    @pytest.mark.parametrize(
        "text, line",
        [("n: [480, 2\nseed: 1\n", 2), ("n: 480\n  seed: 1\n", 2), ("n: 480\nseed: 1\n\tmodel: heston\n", 3)],
        ids=["unclosed-flow", "indented-key", "tab-indent"],
    )
    def test_invalid_yaml_exit_1_names_its_line(self, tmp_path, text, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text, encoding="utf-8")
        res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        assert res.stderr.startswith("error: config is not valid YAML: ")
        assert f"line {line}, column" in res.stderr
        assert "Traceback" not in res.stderr


def test_estimate_with_bands_and_mc_study_load_no_scipy(tmp_path):
    est = write_yaml(tmp_path / "e.yaml", {**_EST, "band_level": 0.95, "taus": [0.5, 1.0, 1.5]})
    study = write_yaml(tmp_path / "mc.yaml", {**_MC, "eval_points": 11})
    calls = [
        ["estimate", "--config", str(est), "--out", str(tmp_path / "est")],
        ["mc-study", "--config", str(study), "--out", str(tmp_path / "mc")],
    ]
    script = (
        "import sys\n"
        "from spotcov.cli import main\n"
        f"for args in {calls!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as e:\n"
        "        assert not e.code, (args[0], e.code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "est" / "bands.csv").exists()
    assert list((tmp_path / "mc").glob("qq_pairs_*.csv"))


def test_cli_import_leaves_scipy_special_unloaded():
    # no command loads scipy (see the test above); importing the CLI must not either
    res = subprocess.run(
        [sys.executable, "-c", "import sys, spotcov.cli; print('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_leaves_the_process_pool_unloaded():
    # mc-study imports the pool only when it starts one; no other command pays for it
    res = subprocess.run(
        [sys.executable, "-c", "import sys, spotcov.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
