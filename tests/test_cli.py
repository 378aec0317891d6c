import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

DATA = Path(__file__).parent / "data"


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
        ],
        ids=["horizon", "mu-entry", "cir-missing-key", "cir-not-mapping", "split"],
    )
    def test_malformed_float_field_exit_1(self, tmp_path, command, raw, field):
        cfg = write_yaml(tmp_path / "bad.yaml", raw)
        res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert field in res.stderr

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
