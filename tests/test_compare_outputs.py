"""scripts/compare_outputs.py writes its JSON and exits 1 when any output differs between the checkouts."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _load():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "change_files, status",
    [
        ({"runs/a/spot_cov.csv": "1", "runs/a/config_echo.yaml": "2"}, 0),
        ({"runs/a/spot_cov.csv": "9", "runs/a/config_echo.yaml": "2"}, 1),
        ({"runs/a/spot_cov.csv": "1"}, 1),
        ({"runs/a/spot_cov.csv": "1", "runs/a/config_echo.yaml": "2", "runs/b/extra.csv": "3"}, 1),
    ],
    ids=["identical", "one-differs", "one-missing", "one-extra"],
)
def test_exit_status_reports_differences(tmp_path, monkeypatch, change_files, status):
    compare = _load()
    parent_files = {"runs/a/spot_cov.csv": "1", "runs/a/config_echo.yaml": "2"}
    change = tmp_path / "change"

    def fake_run(checkout, workdir):
        assert workdir.is_dir()
        return _write(workdir, change_files if checkout == change.resolve() else parent_files)

    monkeypatch.setattr(compare, "run", fake_run)
    out = tmp_path / "outputs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--json", str(out)]
    assert compare.main(argv) == status
    result = json.loads(out.read_text())
    assert result["files"] == len(parent_files.keys() | change_files.keys())
    assert (result["differ"] == []) is (status == 0)


def _write(workdir, files):
    """Write each file with its text; return the mapping, as run() returns hashes."""
    for name, text in files.items():
        (workdir / name).parent.mkdir(parents=True, exist_ok=True)
        (workdir / name).write_text(text)
    return dict(files)


def test_differing_csvs_report_largest_relative_difference_per_column(tmp_path, monkeypatch):
    compare = _load()
    parent_files = {
        "runs/a/mc_table.csv": "kernel,n,imse\ngaussian,100,2.0\nbeta,100,4.0\n",
        "runs/a/bands.csv": "time,lo,hi\n0.5,-inf,1.0\n1.0,0.0,2.0\n",
        "runs/a/losses.csv": "h,loss\n1,0.5\n",
        "runs/a/config_echo.yaml": "seed: 1\n",
    }
    change_files = {
        "runs/a/mc_table.csv": "kernel,n,imse\ngaussian,100,2.0\nbeta,100,4.000000000004\n",
        "runs/a/bands.csv": "time,lo,hi\n0.5,-inf,1.0\n1.0,1e-300,2.0\n",
        "runs/a/losses.csv": "h,loss\n1,0.5\n5,0.5\n",
        "runs/a/config_echo.yaml": "seed: 2\n",
    }
    change = tmp_path / "change"
    monkeypatch.setattr(
        compare, "run",
        lambda checkout, workdir: _write(workdir, change_files if checkout == change.resolve() else parent_files),
    )
    out = tmp_path / "outputs.json"
    assert compare.main(["--parent", str(tmp_path / "parent"), "--change", str(change), "--json", str(out)]) == 1
    result = json.loads(out.read_text())
    assert result["identical"] == 0
    rel = result["max_rel_diff"]
    assert sorted(rel) == ["runs/a/bands.csv", "runs/a/losses.csv", "runs/a/mc_table.csv"]
    assert rel["runs/a/mc_table.csv"] == {"n": 0.0, "imse": pytest.approx(1e-12, rel=1e-3)}
    assert rel["runs/a/bands.csv"] == {"time": 0.0, "lo": float("inf"), "hi": 0.0}
    assert rel["runs/a/losses.csv"] is None  # another row count: no cellwise comparison


def test_no_outputs_is_a_failure(tmp_path, monkeypatch):
    compare = _load()
    monkeypatch.setattr(compare, "run", lambda checkout, workdir: {})
    assert compare.main(["--parent", str(tmp_path), "--change", str(tmp_path)]) == 1


def test_simulate_configs_run_first_and_commands_come_from_fields(tmp_path, monkeypatch):
    compare = _load()
    configs = tmp_path / "configs"
    configs.mkdir()
    for name, text in (
        ("a_estimate.yaml", "prices: runs/sim/prices.csv\nbandwidth: 0.1\n"),
        ("b_study.yaml", "frequencies: [100]\nseed: 1\n"),
        ("c_forecast.yaml", "days: 40\nseed: 1\n"),
        ("z_simulate.yaml", "n: 100\nseed: 1\n"),
    ):
        (configs / name).write_text(text)
    ran = []

    def fake_subprocess_run(argv, cwd, **kwargs):
        ran.append((argv[3], Path(argv[5]).name))
        (Path(cwd) / f"{len(ran)}.csv").write_text(argv[3])
        return SimpleNamespace(returncode=0, stdout=f"ran {argv[3]}\n")

    monkeypatch.setattr(compare.subprocess, "run", fake_subprocess_run)
    work = tmp_path / "work"
    work.mkdir()
    files = compare.run(tmp_path, work)
    assert ran == [
        ("simulate", "z_simulate.yaml"),
        ("estimate", "a_estimate.yaml"),
        ("mc-study", "b_study.yaml"),
        ("forecast", "c_forecast.yaml"),
    ]
    stdouts = ["stdout/a_estimate.txt", "stdout/b_study.txt", "stdout/c_forecast.txt", "stdout/z_simulate.txt"]
    assert sorted(files) == ["1.csv", "2.csv", "3.csv", "4.csv", *stdouts]
    assert (work / "stdout/c_forecast.txt").read_text() == "ran forecast\n"


def test_a_changed_stdout_line_fails_the_comparison(tmp_path, monkeypatch):
    # the same files on both sides, but another CV-selected bandwidth printed
    compare = _load()
    for side in ("parent", "change"):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / "est.yaml").write_text("prices: p.csv\nbandwidth: cv\n")

    def fake_subprocess_run(argv, cwd, **kwargs):
        (Path(cwd) / "cv_curve.csv").write_text("h,cv_value\n0.1,1.0\n")
        h = "0.2" if Path(argv[5]).is_relative_to(tmp_path / "change") else "0.1"
        return SimpleNamespace(returncode=0, stdout=f"selected bandwidth h={h}\n")

    monkeypatch.setattr(compare.subprocess, "run", fake_subprocess_run)
    out = tmp_path / "outputs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--json", str(out)]
    assert compare.main(argv) == 1
    result = json.loads(out.read_text())
    assert (result["files"], result["identical"], result["differ"]) == (2, 1, ["stdout/est.txt"])
