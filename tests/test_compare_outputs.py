"""scripts/compare_outputs.py writes its JSON and exits 1 when any output differs between the checkouts."""

import importlib.util
import json
from pathlib import Path

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
        return dict(change_files if checkout == change.resolve() else parent_files)

    monkeypatch.setattr(compare, "run", fake_run)
    out = tmp_path / "outputs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--json", str(out)]
    assert compare.main(argv) == status
    result = json.loads(out.read_text())
    assert result["files"] == len(parent_files.keys() | change_files.keys())
    assert (result["differ"] == []) is (status == 0)


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

    class Done:
        returncode = 0

    def fake_subprocess_run(argv, cwd, **kwargs):
        ran.append((argv[3], Path(argv[5]).name))
        (Path(cwd) / f"{len(ran)}.csv").write_text(argv[3])
        return Done()

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
    assert sorted(files) == ["1.csv", "2.csv", "3.csv", "4.csv"]
