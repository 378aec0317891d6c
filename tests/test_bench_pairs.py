"""scripts/bench_pairs.py writes its JSON and exits 1 when any run reported wrong outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("wrong_seed, status", [(None, 0), (7, 1)])
def test_exit_status_reports_wrong_outputs(tmp_path, monkeypatch, wrong_seed, status):
    bench = _load()

    def fake_run(checkout, workload, seed, seconds):
        metrics = {name: 1.0 + seed for name in bench.METRICS}
        correct = not (seed == wrong_seed and checkout == tmp_path.resolve())
        return {"seed": seed, "correct": correct, "failed": 0, "attempted": 1, "env": {}, "metrics": metrics}

    monkeypatch.setattr(bench, "run", fake_run)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--workloads", "forecast",
            "--pairs", "3", "--seed", "5", "--json", str(out)]
    assert bench.main(argv) == status
    summary = json.loads(out.read_text())["summary"]["forecast"]
    assert summary["all_correct"] is (wrong_seed is None)
