"""The benchmark's stored reference outputs (perfbench/refs/*.npz) checked
in Tier-1: cases 0 and 1 of each workload run in process and must match
their references within perfbench/refs.py's tolerance (RTOL plus the
column floor) with an equal chosen bandwidth.  A change that moves an MC
table, a forecast loss or a CV choice beyond rounding fails here."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
refs = _load("refs")


@pytest.fixture(scope="module")
def references():
    return {name: refs.load(PERFBENCH / "refs" / f"{name}.npz") for name in workloads.WORKLOADS}


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_case_matches_reference(tmp_path, references, name, case):
    from spotcov import cli

    w = workloads.WORKLOADS[name]
    out = tmp_path / "out"
    argv = w.argv(w.write_inputs(tmp_path, case), out)
    assert argv[-2:] == ["--threads", "1"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv, standalone_mode=False)
    got = refs.capture(out, w.outputs(), buf.getvalue())
    assert refs.compare(references[name][case], got) == []
