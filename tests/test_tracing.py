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
