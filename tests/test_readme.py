"""The README's library quick start runs as written, so it cannot go stale."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(code, "README.md (Library quick start)", "exec"), names)
    paths, fast = names["paths"], names["fast"]
    assert len(paths) == 2
    assert np.array_equal(paths[0].values, fast.values)  # the series without a cutoff
    assert names["report"].cell("gaussian", 2880).imse > 0
