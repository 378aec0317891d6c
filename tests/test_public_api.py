"""Every public name is used by something other than its own tests.

The rule: each name that ``spotcov/__init__.py`` imports must be referenced
somewhere other than its own ``def`` or ``class`` line, in one of the places
that run the paper's pipeline or show it to a reader: the package modules
``src/spotcov/*.py`` (``__init__.py`` itself excluded), ``README.md``,
``tests/test_acceptance.py`` or ``tests/oracles.py``.  A unit test of the
name does not count.  A new export therefore either gets a caller in one of
those places or is not exported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spotcov"
PLACES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + [
    ROOT / "README.md",
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "oracles.py",
]


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _unused(names: list[str]) -> list[str]:
    lines = [line for place in PLACES for line in place.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    return unused


def test_every_export_is_used_outside_its_own_tests():
    names = _exported_names()
    assert len(names) > 50  # the parse found the package's exports
    assert _unused(names) == []

