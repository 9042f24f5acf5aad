"""Every module-level import in the package and in the tests is used by
its module.

A name imported only so that another module can look it up there (the
names perfbench/spans.py wraps) carries `# noqa: F401` on its line, and
the package's `__init__.py` imports only to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ilitrack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind and that nothing
    in the module reads, except on lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                    bound[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import (\n"
        "    Mapping,\n"
        "    Sequence,\n"
        ")\n"
        "from .corpus import ingest  # noqa: F401\n"
        "import os.path\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: np", "line 4: Mapping"]
