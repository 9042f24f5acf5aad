"""The traced benchmark run wraps library functions by module and name
(perfbench/spans.py ENTRY_POINTS); a rename or deletion there must fail here
rather than break `perfbench/run.py --trace 1`."""

import ast
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def entry_points():
    # Read the literal without importing the benchmark code.
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no ENTRY_POINTS")


def test_every_benchmark_entry_point_resolves():
    points = entry_points()
    assert points
    for module, attr, span in points:
        assert callable(getattr(import_module(module), attr)), (module, attr, span)
