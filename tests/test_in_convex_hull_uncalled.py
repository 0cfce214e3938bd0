"""The LP is outside the package's own paths: no module of ``src/grascat``
calls ``polytope.in_convex_hull``.  Vertices and Minkowski sums come from
the double description (``hull_of_points``) and the support-function
certificate (``_newton_hrep``); the LP is kept only for perfbench's
polytopes workload."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_in_convex_hull_not_called(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "in_convex_hull"
             or isinstance(node, ast.Attribute) and node.attr == "in_convex_hull"
             or isinstance(node, ast.alias) and node.name == "in_convex_hull"]
    assert not found, f"in_convex_hull named at {', '.join(found)}"
