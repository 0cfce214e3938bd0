"""The exact-number rule lives in one place: no module of ``src/grascat``
other than ``linalg.py`` imports or calls ``lcm``; the others clear
denominators through ``linalg._integral`` and ``linalg._primitive``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_lcm_only_in_linalg(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.alias) and "lcm" in (node.name, node.asname)
             or isinstance(node, ast.Name) and node.id == "lcm"
             or isinstance(node, ast.Attribute) and node.attr == "lcm"]
    assert not found, f"lcm outside linalg at {', '.join(found)}"
