"""The library is exact: no float literal and no use of the name ``float``
appears anywhere in ``src/grascat``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             or isinstance(node, ast.Name) and node.id == "float"]
    assert not found, f"float in the exact library at {', '.join(found)}"
