"""The per-shape cache layer lives in one place: no module of
``src/grascat`` other than ``combinat.py`` names ``lru_cache``; the others
cache what they build per shape through ``combinat.shape_cache``, so that
``combinat.clear_caches()`` empties every cache."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "combinat.py"],
                         ids=lambda p: p.name)
def test_lru_cache_only_in_combinat(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.alias) and "lru_cache" in (node.name, node.asname)
             or isinstance(node, ast.Name) and node.id == "lru_cache"
             or isinstance(node, ast.Attribute) and node.attr == "lru_cache"]
    assert not found, f"lru_cache outside combinat at {', '.join(found)}"
