"""The JSON wire format lives in one place: no module of ``src/grascat``
other than ``cli.py`` imports ``json``; the library modules take and
return plain subsets and numbers, and the CLI reads and writes them."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_json_only_in_cli(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert not found, f"json imported outside cli at {', '.join(found)}"
