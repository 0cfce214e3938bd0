"""The architecture rules of ``src/grascat``, one row each, and the one AST
walker that checks them: `rule_test` turns a row (the module it exempts, if
any, the message naming what it found and a predicate on AST nodes) into a
test over the package's modules, and over the files `ALSO` adds to a rule,
so a new rule is one more row and a call."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "grascat").glob("*.py"))
CLAIMS = Path(__file__).parent / "claims.py"


def _named(name):
    """The nodes that name ``name``: a bare name, an attribute, or an import
    under that name or as it."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.Attribute) and node.attr == name
                         or isinstance(node, ast.alias) and name in (node.name, node.asname))


RULES = {
    # the library is exact: no float literal and no use of the name float
    "float": (None, "float in the exact library",
              lambda node: isinstance(node, ast.Constant) and isinstance(node.value, float)
              or isinstance(node, ast.Name) and node.id == "float"),
    # the JSON wire format lives in one place: the library modules take and
    # return plain subsets and numbers, and the CLI reads and writes them
    "json": ("cli.py", "json imported outside cli",
             lambda node: isinstance(node, ast.Import)
             and any(a.name == "json" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "json"),
    # the exact-number rule lives in one place: the other modules clear
    # denominators through linalg._integral and linalg._primitive
    "lcm": ("linalg.py", "lcm outside linalg", _named("lcm")),
    # the per-shape cache layer lives in one place: the other modules cache
    # what they build per shape through combinat.shape_cache, so that
    # combinat.clear_caches() empties every cache
    "lru_cache": ("combinat.py", "lru_cache outside combinat", _named("lru_cache")),
    # the LP is outside the package's own paths: vertices and Minkowski sums
    # come from the double description (hull_of_points) and the
    # support-function certificate (_newton_hrep); the LP is kept only for
    # perfbench's polytopes workload
    "in_convex_hull": (None, "in_convex_hull named", _named("in_convex_hull")),
}

# rule: files outside the package that it also walks; the paper claims that
# moved out of the library to the tests stay exact
ALSO = {"float": [CLAIMS]}


def rule_test(rule):
    """The test of RULES[rule] over every module of the package it does not
    exempt."""
    exempt, message, hit = RULES[rule]

    @pytest.mark.parametrize("path", [p for p in SOURCES if p.name != exempt] + ALSO.get(rule, []),
                             ids=lambda p: p.name)
    def test(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if hit(node)]
        assert not found, f"{message} at {', '.join(found)}"

    return test
