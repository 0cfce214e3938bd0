"""README against the code: the names it spells resolve, the lines of its
CLI block parse, and the values its CLI comments give hold."""
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from grascat import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("cli", "combinat", "kinematics", "linalg", "polynomial", "polytope", "roots")
SPANS = re.findall(r"`([^`\n]+)`", README)


def _resolve(dotted):
    """The object that a name such as `roots._Fan.walls()` names in grascat,
    call parentheses stripped; AttributeError if some part is missing."""
    module, _, rest = re.sub(r"\(.*\)$", "", dotted).partition(".")
    obj = importlib.import_module(f"grascat.{module}")
    for part in rest.split("."):
        obj = getattr(obj, part)
    return obj


def _dotted_names():
    """Every backticked name that starts with a grascat module, such as
    `combinat._nonfrozen` or `roots._Fan.walls()`, without "grascat."."""
    pattern = re.compile(rf"(?:grascat\.)?((?:{'|'.join(MODULES)})\.[A-Za-z_][\w.]*(?:\(.*\))?)")
    return sorted({m[1] for m in map(pattern.fullmatch, SPANS) if m})


def _layout_rows():
    """(module, backticked identifiers) of each row of the layout table."""
    rows = re.findall(r"^\| `grascat\.(\w+)` \| (.*) \|$", README, re.MULTILINE)
    return [(module, re.findall(r"`([A-Za-z_][\w.]*)`", text)) for module, text in rows]


def _cli_lines():
    """The argument lists of the `grascat ...` lines of the CLI block, each
    with the comment it carries."""
    block = README.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("grascat ")]
    return [(shlex.split(line, comments=True)[1:], line.partition("#")[2].strip())
            for line in lines]


def test_readme_names_things():
    assert _dotted_names()
    assert {module for module, _ in _layout_rows()} == set(MODULES)
    assert len(_cli_lines()) >= 10


@pytest.mark.parametrize("dotted", _dotted_names())
def test_dotted_name_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("module,names", _layout_rows(), ids=[m for m, _ in _layout_rows()])
def test_layout_row_names_resolve_in_its_module(module, names):
    assert names
    for name in names:
        _resolve(f"{module}.{name}")


@pytest.mark.parametrize("argv", [argv for argv, _ in _cli_lines()], ids=" ".join)
def test_cli_line_parses(argv):
    cli.build_parser().parse_args(argv)


# the field of its JSON report that each commented value of the CLI block gives
FIELDS = {"nc count": "count", "amplitude": "value", "pk facets": "facets"}


def _commented_values():
    out = []
    for argv, comment in _cli_lines():
        value = re.search(r"\b\d+\b", comment)
        if value:
            command = " ".join(a for a in argv[:2] if not a.startswith("--"))
            out.append((command, argv, int(value[0])))
    return out


def test_every_commented_value_has_a_field():
    assert sorted(command for command, _, _ in _commented_values()) == sorted(FIELDS)


@pytest.mark.parametrize("command,argv,value", _commented_values(),
                         ids=[c for c, _, _ in _commented_values()])
def test_commented_value_holds(capsys, command, argv, value):
    assert cli.main(argv) == 0
    assert int(json.loads(capsys.readouterr().out)[FIELDS[command]]) == value
