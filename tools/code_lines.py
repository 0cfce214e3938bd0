"""Count the code lines of a package: the lines that hold a token other
than a comment, a docstring or a line break, so blank lines, comment lines
and docstrings do not count.  A docstring here is any statement that is a
bare string, the first in a module, class or function body included.

    python3 tools/code_lines.py [DIR]

prints each module's count and the total, for the .py files under DIR
(default src/grascat).
"""
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path):
    """The number of code lines of the Python file at path."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in SKIP:
            continue
        if (tok.type == tokenize.STRING and (before is None or before.type in STATEMENT_START)
                and after is not None and after.type == tokenize.NEWLINE):
            continue  # a bare string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/grascat")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
