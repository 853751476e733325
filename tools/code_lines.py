"""Count the code lines of Python modules: lines that hold a token other
than a comment, with docstrings and blank lines left out.

Usage: python3 tools/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them.  The script
prints one line per module, its code lines then its path, and a total for
each PATH given; it reports and gates nothing.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as fp:
        for tok in tokenize.tokenize(fp.readline):
            if tok.type in _SKIPPED or tok.type == tokenize.ENCODING:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for top in map(Path, argv):
        modules = sorted(top.rglob("*.py")) if top.is_dir() else [top]
        total = 0
        for module in modules:
            count = code_lines(module)
            total += count
            print(f"{count:6d}  {module}")
        print(f"{total:6d}  {top} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
