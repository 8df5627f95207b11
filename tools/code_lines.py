"""Count the code lines of the mixbounds package, the size its design aims to shrink.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or the end marker, and lies outside every module, class and
function docstring; a token spanning several lines counts on each of them.
So blank lines, comments and docstrings are not code, and a statement split
over lines counts once per line.

    python tools/code_lines.py [package directory]

prints each module's count and the total, for ``src/mixbounds`` by default.
Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "mixbounds"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
