"""Count code lines per Python file: lines that hold a token other than a
comment, a blank or a module, class or function docstring.

Usage: python3 tools/code_lines.py [DIRECTORY]   (default: src/bipancyclic)

Prints one "<lines> <file>" row per file, sorted by path, then the total.
A statement spread over several lines counts each of them; a docstring
counts none of its lines, whatever its length.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of source that hold a code token."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/bipancyclic")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
