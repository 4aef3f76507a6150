"""Count the net code lines of each module of src/filtra.

A net code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (module, class or function).
Blank lines, comment lines and docstrings are excluded.  The count is read
with tokenize and ast, so a string or bracket spread over several lines
counts every line it spans.

    python tools/net_lines.py [directory]

prints one line per module and the total; the directory defaults to
src/filtra of the checkout that holds this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def net_lines(source: str) -> int:
    """Number of lines of source that carry code outside comments and docstrings."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "filtra"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = net_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:20} {n:6,}")
    print(f"{'total':20} {total:6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
