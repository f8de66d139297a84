"""Count code lines and total lines per module of src/kooba.

A code line is one that is not blank, not comment-only and not part of a
module, class or function docstring. Run from the repository root:

    python tools/src_lines.py [DIR]

DIR defaults to src/kooba. Prints one row per module, then their sums.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/kooba")
    sums = [0, 0]
    print(f"{'module':<16}{'code':>7}{'total':>7}")
    for path in sorted(root.glob("*.py")):
        code, total = count_lines(path.read_text(encoding="utf-8"))
        sums[0] += code
        sums[1] += total
        print(f"{path.name:<16}{code:>7}{total:>7}")
    print(f"{'sum':<16}{sums[0]:>7}{sums[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
