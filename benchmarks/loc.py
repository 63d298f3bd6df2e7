"""Line counts of ``src/``: raw, and code-only (no docstring, comment or blank).

Every simplicity PR reports both; ``python3 benchmarks/loc.py [root]`` prints
``raw / code-only``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}  # fmt: skip
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """``(raw, code-only)`` line counts of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr):
            first = node.body[0].value
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent / "src")
    totals = [count(path.read_text()) for path in sorted(root.rglob("*.py"))]
    print(f"{sum(raw for raw, _ in totals)} / {sum(code for _, code in totals)}")
