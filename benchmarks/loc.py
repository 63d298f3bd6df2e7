"""Line counts of ``src/``: raw, and code-only (no docstring, comment or blank).

Every simplicity PR reports both; ``python3 benchmarks/loc.py [root]`` prints
``raw / code-only``, on a second line ``settings: N`` — the settable values of
the public surface, counted by :func:`settings` — and on a third ``public: N``,
the public names: every ``__all__`` entry plus the public methods of the
classes those entries export (:func:`public_names`).

``python3 benchmarks/loc.py --names [root]`` prints those names instead, one
``module:name`` or ``module:Class.method`` line each, sorted;
``tests/data/public_api.txt`` is that output for ``src/``, and
``tests/test_public_api.py`` fails when the two differ.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}  # fmt: skip
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _defaults(function: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settings(source: str) -> int:
    """Settable values of one module's public surface.

    Every parameter with a default of a function or method whose name has
    no leading underscore (``__init__`` counts), defined at module level or
    directly in a module-level class whose name has none either; plus every
    annotated field with a default of such a class decorated ``@dataclass``.
    """
    total = 0
    for node in ast.parse(source).body:
        if isinstance(node, _FUNCTIONS) and _public(node.name):
            total += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = _is_dataclass(node)
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and _public(member.name):
                    total += _defaults(member)
                elif dataclass and isinstance(member, ast.AnnAssign) and member.value is not None:
                    total += 1
    return total


def exported(source: str) -> list[str]:
    """The names in one module's ``__all__`` (none without one)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def public_methods(source: str, exported_names: set[str]) -> list[str]:
    """``Class.method`` for each method without a leading underscore of the
    module-level classes named in ``exported_names`` (any module's
    ``__all__``), listed where defined."""
    return [
        f"{node.name}.{member.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name in exported_names
        for member in node.body
        if isinstance(member, _FUNCTIONS) and not member.name.startswith("_")
    ]


def _module(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def public_names(root: Path) -> list[str]:
    """The sorted ``module:name`` lines of every ``__all__`` entry under
    ``root`` and ``module:Class.method`` lines of :func:`public_methods`."""
    sources = {_module(path, root): path.read_text() for path in sorted(root.rglob("*.py"))}
    exports = {module: exported(source) for module, source in sources.items()}
    every = {name for names in exports.values() for name in names}
    lines = [f"{module}:{name}" for module, names in exports.items() for name in names]
    lines += [
        f"{module}:{method}"
        for module, source in sources.items()
        for method in public_methods(source, every)
    ]
    return sorted(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).parent.parent / "src")
    parser.add_argument("--names", action="store_true", help="print the public names, sorted")
    args = parser.parse_args()
    names = public_names(args.root)
    if args.names:
        print("\n".join(names))
        sys.exit()
    sources = [path.read_text() for path in sorted(args.root.rglob("*.py"))]
    totals = [count(source) for source in sources]
    print(f"{sum(raw for raw, _ in totals)} / {sum(code for _, code in totals)}")
    print(f"settings: {sum(settings(source) for source in sources)}")
    print(f"public: {len(names)}")
