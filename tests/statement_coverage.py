"""Statement coverage of ``src/`` under the tier-1 tests, with the standard
library only.

Runs the tests under ``tests/`` in this process with a ``sys.settrace``
tracer that records the lines run in ``src/``, then lists every statement
of ``src/`` that never ran, as ``path:line``. A statement counts as run when
a line in its span ran (for ``def`` and ``class``, its decorators
included). Left out: docstrings, ``global`` and ``nonlocal`` declarations,
which run no code, and the ``if __name__ == "__main__":`` guard with its
body, which the tests do not run as a script. Exits non-zero when a test
fails or a statement never ran.

pytest does not collect this file; run it from the repository root:

    python tests/statement_coverage.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(path: Path) -> list:
    """``(first, last)`` line spans of the statements of the module at
    ``path`` that must run."""
    spans = []

    def visit(body, top):
        for i, node in enumerate(body):
            if i == 0 and _is_docstring(node):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if top and _is_main_guard(node):
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            spans.append((first, node.end_lineno))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), False)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, False)
            for case in getattr(node, "cases", []):
                visit(case.body, False)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, True)
    return spans


def main() -> int:
    sources = {str(p): p for p in sorted(SRC.rglob("*.py"))}
    ran = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    # the package is imported from this tree, under the names traced here
    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for name, path in sources.items():
        lines = ran[name]
        for first, last in statements(path):
            if not any(line in lines for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}")
    for entry in missed:
        print(f"never run: {entry}")
    print(f"{len(missed)} statements of src/ never run under the tier-1 tests")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main())
