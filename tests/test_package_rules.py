"""Rules every module of the package keeps, read off its syntax tree."""

import ast
from pathlib import Path

import skewtab

MODULES = sorted(Path(skewtab.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statement_and_no_private_relative_import():
    assert {"cli.py", "partitions.py"} <= {path.name for path in MODULES}
    leaks, asserts = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):  # python -O strips it; use exact.exact_div
                asserts.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                leaks += [
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not leaks, leaks
    assert not asserts, asserts
