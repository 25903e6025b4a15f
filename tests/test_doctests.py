"""Collect the doctests embedded in every module of the package."""

import ast
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import schubsing


def test_doctests_pass():
    names = ["schubsing"] + [
        info.name for info in pkgutil.walk_packages(schubsing.__path__, "schubsing.")
    ]
    assert {"schubsing.symgroup", "schubsing.kl", "schubsing.cli"} <= set(names)
    for name in names:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, name
        # A module that shows examples must have them collected.
        assert (result.attempted > 0) == (">>>" in inspect.getsource(module)), name


def _leading_literal(comment: str):
    """The shortest ", "-separated prefix of ``comment`` that is a Python literal.

    Returns ``(True, value)``, or ``(False, None)`` when no prefix is one
    (a comment of prose, not a value).
    """
    pieces = comment.split(", ")
    for k in range(1, len(pieces) + 1):
        try:
            return True, ast.literal_eval(", ".join(pieces[:k]))
        except (ValueError, SyntaxError):
            continue
    return False, None


def test_readme_python_api_block():
    """README's Python API block runs, and each ``# <literal>`` comment is its line's value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        is_literal, expected = _leading_literal(lines[stmt.end_lineno - 1].partition("# ")[2])
        if isinstance(stmt, ast.Expr) and is_literal:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == expected, (ast.unparse(stmt), got, expected)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 6
