"""The benchmark must find every package name it wraps, imports or reads.

``perfbench/traced.py`` replaces package functions by name, and
``perfbench/run.py`` imports the package's oracle and reads its stamp; a
rename inside ``schubsing`` would otherwise only surface when a benchmark
runs.
"""

import ast
import importlib
import importlib.util
from itertools import permutations
from pathlib import Path

import schubsing.slices
from schubsing.components import enumerate_components
from schubsing.perms import Permutation
from schubsing.sweep import verify_permutation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED_PY = PERFBENCH / "traced.py"
RUN_PY = PERFBENCH / "run.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only; main() is not called
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced_names()
    assert traced
    for module_name, attr in traced:
        target = importlib.import_module(f"schubsing.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"schubsing.{module_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"schubsing.{module_name}.{attr}"


def _guards_optional_import(func):
    """Whether ``func`` tries an import and gives up on ``ImportError``."""
    return any(
        isinstance(node, ast.ExceptHandler)
        and isinstance(node.type, ast.Name)
        and node.type.id == "ImportError"
        for node in ast.walk(func)
    )


def _package_names(tree):
    """(module, attribute) for each ``schubsing`` name the code imports or reads.

    Python source in string constants (the code handed to child processes)
    is read too.  A function that guards an optional import (a compiled
    extension the package does not ship) is skipped whole.
    """
    names = set()
    skipped = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and _guards_optional_import(func)
        for node in ast.walk(func)
    }
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "schubsing":
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.name, None) for a in node.names if a.name.split(".")[0] == "schubsing")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "schubsing"
        ):
            names.add(("schubsing", node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _package_names(ast.parse(node.value))
            except SyntaxError:
                pass  # prose, not code
    return names


def test_every_name_run_py_reads_resolves():
    """The set-up probe's stamp and the locus-s7 oracle exist under the names run.py uses."""
    names = _package_names(ast.parse(RUN_PY.read_text()))
    assert {
        ("schubsing", "BACKEND"),
        ("schubsing.symgroup", "symmetric_group"),
        ("schubsing.tangent", "singular_components"),
        ("schubsing.perms", "Permutation"),
    } <= names
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), f"{module_name}.{attr}"


def test_sweep_minors_run_through_the_traced_name(monkeypatch):
    """The tracer's minor span wraps ``slices.determinantal_model``; the sweep must reach it.

    Once per component pair, through the module attribute, so the sweep's
    minor time stays inside that span.
    """
    calls = []
    real = schubsing.slices.determinantal_model

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(schubsing.slices, "determinantal_model", counted)
    pairs = 0
    for values in permutations(range(1, 6)):
        w = Permutation(values)
        pairs += len(enumerate_components(w))
        assert verify_permutation(w, trials=3)["ok"]
    assert len(calls) == pairs == 41
