"""The package's top level exports what README documents, and nothing else."""

import ast
from pathlib import Path

import schubsing

# README's Python API block, the types and errors those names take or
# raise, in_schubert (documented in README), BACKEND (read by
# perfbench/run.py) and the version.
PUBLIC = {
    "make_permutation",
    "parse_permutation",
    "is_smooth",
    "find_patterns",
    "tangent_dimension",
    "singular_components",
    "enumerate_components",
    "components_from_patterns",
    "kl_recursion",
    "build_slice",
    "verify_slice",
    "verify_all",
    "Permutation",
    "FlagMatrix",
    "ClassificationError",
    "SliceStructureError",
    "in_schubert",
    "BACKEND",
    "__version__",
}


def _readme_api_imports() -> set[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "schubsing"
        for alias in node.names
    }


def test_all_is_exactly_the_public_names():
    assert len(schubsing.__all__) == len(PUBLIC) == 19
    assert set(schubsing.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in schubsing.__all__:
        assert hasattr(schubsing, name), name
    namespace: dict = {}
    exec("from schubsing import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_readme_imports_only_public_names():
    imported = _readme_api_imports()
    assert len(imported) == 12
    assert imported <= set(schubsing.__all__)
