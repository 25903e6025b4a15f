"""The benchmark's layer tracer must find every function it wraps.

``perfbench/traced.py`` replaces package functions by name; a rename inside
``schubsing`` would otherwise only surface when a traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


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
