"""The benchmark's layer tracer must find every function it wraps.

``perfbench/traced.py`` replaces package functions by name; a rename inside
``schubsing`` would otherwise only surface when a traced benchmark runs.
"""

import importlib
import importlib.util
from itertools import permutations
from pathlib import Path

import schubsing.slices
from schubsing.components import enumerate_components
from schubsing.perms import Permutation
from schubsing.sweep import verify_permutation

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
