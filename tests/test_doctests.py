"""Collect the doctests embedded in every module of the package."""

import doctest
import importlib
import inspect
import pkgutil

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
