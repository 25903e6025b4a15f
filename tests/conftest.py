"""Fixtures shared by the test modules, and the one ``SCHUBSING_N7`` gate."""

import inspect
import os
import textwrap

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "n7: S_7 sweeps, S_8 arrays and n = 9 queries (minutes of single-core time)"
    )


def pytest_collection_modifyitems(config, items):
    """Skip every test marked ``n7`` unless the environment sets SCHUBSING_N7."""
    if os.environ.get("SCHUBSING_N7"):
        return
    skip = pytest.mark.skip(reason="runs only with SCHUBSING_N7=1")
    for item in items:
        if item.get_closest_marker("n7"):
            item.add_marker(skip)


@pytest.fixture
def mutate(monkeypatch):
    """Patch ``cls.name`` with a copy recompiled from its source, ``old`` replaced by ``new``.

    A property is recompiled from its getter's source, decorator included.
    No file is edited, and the patch is undone after the test.
    """

    def patch(cls, name, old, new):
        func = getattr(cls, name)
        if isinstance(func, property):
            func = func.fget
        source = textwrap.dedent(inspect.getsource(func))
        assert source.count(old) == 1, old
        namespace = dict(func.__globals__)
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(cls, name, namespace[name])

    return patch
