"""Fixtures shared by the test modules."""

import inspect
import textwrap

import pytest


@pytest.fixture
def mutate(monkeypatch):
    """Patch ``cls.name`` with a copy recompiled from its source, ``old`` replaced by ``new``.

    No file is edited, and the patch is undone after the test.
    """

    def patch(cls, name, old, new):
        func = getattr(cls, name)
        source = textwrap.dedent(inspect.getsource(func))
        assert source.count(old) == 1, old
        namespace = dict(func.__globals__)
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(cls, name, namespace[name])

    return patch
