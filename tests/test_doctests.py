"""Collect the doctests embedded in library modules."""

import doctest

import schubsing.components
import schubsing.kl
import schubsing.patterns
import schubsing.perms
import schubsing.tangent


def test_doctests_pass():
    for module in (
        schubsing.components,
        schubsing.kl,
        schubsing.perms,
        schubsing.patterns,
        schubsing.tangent,
    ):
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
