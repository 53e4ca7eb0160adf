"""Run every docstring example shipped in the library modules."""

import doctest

import pytest

from grassperm import (
    dyck,
    grassmann,
    kernels,
    parity,
    patterns,
    perms,
    schroder,
)

MODULES = [perms, grassmann, patterns, dyck, schroder, parity, kernels]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
