"""The package namespace re-exports exactly each module's public names."""

from types import ModuleType

import pytest

import bergspace
from bergspace import decomposition, fta, primes, series

MODULES = [decomposition, fta, primes, series]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_reexported(module):
    for name in module.__all__:
        assert getattr(bergspace, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_reexport_outside_all(module):
    for name, obj in vars(bergspace).items():
        if name.startswith("_") or isinstance(obj, ModuleType):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            assert name in module.__all__, name
