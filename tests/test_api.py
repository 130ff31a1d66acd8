"""The package namespace re-exports exactly each module's public names, and
every name the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
from pathlib import Path
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


TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_targets_resolve():
    # Loading the module only defines it; nothing is wrapped until install().
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for target in tracer.TARGETS:
        # the same lookup as Tracer.install, which exits the traced run on a miss
        module_name, *path = target.split(".")
        owner = importlib.import_module(f"bergspace.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(path[-1]) if owner is not None else None
        assert raw is not None, target
