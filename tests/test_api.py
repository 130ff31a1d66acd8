"""The package namespace re-exports exactly each module's public names, and
every name the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import bergspace
from bergspace import decomposition, errors, fta, primes, rational, series

MODULES = [decomposition, fta, primes, series, rational, errors]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_reexported(module):
    for name in module.__all__:
        assert getattr(bergspace, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_reexport_outside_all(module):
    # the namespace is lazy, so walk what it offers rather than what it holds
    for name in {*bergspace.__all__, *dir(bergspace)}:
        if name.startswith("_"):
            continue
        obj = getattr(bergspace, name)
        if isinstance(obj, ModuleType):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            assert name in module.__all__, name


def test_all_is_the_union_of_the_module_exports():
    exported = [name for module in MODULES for name in module.__all__]
    assert len(exported) == len(set(exported))
    assert sorted(bergspace.__all__) == sorted(exported)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bergspace.no_such_name
    assert not hasattr(bergspace, "GAUSSIAN_ONE")  # public in rational, not exported


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


BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# One round of a workload's jobs under the tracer; prints the sorted modules
# whose spans were recorded and the workload's layers, as JSON.
ROUND_UNDER_TRACER = """
import contextlib, io, json, sys
import child, tracer
from workloads import WORKLOADS
from bergspace import cli

workload = WORKLOADS[sys.argv[1]]
trace = tracer.Tracer().install()
for job in workload.jobs(0, 0):
    if job.kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.dispatch(list(job.args)) == job.expect_rc, job.args
    else:
        child.LIBRARY[job.kind][0](*job.args)
recorded = sorted({span[0].split(".")[0] for span in trace.spans})
print(json.dumps([recorded, sorted(workload.layers)]))
"""


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
)
def test_every_benchmark_layer_records_a_span(workload):
    # The benchmark's traced runs refuse a workload whose claimed layer
    # records nothing; check that here rather than in a 55 s benchmark run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TRACER_PATH.parents[1] / "src"), str(TRACER_PATH.parent)]))
    done = subprocess.run(
        [sys.executable, "-c", ROUND_UNDER_TRACER, workload],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    recorded, layers = json.loads(done.stdout)
    assert set(layers) <= set(recorded)
