"""Self-test of the benchmark's output checker and tracer guard.

    python -m pytest perfbench

Each case takes a genuine output of the program, confirms the checker
passes it, then corrupts it and asserts the job is counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bergspace import cli  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


def failed_jobs(checker, job, rc, output) -> int:
    rnd = run.Round(traced=False)
    rnd.jobs.append(run.JobRun(job, rc, 0.1, 0.1, 1.0, output))
    return run.check_round(checker, rnd, {})


def cli_stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.dispatch(list(argv)) == 0
    return buf.getvalue().encode()


def library_summary(job):
    call, summarise = child.LIBRARY[job.kind]
    return summarise(call(*job.args))


@pytest.mark.parametrize("job", workloads.README_COMMANDS, ids=lambda j: " ".join(j.args[:2]))
def test_readme_outputs_pass(checker, job):
    assert failed_jobs(checker, job, 0, cli_stdout(job.args)) == 0


def test_certificate_radius_below_every_root(checker):
    roots = (1.5 + 0.25j, -3 + 1j, 2j)
    coeffs = [checks.oracle.g_to_json(c) for c in checks.oracle.poly_from_roots(list(roots))]
    job = workloads.Job("certificate", (coeffs,), roots=roots)
    summary = library_summary(job)
    assert failed_jobs(checker, job, 0, summary) == 0
    bad = dict(summary, certified_radius=0.5 * min(abs(r) for r in roots))
    checker.counts.clear()
    assert failed_jobs(checker, job, 0, bad) == 1
    assert checker.counts["fta.wrong_certificates"] == 1


DECOMPOSE_SMALL = (
    workloads.Job("geometric", (3, 200)),
    workloads.Job("dedup", (5, 300)),
    workloads.Job("step-one", (7, 500)),
    workloads.Job("step-two", (3, 300)),
    workloads.Job("tail", (29, 1000)),
)


@pytest.mark.parametrize("job", DECOMPOSE_SMALL, ids=lambda j: j.kind)
def test_decompose_outputs_pass(checker, job):
    assert failed_jobs(checker, job, 0, library_summary(job)) == 0


def test_dedup_exponent_covered_twice(checker):
    job = DECOMPOSE_SMALL[1]
    summary = library_summary(job)
    summary["g"][-1][1].append(summary["q"][0])
    assert failed_jobs(checker, job, 0, summary) == 1


def test_wrong_norm_bound(checker):
    job = DECOMPOSE_SMALL[3]
    summary = library_summary(job)
    summary["bound"][0] += 1
    assert failed_jobs(checker, job, 0, summary) == 1


def test_library_error_is_a_failure(checker):
    assert failed_jobs(checker, DECOMPOSE_SMALL[0], 0, {"error": "ValueError: boom"}) == 1


def test_bertrand_row_without_prime(checker):
    job = workloads.cli("sweep", "bertrand", "--range", "1..20")
    out = cli_stdout(job.args)
    assert failed_jobs(checker, job, 0, out) == 0
    lines = out.decode().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",False"
    assert failed_jobs(checker, job, 0, ("\n".join(lines) + "\n").encode()) == 1


def test_exponent_covered_twice(checker):
    job = workloads.cli("decompose", "geometric", "--pk", "3", "--degree", "8")
    out = cli_stdout(job.args)
    assert failed_jobs(checker, job, 0, out) == 0
    report = json.loads(out)
    report["blocks"][-1]["terms"].append(report["blocks"][0]["terms"][0])
    assert failed_jobs(checker, job, 0, json.dumps(report).encode()) == 1


def test_exit_zero_where_three_expected(checker):
    job = workloads.TAIL_NOT_SMALL
    assert failed_jobs(checker, job, 3, b"") == 0
    assert failed_jobs(checker, job, 0, b"{}\n") == 1


def test_wrong_exact_value(checker):
    job = workloads.cli("primes", "norm", "--limit", "10000")
    out = cli_stdout(job.args)
    assert failed_jobs(checker, job, 0, out) == 0
    report = json.loads(out)
    report["pi_coeff"][0] += 1
    assert failed_jobs(checker, job, 0, json.dumps(report).encode()) == 1


def test_unreadable_output_is_a_failure(checker):
    job = workloads.cli("primes", "bertrand", "--n", "42")
    assert failed_jobs(checker, job, 0, b"not json") == 1


def test_missing_target_fails_loudly():
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer().install(targets=("primes.no_such_function",))


def test_layer_without_spans_fails_loudly():
    traced, plain = run.Round(traced=True), run.Round(traced=False)
    for rnd in (traced, plain):
        rnd.jobs.append(run.JobRun(workloads.TAIL_NOT_SMALL, 3, 0.1, 0.1, 1.0, b""))
    traced.layers["cli.dispatch"] = [0.1, 0.1, 1]
    traced.layers["primes.make_partition"] = [0.1, 0.1, 1]
    with pytest.raises(tracer.TracerError, match="rational"):
        run.per_layer(workloads.WORKLOADS["cli-readme"], [plain, traced], 2, 0)
