"""Processes the benchmark runner starts, one at a time.

    python perfbench/child.py cli SPANS ARG...      traced CLI command
    python perfbench/child.py lib JOBS OUT [SPANS]  library worker

The traced CLI child times ``import bergspace.cli``, installs the tracer and
calls ``cli.dispatch``; its stdout and exit code are the CLI's own. The
library worker runs a JSON job list, timing each call, and writes per-job
wall and CPU seconds plus a JSON summary of each result for the checker;
summarising happens outside the timed region.
"""

from __future__ import annotations

import gc
import json
import sys
import time


def run_cli(spans_path: str, argv: list[str]) -> int:
    started = time.perf_counter()
    from bergspace import cli

    import_s = time.perf_counter() - started
    import tracer

    try:
        trace = tracer.Tracer().install()
    except tracer.TracerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return tracer.TRACER_EXIT
    rc = cli.dispatch(argv)
    sys.stdout.flush()
    trace.dump(spans_path, import_s=import_s)
    return rc


def certificate(coeffs):
    """The root-certs job: certificate, reciprocal expansion and its exact
    check, and the projection constant, for one polynomial. Names are looked
    up on the module at call time, so the tracer's wrappers see them."""
    from bergspace import fta
    from bergspace.rational import GaussianRational

    poly = fta.Polynomial([GaussianRational.from_json(c) for c in coeffs])
    report = fta.root_disc_certificate(poly)
    expansion = fta.reciprocal_taylor(poly, 32)
    holds = expansion.convolution_holds()
    return report, expansion, holds, fta.bergman_projection_constant(poly)


def certificate_summary(out) -> dict:
    report, expansion, holds, projection = out
    witness = report.root_witness
    return {
        "certified_radius": report.certified_radius,
        "root_witness": None if witness is None else [witness.real, witness.imag],
        "r0": [report.r0.numerator, report.r0.denominator],
        "reciprocal": [c.to_json() for _, c in expansion.series.terms()],
        "reciprocal_support": list(expansion.series.support),
        "convolution_holds": holds,
        "projection": projection.to_json(),
    }


def exponents(series) -> list[int]:
    return list(series.support)


def coefficient_set(series_list) -> list:
    """The distinct coefficients of the given series, for the checker."""
    distinct = {tuple(c.to_json()) for s in series_list for _, c in s.terms()}
    return [list(c) for c in sorted(distinct)]


def pair(value) -> list[int]:
    """A Fraction or a PiRational's real coefficient as [num, den]."""
    value = getattr(value, "coefficient", value)
    return [value.numerator, value.denominator]


def geometric(pk, degree):
    from bergspace import decomposition

    return decomposition.geometric_partition(pk, degree)


def geometric_summary(report) -> dict:
    series = [b.series for b in report.blocks]
    return {"blocks": [exponents(s) for s in series], "coeffs": coefficient_set(series)}


def dedup(pk, degree):
    from bergspace import decomposition

    return decomposition.rough_dedup(pk, degree, degree)


def dedup_summary(report) -> dict:
    series = [report.q_block] + [g for _, g in report.g_blocks]
    return {
        "q": exponents(report.q_block),
        "g": [[l, exponents(g)] for l, g in report.g_blocks],
        "h": [[l, *pair(h)] for l, h in report.h_norms],
        "coeffs": coefficient_set(series),
    }


def step_one(pk, degree):
    from bergspace import decomposition

    return decomposition.step_one_norm_bound(pk, degree)


def step_one_summary(bound) -> dict:
    return {"lhs": pair(bound.lhs), "rhs": pair(bound.rhs), "f": pair(bound.f_norm_sq),
            "smooth": pair(bound.smooth_recip_sum), "holds": bound.holds}


def step_two(pk, degree):
    from bergspace import decomposition

    return decomposition.step_two_norm_bound(pk, degree, degree)


def step_two_summary(bound) -> dict:
    return {"f": pair(bound.f_norm_sq), "q": pair(bound.q_norm_sq), "bound": pair(bound.bound),
            "holds": bound.holds}


def tail(pk, p2_limit):
    from bergspace import decomposition, primes

    return decomposition.rough_tail_geometric_bound(primes.make_partition(pk, p2_limit), p2_limit)


def tail_summary(bound) -> dict:
    return {"tail": pair(bound.tail), "geometric": pair(bound.geometric_bound),
            "partial": pair(bound.partial_sum), "holds": bound.holds, "terms": bound.terms}


LIBRARY = {  # kind -> (call, summarise)
    "certificate": (certificate, certificate_summary),
    "geometric": (geometric, geometric_summary),
    "dedup": (dedup, dedup_summary),
    "step-one": (step_one, step_one_summary),
    "step-two": (step_two, step_two_summary),
    "tail": (tail, tail_summary),
}


def run_lib(jobs_path: str, out_path: str, spans_path: str | None) -> int:
    sys.set_int_max_str_digits(0)
    import bergspace.decomposition  # noqa: F401  (imported before the timed loop)
    import bergspace.fta  # noqa: F401

    with open(jobs_path) as fh:
        jobs = json.load(fh)
    trace = None
    if spans_path:
        import tracer

        try:
            trace = tracer.Tracer().install()
        except tracer.TracerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return tracer.TRACER_EXIT
    # Each result is kept as a JSON string, which the cyclic garbage collector
    # does not traverse, and a collection runs before every call, so a job's
    # time does not depend on what the jobs before it left behind.
    results = []
    for index, (kind, args) in enumerate(jobs):
        call, summarise = LIBRARY[kind]
        if trace:
            trace.job = index
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            out = call(*args)
        except Exception as exc:  # reported as a failed job, never retried
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        summary = {"error": error} if error else summarise(out)
        del out
        results.append(json.dumps({"wall": wall, "cpu": cpu, "summary": summary}))
    with open(out_path, "w") as fh:
        fh.write("[" + ",".join(results) + "]")
    if trace:
        trace.dump(spans_path)
    return 0


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    return run_lib(rest[0], rest[1], rest[2] if len(rest) > 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
