"""The benchmark's workloads, generated from a seed.

A workload is a fixed list of jobs per round. ``cli-readme`` jobs are fresh
``python -m bergspace.cli`` processes; ``decompose`` and ``root-certs`` jobs
are library calls made by one fresh worker process per round. The seed only
shapes the inputs; the program sees nothing but the generated arguments.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import oracle

MODULES = ("cli", "primes", "rational", "series", "decomposition", "fta")


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI argv (``kind == "cli"``) or a library call."""

    kind: str
    args: tuple
    expect_rc: int = 0
    roots: tuple[complex, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    runs_cli: bool
    layers: tuple[str, ...]  # modules whose spans the traced run must see
    jobs: object = field(repr=False)  # (seed, round_index) -> list[Job]
    min_rounds: int = 1


def cli(*argv: str, expect_rc: int = 0, roots: tuple = ()) -> Job:
    return Job("cli", tuple(argv), expect_rc, roots)


# The twelve examples of the README's "Command line" section, verbatim.
README_COMMANDS = (
    cli("norm", "--series", "1@0,1@1", "--radius", "1"),
    cli("inner", "--f", "1@2", "--g", "1@2,1/2@3", "--radius", "1/2"),
    cli("fta-cert", "--poly", "6,-5,1", "--grid", "256x256", roots=(2, 3)),
    cli("primes", "norm", "--limit", "10000"),
    cli("primes", "bertrand", "--n", "42"),
    cli("primes", "twins", "--limit", "10000"),
    cli("primes", "euler", "--pk", "7"),
    cli("decompose", "geometric", "--pk", "3", "--degree", "8"),
    cli("decompose", "rough", "--pk", "3", "--degree", "100"),
    cli("decompose", "tail", "--pk", "29", "--p2-limit", "10000"),
    cli("sweep", "primes-norm", "--range", "10..100000", "--points", "5"),
    cli("sweep", "bertrand", "--range", "1..100"),
)

# Inputs the CLI must refuse with exit code 2; the seed picks one.
MALFORMED = (
    cli("primes", "norm", "--limit", "x", expect_rc=2),
    cli("norm", "--series", "1@-1", expect_rc=2),
    cli("fta-cert", "--poly", "1,2", expect_rc=2),
)

# The prime tail sum reaches 1 before 20000, so the majorant does not exist.
TAIL_NOT_SMALL = cli("decompose", "tail", "--pk", "29", "--p2-limit", "20000", expect_rc=3)


def cli_readme_jobs(seed: int, round_index: int) -> list[Job]:
    jobs = [*README_COMMANDS, MALFORMED[seed % len(MALFORMED)], TAIL_NOT_SMALL]
    random.Random(f"{seed}:{round_index}").shuffle(jobs)
    return jobs


CERT_JOBS = 120
FAMILIES = ("moderate", "spread", "cluster")
ROOT_GRID = 2**16  # roots are Gaussian rationals with denominator 2^16


def draw_roots(rng: random.Random, family: str, degree: int) -> list[complex]:
    """Roots from the three families of the root-disc soundness study:
    moduli uniform in 0.3-10, moduli uniform in 0.01-100, and a tight
    cluster around a centre of modulus 0.5-20. Each root is rounded to the
    2^-16 grid, so it is an exact, modestly sized Gaussian rational."""

    def polar(modulus: float) -> complex:
        return modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    if family == "moderate":
        roots = [polar(rng.uniform(0.3, 10.0)) for _ in range(degree)]
    elif family == "spread":
        roots = [polar(rng.uniform(0.01, 100.0)) for _ in range(degree)]
    else:
        centre = polar(rng.uniform(0.5, 20.0))
        roots = [centre * (1 + polar(rng.uniform(0.0, 1e-3))) for _ in range(degree)]
    return [complex(round(r.real * ROOT_GRID) / ROOT_GRID, round(r.imag * ROOT_GRID) / ROOT_GRID)
            for r in roots]


def root_certs_jobs(seed: int, round_index: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    # Family and degree cycle so every seed does the same mix of work;
    # the seed draws the roots and the order.
    for i in range(CERT_JOBS):
        family, degree = FAMILIES[i % 3], 2 + (i // 3) % 6
        roots = draw_roots(rng, family, degree)
        coeffs = [oracle.g_to_json(c) for c in oracle.poly_from_roots(roots)]
        jobs.append(Job("certificate", (coeffs,), roots=tuple(roots)))
    rng.shuffle(jobs)
    return jobs


# (kind, pk, D) of one decompose round: the decomposition builders and the
# two norm bounds at desk scale, sized so a round has eleven jobs of at most
# about 0.4 s and p50 / p90 fall among jobs of similar length.
DECOMPOSE_JOBS = (
    ("geometric", 3, 7000),
    ("geometric", 5, 2500),
    ("geometric", 7, 1500),
    ("dedup", 3, 1000),
    ("dedup", 5, 1500),
    ("dedup", 7, 2000),
    ("step-one", 3, 10000),
    ("step-one", 7, 30000),
    ("step-two", 3, 1000),
    ("step-two", 5, 1500),
    ("tail", 29, 10000),
)


def decompose_jobs(seed: int, round_index: int) -> list[Job]:
    """The seed raises each D by up to 1% and shuffles the order per round."""
    rng = random.Random(seed)
    jobs = [Job(kind, (pk, degree + rng.randrange(degree // 100 + 1)))
            for kind, pk, degree in DECOMPOSE_JOBS]
    random.Random(f"{seed}:{round_index}").shuffle(jobs)
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        # 8 rounds of 14 processes give at least 100 latency samples per run
        Workload("cli-readme", True, MODULES, cli_readme_jobs, min_rounds=8),
        # 10 rounds of 11 jobs give at least 100 latency samples per run
        Workload("decompose", False, ("primes", "rational", "series", "decomposition"),
                 decompose_jobs, min_rounds=10),
        # Not in BENCHMARK.json: a quarter of its certificates are wrong at
        # this commit (ROADMAP item 1), so its runs report correct: false.
        Workload("root-certs", False, ("fta",), root_certs_jobs),
    )
}
