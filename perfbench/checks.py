"""Output checks for every benchmark job, against the oracles in oracle.py.

``Checker.check_cli`` and ``Checker.check_lib`` take a job and what it
produced and return the list of problems found (empty when the output is
right); certificate diagnostics accumulate in ``Checker.counts``.
Exact values are compared exactly for limits up to 1e4 and to 1e-12
relative above that; a certificate is right when some known root r has
|r| <= R* (1 + 1e-6).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import oracle
from workloads import Job

EXACT_LIMIT = 10_000
REL_TOL = 1e-12
CERT_SLACK = 1e-6
INNER_CELL_FRACTION = 1e-6  # default QuadratureGrid.min_radius_fraction
RECIPROCAL_DEGREE = 32
SIEVE_LIMIT = 200_000  # covers every prime any workload's oracle needs


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected) + 1e-300


def opt(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def as_fraction(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


class Checker:
    """Checks job outputs; ``counts`` gathers the certificate diagnostics
    (wrong certificates, near-zero witnesses, inner cells beyond every root)."""

    def __init__(self):
        # reports carry integers far beyond the default 4300-digit guard
        sys.set_int_max_str_digits(0)
        self.primes = oracle.sieve(SIEVE_LIMIT)
        self.counts: Counter = Counter()
        self._memo: dict = {}

    # -- shared value checks -------------------------------------------------

    def _pi_value(self, num, den, shown: float, limit: int, exact: Fraction | None,
                  approx: float) -> list[str]:
        """A pi-multiple reported as num/den plus its float rendering."""
        value = int(num) / int(den)
        problems = []
        if limit <= EXACT_LIMIT:
            if Fraction(int(num), int(den)) != exact:
                problems.append(f"value {num}/{den} != {exact}")
        elif not close(value, approx):
            problems.append(f"value {value!r} != {approx!r}")
        if not close(float(shown), value * math.pi):
            problems.append(f"float {shown} != {value * math.pi!r}")
        return problems

    def _reference(self, kind: str, n: int) -> tuple[Fraction | None, float]:
        """(exact value if n <= EXACT_LIMIT, float value) of a prime sum:
        the Bertrand window (n, 2n], or primes / twin primes up to n."""
        key = (kind, n)
        if key not in self._memo:
            if kind == "bertrand":
                window = oracle.prime_window(self.primes, n, 2 * n)
            elif kind == "twins":
                window = oracle.twin_window(self.primes, n)
            else:
                window = oracle.upto(self.primes, n)
            limit = 2 * n if kind == "bertrand" else n
            exact = oracle.recip_succ(window, True) if limit <= EXACT_LIMIT else None
            self._memo[key] = exact, oracle.recip_succ(window, False)
        return self._memo[key]

    def _coverage(self, blocks: list[list[int]], expected: list[int]) -> list[str]:
        seen: Counter = Counter()
        for block in blocks:
            seen.update(block)
        twice = sorted(e for e, k in seen.items() if k > 1)
        problems = [f"exponent {twice[0]} covered {seen[twice[0]]} times"] if twice else []
        if sorted(seen) != expected:
            problems.append("covered exponents differ from the expected set")
        return problems

    def _dedup(self, pk: int, degree: int, q: list[int], g: list, h: list) -> list[str]:
        rough = oracle.rough_upto(self.primes, pk, degree)
        problems = self._coverage([q] + [block for _, block in g], rough)
        if [l for l, _ in g] != rough or [row[0] for row in h] != rough:
            return problems + ["dilation indices differ from the rough numbers"]
        primes = oracle.prime_window(self.primes, pk - 1, degree)
        q_norm = oracle.unit_norm(q)
        for (l, block), (_, num, den) in zip(g, h):
            h_norm = Fraction(int(num), int(den))
            if h_norm != oracle.unit_norm(l * p for p in primes if l * p <= degree):
                problems.append(f"||H_{l}||^2 differs from the dilated prime block")
            if not oracle.unit_norm(block) <= h_norm <= Fraction(2, l) * q_norm:
                problems.append(f"norm chain fails at l = {l}")
        return problems

    def _tail(self, pk: int, p2_limit: int, got: dict) -> list[str]:
        """The rough-tail bound summed over l <= p2_limit."""
        tail, geometric, partial = oracle.rough_tail(self.primes, pk, p2_limit, p2_limit)
        problems = [
            f"{key} differs from the oracle"
            for key, want in (("tail", tail), ("geometric", geometric), ("partial", partial))
            if as_fraction(got[key]) != want
        ]
        if got["holds"] != (partial <= geometric) or got["terms"] != p2_limit:
            problems.append("holds/terms differ from the oracle")
        return problems

    # -- CLI jobs ------------------------------------------------------------

    def check_cli(self, job: Job, rc: int, stdout: bytes) -> list[str]:
        if rc != job.expect_rc:
            return [f"exit code {rc}, expected {job.expect_rc}"]
        if job.expect_rc != 0:
            return [] if not stdout else ["report printed on a failing exit"]
        argv = job.args
        text = stdout.decode()
        if argv[0] == "sweep":
            return self._sweep(argv, list(csv.reader(io.StringIO(text))))
        report = json.loads(text)
        command = argv[0] if argv[0] in ("norm", "inner", "fta-cert") else " ".join(argv[:2])
        return getattr(self, "_cli_" + command.replace(" ", "_").replace("-", "_"))(
            argv, report, job
        )

    def _cli_norm(self, argv, report, job):
        radius = Fraction(opt(argv, "--radius"))
        terms = _real_series(opt(argv, "--series"))
        want = sum(c * c * radius ** (2 * e + 2) / (e + 1) for e, c in terms.items())
        return self._pi_value(*report["pi_coeff"], report["float"], 0, want, float(want))

    def _cli_inner(self, argv, report, job):
        radius = Fraction(opt(argv, "--radius"))
        f, g = _real_series(opt(argv, "--f")), _real_series(opt(argv, "--g"))
        want = sum(c * g[e] * radius ** (2 * e + 2) / (e + 1) for e, c in f.items() if e in g)
        return self._pi_value(*report["pi_coeff"], report["float"], 0, want, float(want))

    def _cli_fta_cert(self, argv, report, job):
        return self._certificate(report["certified_radius"], job.roots)

    def _cli_primes_norm(self, argv, report, job):
        limit = int(opt(argv, "--limit"))
        return self._pi_value(*report["pi_coeff"], report["float"], limit,
                              *self._reference("primes", limit))

    def _cli_primes_twins(self, argv, report, job):
        limit = int(opt(argv, "--limit"))
        return self._pi_value(*report["pi_coeff"], report["float"], limit,
                              *self._reference("twins", limit))

    def _cli_primes_bertrand(self, argv, report, job):
        n = int(opt(argv, "--n"))
        problems = [] if report["prime_found"] is True else ["prime_found is not true"]
        if report["n"] != n:
            problems.append("n differs")
        return problems + self._pi_value(*report["pi_coeff"], report["float"], 2 * n,
                                         *self._reference("bertrand", n))

    def _cli_primes_euler(self, argv, report, job):
        num, den = oracle.euler_product(self.primes, int(opt(argv, "--pk")))
        got_num, got_den = map(int, report["product"])
        if got_num * den != num * got_den:
            return ["Euler product differs from the direct product"]
        return [] if close(report["float"], got_num / got_den) else ["float rendering differs"]

    def _cli_decompose_geometric(self, argv, report, job):
        degree = int(opt(argv, "--degree"))
        blocks = [[e for e, c in b["terms"]] for b in report["blocks"]]
        coeffs_ok = all(c == [1, 1, 0, 1] for b in report["blocks"] for _, c in b["terms"])
        problems = self._coverage(blocks, list(range(degree + 1)))
        return problems + ([] if coeffs_ok else ["a block coefficient is not 1"])

    def _cli_decompose_rough(self, argv, report, job):
        pk, degree = int(opt(argv, "--pk")), int(opt(argv, "--degree"))
        listings = [report["q_block"]] + [block for _, block in report["g_blocks"]]
        if any(c != [1, 1, 0, 1] for listing in listings for _, c in listing):
            return ["a block coefficient is not 1"]
        q = [e for e, _ in report["q_block"]]
        g = [[l, [e for e, _ in block]] for l, block in report["g_blocks"]]
        h = [[l, *pair] for l, pair in report["h_norms"]]
        return self._dedup(pk, degree, q, g, h)

    def _cli_decompose_tail(self, argv, report, job):
        pk, p2_limit = int(opt(argv, "--pk")), int(opt(argv, "--p2-limit"))
        got = {"tail": report["tail"], "geometric": report["geometric_bound"],
               "partial": report["partial_sum"], "holds": report["holds"],
               "terms": report["terms"]}
        return self._tail(pk, p2_limit, got)

    def _sweep(self, argv, rows: list[list[str]]) -> list[str]:
        lo, hi = map(int, opt(argv, "--range").split(".."))
        target = argv[1]
        if target == "bertrand":
            expected = list(range(lo, hi + 1))
        else:
            points = int(opt(argv, "--points"))
            expected = sorted({round(lo * (hi / lo) ** (i / (points - 1))) for i in range(points)})
        body = rows[1:]
        if [int(row[0]) for row in body] != expected:
            return ["sweep parameters differ from the requested range"]
        problems = []
        for row in body:
            n = int(row[0])
            if target == "bertrand":
                if row[4] != "True":
                    problems.append(f"prime_found false at n = {n}")
                found = self._pi_value(row[1], row[2], row[3], 2 * n,
                                       *self._reference("bertrand", n))
            else:
                kind = "twins" if target == "twins" else "primes"
                found = self._pi_value(row[1], row[2], row[3], n, *self._reference(kind, n))
            problems += [f"n = {n}: {p}" for p in found]
        return problems

    # -- library jobs --------------------------------------------------------

    def check_lib(self, job: Job, summary: dict) -> list[str]:
        if "error" in summary:
            return [summary["error"]]
        return getattr(self, "_lib_" + job.kind.replace("-", "_"))(job, summary)

    def _lib_geometric(self, job: Job, summary: dict) -> list[str]:
        _, degree = job.args
        problems = self._coverage(summary["blocks"], list(range(degree + 1)))
        return problems + _unit_coefficients(summary)

    def _lib_dedup(self, job: Job, summary: dict) -> list[str]:
        pk, degree = job.args
        problems = self._dedup(pk, degree, summary["q"], summary["g"], summary["h"])
        return problems + _unit_coefficients(summary)

    def _lib_step_one(self, job: Job, summary: dict) -> list[str]:
        """lhs = sum 1/(n+1) over 0..D; rhs = 3/2 + f + (1 + 2f) * sum 1/k over
        smooth k <= D, with f the unit norm of the rough series (all over pi)."""
        pk, degree = job.args
        lhs = oracle.unit_norm(range(degree + 1))
        f = oracle.unit_norm(oracle.rough_upto(self.primes, pk, degree))
        smooth = oracle.tree_sum(Fraction(1, k)
                                 for k in oracle.smooth_upto(self.primes, pk, degree))
        rhs = Fraction(3, 2) + f + (1 + 2 * f) * smooth
        return _compare(summary, {"lhs": lhs, "rhs": rhs, "f": f, "smooth": smooth},
                        lhs <= rhs)

    def _lib_step_two(self, job: Job, summary: dict) -> list[str]:
        """f = ||F_D||^2, q = ||Q||^2 over the primes in [pk, D], bound =
        2q (1 + sum 1/l over rough l <= D) (all over pi)."""
        pk, degree = job.args
        rough = oracle.rough_upto(self.primes, pk, degree)
        f = oracle.unit_norm(rough)
        q = oracle.unit_norm(oracle.prime_window(self.primes, pk - 1, degree))
        bound = 2 * q * (1 + oracle.tree_sum(Fraction(1, l) for l in rough))
        return _compare(summary, {"f": f, "q": q, "bound": bound}, f <= bound)

    def _lib_tail(self, job: Job, summary: dict) -> list[str]:
        pk, p2_limit = job.args
        return self._tail(pk, p2_limit, summary)

    def _lib_certificate(self, job: Job, summary: dict) -> list[str]:
        """A root-certs job: certificate, reciprocal expansion, projection."""
        poly = [oracle.g_from_json(c) for c in job.args[0]]
        problems = self._certificate(summary["certified_radius"], job.roots)
        if summary["root_witness"] is not None:
            self.counts["fta.near_zero_witnesses"] += 1
        if float(as_fraction(summary["r0"])) * INNER_CELL_FRACTION > min(map(abs, job.roots)):
            self.counts["fta.r0_inner_cell_beyond_roots"] += 1
        dense = dict(zip(summary["reciprocal_support"], summary["reciprocal"]))
        zero = [0, 1, 0, 1]
        series = [oracle.g_from_json(dense.get(j, zero)) for j in range(RECIPROCAL_DEGREE + 1)]
        holds = oracle.times_series_is_one(poly, series)
        if not holds:
            problems.append("P times the reciprocal expansion is not 1")
        if summary["convolution_holds"] != holds:
            problems.append("convolution_holds disagrees with direct multiplication")
        if oracle.g_from_json(summary["projection"]) != oracle.conj_reciprocal(poly[0]):
            problems.append("projection constant is not conj(1/a0)")
        return problems

    def _certificate(self, radius: float, roots) -> list[str]:
        smallest = min(abs(r) for r in roots)
        if smallest <= radius * (1 + CERT_SLACK):
            return []
        self.counts["fta.wrong_certificates"] += 1
        return [f"certified radius {radius!r} is below every root (smallest {smallest!r})"]


def _unit_coefficients(summary: dict) -> list[str]:
    return [] if summary["coeffs"] == [[1, 1, 0, 1]] else ["a block coefficient is not 1"]


def _compare(summary: dict, want: dict[str, Fraction], holds: bool) -> list[str]:
    problems = [f"{key} differs from the oracle" for key, value in want.items()
                if as_fraction(summary[key]) != value]
    return problems + ([] if summary["holds"] == holds else ["holds differs from the oracle"])


def _real_series(text: str) -> dict[int, Fraction]:
    """A CLI series argument with real coefficients, as exponent -> coefficient."""
    terms: dict[int, Fraction] = {}
    for chunk in text.split(","):
        coeff, _, exp = chunk.rpartition("@")
        terms[int(exp)] = terms.get(int(exp), Fraction(0)) + Fraction(coeff)
    return terms
