"""Command-line interface.

One command per process; every report is written to stdout in a single
atomic write, diagnostics go to stderr. Reports are indented JSON and sweeps
are CSV. Exact values print as [numerator, denominator] pairs with a float
beside them at 15 significant digits, or null where that float overflows.
Exit codes: 0 success, 2 malformed input or usage (including a sieve limit
past primes.SIEVE_LIMIT_CAP), 3 a mathematical hypothesis check failed (e.g.
the prime tail sum was not below 1).

Usage examples:

    bergspace norm --series "1@0,1@1" --radius 1
    bergspace inner --f "1@2" --g "1@2,1/2@3" --radius 1/2
    bergspace fta-cert --poly "6,-5,1" --grid 256x256
    bergspace primes norm --limit 10000
    bergspace primes bertrand --n 42
    bergspace primes twins --limit 10000
    bergspace primes euler --pk 7
    bergspace decompose geometric --pk 3 --degree 8
    bergspace decompose rough --pk 3 --degree 100
    bergspace decompose tail --pk 29 --p2-limit 10000
    bergspace sweep primes-norm --range 10..100000 --points 5
    bergspace sweep bertrand --range 1..100

Exact coefficients survive the shell as "num/den" tokens: series terms are
"coeff@exponent" comma lists, complex coefficients "1/2+3/4i".
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Each command imports the modules it needs when it runs, so a process
# loads only those; errors is shared by every command's exit-code mapping.
from .errors import BergspaceError, TailNotSmall

if TYPE_CHECKING:
    from .fta import Polynomial, QuadratureGrid
    from .rational import GaussianRational, PiRational
    from .series import SparseSeries

FULL_LISTING_MAX_DEGREE = 128


class UsageError(Exception):
    """Bad input from the user; maps to exit code 2."""


# -- input parsing -----------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def parse_coefficient(text: str) -> GaussianRational:
    """Gaussian rational: "2", "-3/4", "2i", "1/2+3/4i", "1/2-3/4i", "i", "1e-5i"."""
    from .rational import GaussianRational

    s = text.replace(" ", "")
    if not s:
        raise UsageError("empty coefficient")
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s))
    body = s[:-1]
    split = 0
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "+-/eE":
            split = idx
            break
    real, imag = body[:split], body[split:]
    if imag in ("", "+"):
        imag = "1"
    elif imag == "-":
        imag = "-1"
    return GaussianRational(
        parse_rational(real) if real else Fraction(0), parse_rational(imag)
    )


def parse_series(text: str) -> SparseSeries:
    """Comma list of coeff@exponent terms; repeated exponents accumulate."""
    from .rational import GaussianRational
    from .series import SparseSeries

    coeffs: dict[int, GaussianRational] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise UsageError(f"series term {chunk!r} is missing '@exponent'")
        coeff_text, _, exp_text = chunk.rpartition("@")
        try:
            exponent = int(exp_text)
        except ValueError:
            raise UsageError(f"bad exponent {exp_text!r}") from None
        c = parse_coefficient(coeff_text)
        coeffs[exponent] = coeffs.get(exponent, GaussianRational()) + c
    return SparseSeries(coeffs)


def parse_poly(text: str) -> Polynomial:
    """Comma list a0,a1,...,an of Gaussian-rational coefficients."""
    from .fta import Polynomial

    parts = [p for p in (chunk.strip() for chunk in text.split(",")) if p]
    return Polynomial([parse_coefficient(p) for p in parts])


def parse_grid(text: str) -> QuadratureGrid:
    from .fta import QuadratureGrid

    try:
        nr_text, nt_text = text.lower().split("x")
        grid = QuadratureGrid(int(nr_text), int(nt_text))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}: {exc}") from None
    return grid


def parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected START..STOP") from None
    if lo > hi:
        raise UsageError(f"--range {text} is empty: START must not exceed STOP")
    return lo, hi


# -- rendering ---------------------------------------------------------------


def render_float(value) -> float | None:
    """float(value) to 15 significant digits, or None (JSON null) when it
    overflows; the report's exact pair still carries the value."""
    try:
        rounded = float(f"{float(value):.15g}")
    except OverflowError:
        return None
    return rounded if math.isfinite(rounded) else None


def pi_report(value: PiRational) -> dict:
    out = value.to_json()
    if value.is_real:
        out["float"] = render_float(value)
    return out


def fraction_json(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def emit(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# -- subcommand handlers -----------------------------------------------------


def _cmd_norm(args) -> str:
    from .series import Disc, norm_sq

    series = parse_series(args.series)
    value = norm_sq(series, Disc(parse_rational(args.radius)))
    return emit(pi_report(value))


def _cmd_inner(args) -> str:
    from .series import Disc, inner_product

    f = parse_series(args.f)
    g = parse_series(args.g)
    value = inner_product(f, g, Disc(parse_rational(args.radius)))
    return emit(pi_report(value))


def _cmd_fta_cert(args) -> str:
    # the quadrature makes no BLAS call, so numpy's first import (in fta)
    # need not start OpenBLAS worker threads; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import fta

    poly = parse_poly(args.poly)
    grid = parse_grid(args.grid) if args.grid else fta.QuadratureGrid()
    report = fta.root_disc_certificate(poly, grid)
    return emit(report.to_json())


def _prime_sum(kind: str, n: int) -> PiRational:
    """The exact prime sum a ``primes`` command or sweep target names."""
    # looked up per call, so wrappers installed on primes.* see every call
    from . import primes

    if kind == "bertrand":
        return primes.bertrand_witness(n).value
    if kind == "twins":
        return primes.twin_prime_norm_partial(n)
    return primes.prime_norm_partial(n)


def _cmd_primes_sum(args) -> str:
    kind = args.primes_command
    if kind != "bertrand":
        return emit(pi_report(_prime_sum(kind, args.limit)))
    value = _prime_sum(kind, args.n)
    report = {"n": args.n, **pi_report(value), "prime_found": not value.is_zero}
    return emit(report)


def _cmd_primes_euler(args) -> str:
    from . import primes

    part = primes.make_partition(args.pk, max(args.pk - 1, 0))
    product = primes.euler_product_smooth(part)
    report = {
        "pk": args.pk,
        "product": fraction_json(product),
        "float": render_float(product),
    }
    return emit(report)


def _cmd_decompose_geometric(args) -> str:
    from . import decomposition

    report = decomposition.geometric_partition(args.pk, args.degree)
    out: dict = {
        "pk": report.pk,
        "degree": report.degree,
        "coverage": "exact",
        "block_count": len(report.blocks),
    }
    if args.degree <= FULL_LISTING_MAX_DEGREE:
        out["blocks"] = [
            {"label": b.label, "terms": b.series.to_json()["terms"]} for b in report.blocks
        ]
    else:
        out["block_summary"] = [
            {"label": b.label, "size": len(b.series)} for b in report.blocks
        ]
    return emit(out)


def _cmd_decompose_rough(args) -> str:
    from . import decomposition

    report = decomposition.rough_dedup(args.pk, args.degree, args.degree)
    out: dict = {
        "pk": report.pk,
        "degree": report.degree,
        "p2_limit": report.p2_limit,
        "coverage": "exact",
        "q_size": len(report.q_block),
        "g_block_count": len(report.g_blocks),
        "h_norms": [[l, n.to_json()["pi_coeff"]] for l, n in report.h_norms],
    }
    if args.degree <= FULL_LISTING_MAX_DEGREE:
        out["q_block"] = report.q_block.to_json()["terms"]
        out["g_blocks"] = [[l, g.to_json()["terms"]] for l, g in report.g_blocks]
    else:
        out["g_block_sizes"] = [[l, len(g)] for l, g in report.g_blocks]
    return emit(out)


def _cmd_decompose_tail(args) -> str:
    from . import decomposition, primes

    part = primes.make_partition(args.pk, args.p2_limit)
    bound = decomposition.rough_tail_geometric_bound(part, args.p2_limit)
    out = {
        "pk": args.pk,
        "p2_limit": args.p2_limit,
        "terms": bound.terms,
        "tail": fraction_json(bound.tail),
        "tail_float": render_float(bound.tail),
        "geometric_bound": fraction_json(bound.geometric_bound),
        "partial_sum": fraction_json(bound.partial_sum),
        "holds": bound.holds,
    }
    return emit(out)


def _log_spaced(lo: int, hi: int, points: int | None) -> list[int]:
    if points is None:
        return list(range(lo, hi + 1))
    if points < 1:
        raise UsageError(f"--points must be >= 1, got {points}")
    if lo < 1:
        raise UsageError(f"--points needs --range START >= 1, got {lo}")
    if points == 1:
        return [lo]
    ratio = hi / lo
    return sorted({round(lo * ratio ** (i / (points - 1))) for i in range(points)})


def _cmd_sweep(args) -> str:
    import csv

    lo, hi = parse_range(args.range)
    bertrand = args.target == "bertrand"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["parameter", "numerator", "denominator", "float"] + ["prime_found"] * bertrand)
    for n in _log_spaced(lo, hi, args.points):
        value = _prime_sum(args.target, n)
        q = value.coefficient
        row = [n, q.numerator, q.denominator, render_float(value)]
        writer.writerow(row + [not value.is_zero] * bertrand)
    return buf.getvalue()


# -- argument parsing / dispatch ---------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # every sub-parser is a _Parser too, so none reads "--lim" as "--limit"
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        # no flag starts "-<digit>": read "-2..3" as a value, as CPython 3.13 does
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        # only flags come before a command, and an unknown one would hand its
        # value to the command slot ("invalid choice: 'x'"): name the flag
        if self._subparsers is not None and args:
            head = itertools.takewhile(lambda a: a.startswith("-") and a != "--", args)
            unknown = [a for a in head if a not in self._option_string_actions]
            if unknown:
                self.error("unrecognized arguments: " + " ".join(unknown))
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bergspace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="exact Bergman norm^2 of a series on a disc")
    p.add_argument("--series", required=True, help='terms "coeff@exp,..."')
    p.add_argument("--radius", default="1", help="disc radius (rational)")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("inner", help="exact inner product of two series on a disc")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--radius", default="1")
    p.set_defaults(handler=_cmd_inner)

    p = sub.add_parser("fta-cert", help="certified root-containing disc for a polynomial")
    p.add_argument("--poly", required=True, help='coefficients "a0,a1,...,an"')
    p.add_argument("--grid", help="quadrature grid NRxNT")
    p.set_defaults(handler=_cmd_fta_cert)

    p = sub.add_parser("primes", help="prime series norms and witnesses")
    psub = p.add_subparsers(dest="primes_command", required=True)
    q = psub.add_parser("norm", help="pi * sum 1/(p+1) over primes <= limit")
    q.add_argument("--limit", type=int, required=True)
    q.set_defaults(handler=_cmd_primes_sum)
    q = psub.add_parser("twins", help="pi * sum 1/(p+1) over twin primes <= limit")
    q.add_argument("--limit", type=int, required=True)
    q.set_defaults(handler=_cmd_primes_sum)
    q = psub.add_parser("bertrand", help="exact witness for a prime in (N, 2N]")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_primes_sum)
    q = psub.add_parser("euler", help="prod 1/(1-1/p) over primes below pk")
    q.add_argument("--pk", type=int, required=True)
    q.set_defaults(handler=_cmd_primes_euler)

    p = sub.add_parser("decompose", help="orthogonal monomial decompositions")
    dsub = p.add_subparsers(dest="decompose_command", required=True)
    q = dsub.add_parser("geometric", help="partition of 1 + z + ... + z^D")
    q.add_argument("--pk", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q.set_defaults(handler=_cmd_decompose_geometric)
    q = dsub.add_parser("rough", help="deduplicated decomposition of the rough series")
    q.add_argument("--pk", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q.set_defaults(handler=_cmd_decompose_rough)
    q = dsub.add_parser("tail", help="geometric majorant for rough reciprocals")
    q.add_argument("--pk", type=int, required=True)
    q.add_argument("--p2-limit", type=int, dest="p2_limit", required=True)
    q.set_defaults(handler=_cmd_decompose_tail)

    p = sub.add_parser("sweep", help="CSV sweep over a parameter range")
    p.add_argument("target", choices=["primes-norm", "twins", "bertrand"])
    p.add_argument("--range", required=True, help="START..STOP inclusive")
    p.add_argument("--points", type=int,
                   help="log-spaced sample count, needs START >= 1 (default: every integer)")
    p.set_defaults(handler=_cmd_sweep)
    return parser


def dispatch(argv: list[str]) -> int:
    # exact rationals at desk scale exceed CPython's default 4300-digit
    # int/str conversion guard; reports deliberately carry such integers
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output = args.handler(args)
    except TailNotSmall as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, BergspaceError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
