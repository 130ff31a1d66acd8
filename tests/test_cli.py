import contextlib
import csv
import io
import json
import math
import operator
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergspace import cli, primes
from bergspace.cli import (
    dispatch,
    parse_coefficient,
    parse_grid,
    parse_range,
    parse_series,
)
from bergspace.errors import OutOfRange, PartitionViolation
from bergspace.rational import GaussianRational, PiRational
from bergspace.series import SparseSeries
from conftest import oracle_is_prime, oracle_prime_factors


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsers -----------------------------------------------------------------


def test_parse_coefficient_forms():
    cases = {
        "5": (5, 0),
        "-3/4": (Fraction(-3, 4), 0),
        "2i": (0, 2),
        "-2/3i": (0, Fraction(-2, 3)),
        "1/2+3/4i": (Fraction(1, 2), Fraction(3, 4)),
        "1/2-3/4i": (Fraction(1, 2), Fraction(-3, 4)),
        "i": (0, 1),
        "-i": (0, -1),
        "0": (0, 0),
        # a sign right after e/E belongs to the exponent, not the real/imaginary split
        "1e-5": (Fraction(1, 10**5), 0),
        "1e-5i": (0, Fraction(1, 10**5)),
        "3e-2+1e-3i": (Fraction(3, 100), Fraction(1, 1000)),
        "2E-1i": (0, Fraction(1, 5)),
        "1e+2i": (0, 100),
    }
    for text, (re, im) in cases.items():
        assert parse_coefficient(text) == GaussianRational(Fraction(re), Fraction(im))


def test_parse_coefficient_accepts_decimal_strings_exactly():
    # decimal text is an exact rational, no float ever enters
    assert parse_coefficient("1.5") == GaussianRational(Fraction(3, 2))


def test_parse_coefficient_rejects_garbage():
    for bad in ("", "one", "1//2", "3/4j", "2+2"):
        with pytest.raises(OutOfRange):
            parse_coefficient(bad)


def test_parse_series_accumulates_repeated_exponents():
    series = parse_series("1@2,1/2@2,3@0")
    assert series == SparseSeries({0: 3, 2: Fraction(3, 2)})


def test_parse_grid_and_range():
    grid = parse_grid("128x64")
    assert (grid.n_r, grid.n_theta) == (128, 64)
    with pytest.raises(OutOfRange):
        parse_grid("4x4")  # below minimum dimensions
    assert parse_range("10..1000") == (10, 1000)
    assert parse_range("3..3") == (3, 3)
    with pytest.raises(OutOfRange):
        parse_range("10-1000")
    with pytest.raises(OutOfRange, match=r"^--range 5\.\.3 is empty"):
        parse_range("5..3")


# -- dispatch ------------------------------------------------------------------


def test_primes_norm_report(capsys):
    code, out, _ = run_cli(capsys, "primes", "norm", "--limit", "10")
    assert code == 0
    data = json.loads(out)
    assert data["pi_coeff"] == [7, 8]
    assert data["float"] == pytest.approx(2.748893571891069)


def test_norm_series_report(capsys):
    code, out, _ = run_cli(capsys, "norm", "--series", "1@0,1@1", "--radius", "1")
    assert code == 0
    assert json.loads(out)["pi_coeff"] == [3, 2]
    code, out, _ = run_cli(capsys, "norm", "--series", "1e-5i@0")
    assert code == 0
    assert json.loads(out)["pi_coeff"] == [1, 10**10]


def test_inner_report(capsys):
    code, out, _ = run_cli(capsys, "inner", "--f", "1@2", "--g", "1@2,1/2@3", "--radius", "1/2")
    assert code == 0
    assert json.loads(out)["pi_coeff"] == [1, 192]
    code, out, _ = run_cli(capsys, "inner", "--f", "i@1", "--g", "1@1")
    assert code == 0
    assert json.loads(out) == {"pi_coeff": [0, 1], "pi_coeff_imag": [1, 2]}


def test_pi_report_json():
    real = cli.pi_report(PiRational(Fraction(7, 8)))
    assert list(real) == ["pi_coeff", "float"]
    assert real == {"pi_coeff": [7, 8], "float": cli.render_float(PiRational(Fraction(7, 8)))}
    twisted = cli.pi_report(PiRational(Fraction(1, 3), Fraction(-2, 5)))
    assert twisted == {"pi_coeff": [1, 3], "pi_coeff_imag": [-2, 5]}


def test_terms_json():
    f = SparseSeries(
        {0: GaussianRational(Fraction(1, 2), Fraction(-3, 4)), 7: 2}, degree_bound=9
    )
    assert cli.terms_json(f) == [[0, [1, 2, -3, 4]], [7, [2, 1, 0, 1]]]
    assert cli.terms_json(SparseSeries.zero()) == []


def test_primes_euler_report(capsys):
    code, out, _ = run_cli(capsys, "primes", "euler", "--pk", "7")
    assert code == 0
    assert json.loads(out)["product"] == [15, 4]


def test_primes_bertrand_and_twins_reports(capsys):
    def pi_coeff(primes):
        q = sum((Fraction(1, p + 1) for p in primes), Fraction(0))
        return [q.numerator, q.denominator]

    code, out, _ = run_cli(capsys, "primes", "bertrand", "--n", "42")
    assert code == 0
    data = json.loads(out)
    assert data["pi_coeff"] == pi_coeff(p for p in range(43, 85) if oracle_is_prime(p))
    assert (data["n"], data["prime_found"]) == (42, True)
    code, out, _ = run_cli(capsys, "primes", "twins", "--limit", "100")
    assert code == 0
    twins = (p for p in range(2, 101) if oracle_is_prime(p) and oracle_is_prime(p + 2))
    assert json.loads(out)["pi_coeff"] == pi_coeff(twins)


def test_decompose_geometric_report(capsys):
    code, out, _ = run_cli(capsys, "decompose", "geometric", "--pk", "3", "--degree", "8")
    assert code == 0
    data = json.loads(out)
    assert data["coverage"] == "exact"
    labels = [b["label"] for b in data["blocks"]]
    assert labels[:3] == ["1", "z", "F(z)"]


def test_decompose_reports_past_the_full_listing(capsys):
    # above FULL_LISTING_MAX_DEGREE the reports give block sizes, not terms
    code, out, _ = run_cli(capsys, "decompose", "geometric", "--pk", "3", "--degree", "200")
    assert code == 0
    data = json.loads(out)
    assert "blocks" not in data
    assert sum(b["size"] for b in data["block_summary"]) == 201
    code, out, _ = run_cli(capsys, "decompose", "rough", "--pk", "5", "--degree", "300")
    assert code == 0
    data = json.loads(out)
    assert "g_blocks" not in data
    rough = [n for n in range(2, 301) if min(oracle_prime_factors(n)) >= 5]
    assert data["q_size"] + sum(size for _, size in data["g_block_sizes"]) == len(rough)


def test_decompose_rough_report(capsys):
    code, out, _ = run_cli(capsys, "decompose", "rough", "--pk", "2", "--degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["q_block"] == [[2, [1, 1, 0, 1]], [3, [1, 1, 0, 1]]]
    assert data["coverage"] == "exact"


def test_fta_cert_report(capsys):
    code, out, _ = run_cli(capsys, "fta-cert", "--poly", "6,-5,1", "--grid", "64x64")
    assert code == 0
    data = json.loads(out)
    assert (data["r0"], data["radius"], data["k"]) == ([24, 1], [12, 5], 1)
    assert data["certified_radius"] == 2.4
    from bergspace import fta

    report = fta.root_disc_certificate(fta.Polynomial([6, -5, 1]))
    assert data == cli.certificate_report(report)
    # --grid is checked but changes nothing
    assert run_cli(capsys, "fta-cert", "--poly", "6,-5,1") == (0, out, "")


def least_dyadic_root(value: int, k: int) -> Fraction:
    """The least m / 2^53 at or above value^(1/k), for 1 < value < 2^k: a
    float guess, moved one step at a time to the exact boundary."""
    m = int(value ** (1 / k) * 2**53)
    while m**k < value << 53 * k:
        m += 1
    while (m - 1) ** k >= value << 53 * k:
        m -= 1
    return Fraction(m, 1 << 53)


@pytest.mark.parametrize(
    "poly, radius, k",
    [
        # the float quadrature said 0.994: the roots are +-i
        ("1/1000000000000,0,1/1000000000000", Fraction(1), 2),
        # refused: |a_2|^2 = 10^600 overflowed a float; roots +-i 10^-150
        ("1,0,1e300", Fraction(1, 10**150), 2),
        ("1,0,1e400", Fraction(1, 10**200), 2),
        # refused: Horner overflowed at R0 = 6e250 and 10^201
        ("1,1,1,1e-250", least_dyadic_root(3, 2), 2),
        ("1,1,1,1,1,1e-200", least_dyadic_root(5, 4), 4),
        # refused: |a_0|^2 = 10^-600 underflowed; Newton's sum gives 4 |a_0| / |a_1|
        ("1e-300,2i,-1/2,1e-150,1", Fraction(2, 10**300), 1),
    ],
    ids=["1e-12,0,1e-12", "1,0,1e300", "1,0,1e400", "1,1,1,1e-250", "1,1,1,1,1,1e-200",
         "1e-300,2i,-1/2,1e-150,1"],
)
def test_fta_cert_answers_exactly(capsys, poly, radius, k):
    code, out, err = run_cli(capsys, "fta-cert", "--poly", poly, "--grid", "64x64")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (Fraction(*data["radius"]), data["k"]) == (radius, k)
    assert Fraction(repr(data["certified_radius"])) >= radius


def test_usage_error_exit_code(capsys):
    for argv in (
        ("norm", "--series", "oops"),
        ("primes", "norm", "--limit", "not-a-number"),
        # there are no presentation flags
        ("--float-digits", "0", "primes", "norm", "--limit", "10"),
        ("primes", "norm", "--limit", "10", "--float-digits", "31"),
        ("--format", "xml", "primes", "norm", "--limit", "10"),
        ("sweep", "primes-norm", "--range", "10..100", "--points", "0"),
        ("sweep", "primes-norm", "--range", "10..100", "--points", "-3"),
        # log spacing needs START >= 1
        ("sweep", "primes-norm", "--range", "0..100", "--points", "5"),
        # refused by SparseSeries and Polynomial themselves
        ("norm", "--series", "1@-1"),
        ("fta-cert", "--poly", ","),
        ("sweep", "bertrand", "--range", "0..3"),
        ("sweep", "twins", "--range", "-2..3"),
        ("sweep", "twins", "--range=-2..3"),
        # sweeps are CSV only, and the rough decomposition's Q always ends at D
        ("sweep", "bertrand", "--range", "1..3", "--format", "json"),
        ("--format", "json", "sweep", "twins", "--range", "1..3"),
        ("decompose", "rough", "--pk", "3", "--degree", "100", "--p2-limit", "200"),
        # the tail's partial sum always runs to p2_limit, which is >= 0
        ("decompose", "tail", "--pk", "29", "--p2-limit", "100", "--terms", "50"),
        ("decompose", "tail", "--pk", "29", "--p2-limit", "-5"),
        # over the grid caps: 2^16 a side, 2^26 nodes, though the certificate ignores the grid
        ("fta-cert", "--poly", "6,-5,1", "--grid", "65537x8"),
        ("fta-cert", "--poly", "6,-5,1", "--grid", "8x65537"),
        ("fta-cert", "--poly", "6,-5,1", "--grid", "8193x8193"),
        # a reversed range is empty
        ("sweep", "primes-norm", "--range", "5..3"),
        ("sweep", "primes-norm", "--range", "5..3", "--points", "3"),
        # refused by the library's own argument checks
        ("norm", "--series", "1@0", "--radius", "0"),
        ("decompose", "geometric", "--pk", "3", "--degree", "0"),
        ("decompose", "rough", "--pk", "3", "--degree", "0"),
        ("fta-cert", "--poly", "0,1,1"),
        ("fta-cert", "--poly", "1,2"),
        # a STOP past the sieve cap is refused before any row, with or without --points
        ("sweep", "primes-norm", "--range", "1..1" + "0" * 400, "--points", "3"),
        ("sweep", "primes-norm", "--range", "1..1" + "0" * 400),
        ("sweep", "bertrand", "--range", "100000000..100000000000"),
        # ... or whose last row sieves past the cap: to 2*STOP, and to STOP + 2
        ("sweep", "bertrand", "--range", "1..50000001"),
        ("sweep", "twins", "--range", "1..99999999"),
        # a negative START is refused at its first row, before the range's other values exist
        ("sweep", "twins", "--range", "-1" + "0" * 400 + "..5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert not out
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--config", "x", "primes", "norm", "--limit", "10"), "--config"),
        (("primes", "--foo", "x", "norm", "--limit", "10"), "--foo"),
        (("sweep", "--foo", "x", "primes-norm", "--range", "1..2"), "--foo"),
    ],
    ids=["before-the-command", "before-the-subcommand", "before-the-sweep-target"],
)
def test_unknown_flag_before_a_command_is_named(capsys, argv, flag):
    # the value after the flag is not read as the command
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err == f"error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("range_args", [("--range", "-2..3"), ("--range=-2..3",)])
def test_negative_range_start_reaches_the_library(capsys, range_args):
    # "-2..3" is a value, not an unknown option, so the error names it
    code, out, err = run_cli(capsys, "sweep", "twins", *range_args)
    assert code == 2
    assert not out
    assert err == "error: limit must be >= 0, got -2\n"


def test_float_overflow_renders_null(capsys):
    # the exact norm pi * 10^800 is fine; only its float rendering overflows
    code, out, err = run_cli(capsys, "norm", "--series", "1@0", "--radius", "1e400")
    assert code == 0
    assert not err
    assert json.loads(out) == {"pi_coeff": [10**800, 1], "float": None}


def test_render_float_is_null_past_the_float_range():
    assert cli.render_float(Fraction(10**400)) is None
    assert cli.render_float(-PiRational(Fraction(10**400))) is None
    # finite before rounding to 15 digits, infinite after it
    assert cli.render_float(Fraction(17976931348623157, 10**16) * 10**308) is None
    assert cli.render_float(Fraction(1, 3)) == 0.333333333333333


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "--series", "1e999999999@0"),
        ("norm", "--series", "1@0", "--radius", "1e-99999999"),
        ("norm", "--series", "1E+100_001@0"),
        ("inner", "--f", "1@0", "--g", "2-1e0000000000100001i@0"),
        ("fta-cert", "--poly", "1,0,1e-1" + "0" * 10**6),
    ],
    ids=["1e999999999", "1e-99999999", "1E+100_001", "imaginary-1e100001", "a-million-digits"],
)
def test_rational_token_exponent_past_the_cap_is_refused(capsys, argv):
    # Fraction would build 10^exponent before anything could refuse it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: rational token '.*' has an exponent past the cap of 100000 "
                        r"either way\n", err, re.S)


def test_rational_token_exponent_at_the_cap_is_read():
    assert cli.parse_rational("1e100000") == 10**100000
    assert cli.parse_rational(" -1E-1_00_000 ") == Fraction(-1, 10**100000)
    assert cli.parse_rational("1e00000000000000100000") == 10**100000
    assert cli.MAX_EXPONENT == 10**5


@pytest.mark.parametrize(
    "argv",
    [
        ("primes", "norm", "--limit"),
        ("decompose", "geometric", "--pk", "3", "--degree"),
    ],
)
def test_sieve_past_the_cap_is_input_error(capsys, argv):
    limit = primes.SIEVE_LIMIT_CAP + 1
    code, out, err = run_cli(capsys, *argv, str(limit))
    assert code == 2
    assert not out
    assert err == f"error: sieve limit {limit} exceeds the cap {primes.SIEVE_LIMIT_CAP}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("primes", "twins", "--limit", "99999999"), "limit must be <= 99999998, got 99999999"),
        (("primes", "bertrand", "--n", "50000001"),
         "Bertrand index must be <= 50000000, got 50000001"),
    ],
)
def test_twins_and_bertrand_past_the_cap_name_their_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("primes", "norm", "--lim", "10"),
        ("decompose", "tail", "--pk", "29", "--p2", "100"),
        ("inner", "--f", "1@0", "--g", "1@0", "--rad", "2"),
    ],
)
def test_leaf_parsers_refuse_abbreviated_flags(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err.startswith("error:")


def test_decompose_tail_emits_large_exact_rationals(capsys):
    # desk-scale tail sums exceed 4300 digits; the report must still be
    # exact JSON integers and reparse to the library's own values
    code, out, _ = run_cli(capsys, "decompose", "tail", "--pk", "29", "--p2-limit", "10000")
    assert code == 0
    data = json.loads(out)
    tail = Fraction(*data["tail"])
    from bergspace.decomposition import rough_tail_geometric_bound
    from bergspace.primes import make_partition

    record = rough_tail_geometric_bound(make_partition(29, 10_000), 10_000)
    assert tail == record.tail
    assert Fraction(*data["geometric_bound"]) == record.geometric_bound
    assert data["holds"] is True


def test_hypothesis_failure_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "tail", "--pk", "2", "--p2-limit", "10000"
    )
    assert code == 3
    assert not out
    assert "hypothesis failed" in err


def test_degree_too_small_is_input_error(capsys):
    code, _, err = run_cli(capsys, "fta-cert", "--poly", "1,1")
    assert code == 2


def _fail_with(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "target, exc, argv",
    [
        ("bergspace.series.norm_sq", ValueError("a library bug"), ("norm", "--series", "1@0")),
        ("bergspace.decomposition.geometric_partition", PartitionViolation(3, []),
         ("decompose", "geometric", "--pk", "3", "--degree", "8")),
        ("bergspace.primes.prime_norm_partial", OverflowError("a library bug"),
         ("primes", "norm", "--limit", "10")),
    ],
    ids=["ValueError", "PartitionViolation", "OverflowError"],
)
def test_a_library_bug_is_not_a_refusal(monkeypatch, capsys, target, exc, argv):
    # only OutOfRange (exit 2) and TailNotSmall (exit 3) are the user's; a bug
    # leaves dispatch, so the process exits 1 with its traceback
    monkeypatch.setattr(target, _fail_with(exc))
    with pytest.raises(type(exc)) as raised:
        dispatch(list(argv))
    assert raised.value is exc
    assert capsys.readouterr() == ("", "")


_CAP_PLUS_ONE = primes.SIEVE_LIMIT_CAP + 1
# just past the rational token's exponent cap, either way: refused before Fraction runs
_PAST_CAP = ["1e100001", "-1e-100001"]
_COEFFS = ["0", "1", "-1/2", "3/4", "2i", "1/2-3/4i", "1e-250", "1e300", "1e400", "abc", "1/0", "",
           *_PAST_CAP, "1e-100001i"]
_RADII = ["1", "1/2", "3", "0", "-1", "-1/2", "1e-250", "1e300", "abc", "1/0", *_PAST_CAP]
# grids of 8x8 to 16x16, or just over a cap: 2^16 a side, 2^26 nodes
_grids = st.builds("{}x{}".format, st.integers(8, 16), st.integers(8, 16)) | st.sampled_from(
    ["7x16", "16x7", "65537x8", "8x65537", "8193x8193", "16", "axb"])
_limits = st.one_of(st.integers(-3, 20_000), st.just(_CAP_PLUS_ONE)).map(str) | st.just("x")
_pks = st.one_of(st.integers(-3, 40), st.sampled_from([49, 97, 561, _CAP_PLUS_ONE])).map(str)
_degrees = st.one_of(st.integers(0, 300), st.just(_CAP_PLUS_ONE)).map(str)
_term = st.one_of(
    st.builds("{}@{}".format, st.sampled_from(_COEFFS), st.integers(-1, 20)),
    st.sampled_from(["@", ",", "1", "1@", "1@x"]),
)
_series = st.lists(_term, min_size=1, max_size=3).map(",".join)
_radius_flag = st.one_of(st.just(()), st.sampled_from(_RADII).map(lambda r: ("--radius", r)))


@st.composite
def _sweep_argv(draw):
    target = draw(st.sampled_from(["primes-norm", "twins", "bertrand"]))
    if draw(st.booleans()):
        # every integer of a short range, reversed when the span is negative, a huge one,
        # or one whose STOP is just past the target's own sieve reach
        lo = draw(st.integers(-3, 200) | st.sampled_from([-(10**400), _CAP_PLUS_ONE]))
        past = {"bertrand": primes.SIEVE_LIMIT_CAP // 2 + 1,
                "twins": primes.SIEVE_LIMIT_CAP - 1}.get(target, _CAP_PLUS_ONE)
        hi = draw(st.integers(-3, 99).map(lo.__add__) | st.sampled_from([10**400, past]))
        return ("sweep", target, "--range", f"{lo}..{hi}")
    lo = draw(st.integers(-3, 20_000) | st.sampled_from([0, _CAP_PLUS_ONE]))
    hi = draw(st.integers(-3, 20_000) | st.sampled_from([lo, lo + 1, 10**400]))
    range_text = draw(st.just(f"{lo}..{hi}") | st.sampled_from(["abc", "1..", "1..2..3"]))
    # 10^8 and 10^400 samples are dense on a range at most 50 wide: every integer, at once
    points = draw(st.integers(-1, 6) | st.sampled_from([10**8, 10**400])
                  if hi - lo <= 50 else st.integers(-1, 6))
    return ("sweep", target, "--range", range_text, "--points", str(points))


_argv = st.one_of(
    st.builds(operator.add, st.tuples(st.just("norm"), st.just("--series"), _series),
              _radius_flag),
    st.builds(operator.add,
              st.tuples(st.just("inner"), st.just("--f"), _series, st.just("--g"), _series),
              _radius_flag),
    st.tuples(
        st.just("fta-cert"),
        st.just("--poly"),
        st.lists(st.sampled_from(_COEFFS), min_size=1, max_size=5).map(",".join)
        | st.just(","),
        st.just("--grid"),
        _grids,
    ),
    st.tuples(st.just("primes"), st.sampled_from(["norm", "twins"]), st.just("--limit"), _limits),
    st.tuples(st.just("primes"), st.just("bertrand"), st.just("--n"), _limits),
    st.tuples(st.just("primes"), st.just("euler"), st.just("--pk"), _pks),
    st.tuples(st.just("decompose"), st.sampled_from(["geometric", "rough"]), st.just("--pk"),
              _pks, st.just("--degree"), _degrees),
    st.tuples(st.just("decompose"), st.just("tail"), st.just("--pk"), _pks,
              st.just("--p2-limit"), _limits),
    _sweep_argv(),
)


@settings(max_examples=150, deadline=None)
@given(_argv)
def test_dispatch_answers_or_refuses_every_drawn_command(argv):
    # capsys is function-scoped, which hypothesis refuses; redirect instead
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    elif code == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code == 3 and not out.getvalue()
        assert err.getvalue().startswith("hypothesis failed:")


# -- sweeps --------------------------------------------------------------------


def test_sweep_primes_norm_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "primes-norm", "--range", "10..1000", "--points", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,numerator,denominator,float"
    assert len(lines) == 4
    floats = [float(line.split(",")[3]) for line in lines[1:]]
    assert floats == sorted(floats)
    code, out, _ = run_cli(capsys, "sweep", "primes-norm", "--range", "10..1000", "--points", "1")
    assert code == 0
    assert out.splitlines()[1:] == [lines[1]]


def test_sweep_dense_points_are_every_integer(capsys):
    # 10^8 samples of 1..2 build no set of 10^8 roundings
    code, out, _ = run_cli(capsys, "sweep", "bertrand", "--range", "1..2", "--points", "100000000")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2"]


def _set_of_roundings(lo, hi, points):
    """The samples as they were built before dense --points became a range."""
    if points == 1:
        return [lo]
    ratio = hi / lo
    return sorted({round(lo * ratio ** (i / (points - 1))) for i in range(points)})


def test_log_spaced_matches_the_set_of_roundings():
    rng = random.Random(23)
    dense = 0
    for _ in range(500):
        hi = rng.choice([rng.randint(1, 300), rng.randint(1, 10**8)])
        lo = hi - rng.randint(0, min(hi - 1, 300))
        # the dense threshold, drawn from both sides
        threshold = 2 * hi * math.log(hi / lo) + 1
        points = rng.randint(1, int(2 * threshold) + 2)
        samples = cli._log_spaced(lo, hi, points)
        dense += isinstance(samples, range)
        assert list(samples) == _set_of_roundings(lo, hi, points), (lo, hi, points)
    assert 100 < dense < 400


def test_sweep_bertrand_all_true(capsys):
    code, out, _ = run_cli(capsys, "sweep", "bertrand", "--range", "1..100")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 101
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize(
    "target,command,flag,range_text",
    [
        ("primes-norm", "norm", "--limit", "1..300"),
        ("bertrand", "bertrand", "--n", "1..100"),
        ("twins", "twins", "--limit", "1..50"),
    ],
)
def test_sweep_rows_match_single_point_reports(capsys, target, command, flag, range_text):
    code, out, _ = run_cli(capsys, "sweep", target, "--range", range_text)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lo, hi = map(int, range_text.split(".."))
    assert [int(row["parameter"]) for row in rows] == list(range(lo, hi + 1))
    # the sweep slides the cached prime window; each falling point after
    # the first starts it afresh, so those reports are direct sums
    for row in reversed(rows):
        code, out, _ = run_cli(capsys, "primes", command, flag, row["parameter"])
        assert code == 0
        report = json.loads(out)
        assert [int(row["numerator"]), int(row["denominator"])] == report["pi_coeff"]
        assert float(row["float"]) == report["float"]
        if target == "bertrand":
            assert row["prime_found"] == str(report["prime_found"])
        else:
            assert "prime_found" not in row


def test_prime_sums_look_up_primes_at_call_time(monkeypatch, capsys):
    # wrappers installed on the primes module (as the benchmark's tracer
    # does) must see every call the prime-sum commands and sweeps make
    calls = []
    for name in ("prime_norm_partial", "twin_prime_norm_partial", "bertrand_witness"):
        fn = getattr(primes, name)
        monkeypatch.setattr(
            primes, name, lambda n, fn=fn, name=name: calls.append(name) or fn(n)
        )
    for argv in (
        ("primes", "norm", "--limit", "10"),
        ("primes", "twins", "--limit", "10"),
        ("primes", "bertrand", "--n", "10"),
        ("sweep", "primes-norm", "--range", "1..2"),
        ("sweep", "twins", "--range", "1..2"),
        ("sweep", "bertrand", "--range", "1..2"),
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert calls == [
        "prime_norm_partial",
        "twin_prime_norm_partial",
        "bertrand_witness",
        *["prime_norm_partial"] * 2,
        *["twin_prime_norm_partial"] * 2,
        *["bertrand_witness"] * 2,
    ]


def test_sweep_reversed_range_refused_equal_bounds_one_row(capsys):
    code, out, err = run_cli(capsys, "sweep", "twins", "--range", "5..4")
    assert (code, out) == (2, "")
    assert err == "error: --range 5..4 is empty: START must not exceed STOP\n"
    for points in ((), ("--points", "3")):
        code, out, _ = run_cli(capsys, "sweep", "twins", "--range", "5..5", *points)
        assert code == 0
        assert out.splitlines()[1:] == ["5,5,12,1.30899693899575"]  # pi * 5/12


# -- round trips and float rendering ---------------------------------------------


def test_pi_report_round_trip(capsys):
    _, out, _ = run_cli(capsys, "primes", "norm", "--limit", "97")
    data = json.loads(out)
    num, den = data["pi_coeff"]
    reparsed = PiRational(Fraction(num, den))
    from bergspace.primes import prime_norm_partial

    assert reparsed == prime_norm_partial(97)


# -- settings come from flags only -------------------------------------------


@pytest.mark.parametrize(
    "flag", [("--format", "csv"), ("--format", "json"), ("--float-digits", "3")]
)
@pytest.mark.parametrize(
    "command", [("primes", "norm", "--limit", "10"), ("sweep", "twins", "--range", "1..3")]
)
def test_presentation_flags_do_not_exist(capsys, flag, command):
    # reports are always JSON, sweeps always CSV, floats always 15 digits
    for argv in ((*flag, *command), (*command, *flag)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert not out
        assert err.startswith("error:")


def test_config_file_and_environment_are_not_read(monkeypatch, capsys):
    code, out, err = run_cli(capsys, "--config", "x", "primes", "norm", "--limit", "10")
    assert code == 2
    assert not out
    assert err.startswith("error:")
    monkeypatch.setenv("BERGSPACE_FLOAT_DIGITS", "3")
    code, out, _ = run_cli(capsys, "primes", "norm", "--limit", "10")
    assert code == 0
    assert json.loads(out)["float"] == 2.74889357189107


README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples_are_the_readme_commands(capsys):
    block = README.read_text().split("## Command line", 1)[1].split("```\n")[1]
    commands = [line for line in block.splitlines() if line.strip()]
    examples = [
        line.strip() for line in cli.__doc__.splitlines() if line.strip().startswith("bergspace ")
    ]
    assert commands and examples == commands
    for command in commands:
        code, _, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (command, err)


def option_strings(parser):
    """Every option string of ``parser`` and of its subcommands' parsers."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action.choices, dict):
            for subparser in action.choices.values():
                yield from option_strings(subparser)


def test_readme_flags_are_parser_flags():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert named
    assert named - set(option_strings(cli.build_parser())) == set()


# -- start-up path -----------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*argv_lists):
    """Run dispatch on each argv in a fresh interpreter; return the exit
    codes and whether numpy got imported."""
    script = (
        "import contextlib, io, json, sys\n"
        "import bergspace, bergspace.cli\n"
        "codes = []\n"
        f"for argv in {list(argv_lists)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(bergspace.cli.dispatch(argv))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_exact_commands_do_not_import_numpy():
    codes, numpy_loaded = run_fresh(
        ["norm", "--series", "1@0,1@1", "--radius", "1"],
        ["primes", "norm", "--limit", "1000"],
        ["decompose", "rough", "--pk", "3", "--degree", "100"],
        ["sweep", "bertrand", "--range", "1..20"],
        ["fta-cert", "--poly", "6,-5,1"],
        ["fta-cert", "--poly", "6,-5,1", "--grid", "256x256"],
    )
    assert codes == [0, 0, 0, 0, 0, 0]
    assert not numpy_loaded


def test_quadrature_imports_numpy_on_first_use():
    # the certificate runs no quadrature; the library's inner_disc_l2 still imports numpy
    added = modules_added_by(
        "from fractions import Fraction\n"
        "from bergspace import fta\n"
        "poly = fta.Polynomial([6, -5, 1])\n"
        "fta.root_disc_certificate(poly)\n"
        "assert 'numpy' not in sys.modules\n"
        "fta.inner_disc_l2(poly, Fraction(24), fta.QuadratureGrid(8, 8))\n"
    )
    assert "numpy" in added


def modules_added_by(code):
    """The modules a fresh interpreter gains while running ``code``."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_import_loads_no_command_modules():
    added = modules_added_by("import bergspace.cli")
    heavy = {"dataclasses", "inspect", "numpy", "csv"}
    lazy = {"bergspace.fta", "bergspace.decomposition", "bergspace.primes"}
    assert not added & (heavy | lazy)


def test_package_import_loads_no_submodule():
    added = modules_added_by("import bergspace")
    assert "bergspace" in added
    assert not {m for m in added if m.startswith("bergspace.")}


def test_norm_command_loads_only_what_it_uses():
    added = modules_added_by(
        "import contextlib, io\n"
        "from bergspace import cli\n"
        "sys.argv = ['bergspace', 'norm', '--series', '1@0,1@1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main()\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
    )
    assert "bergspace.series" in added
    assert not added & {"bergspace.fta", "bergspace.decomposition", "dataclasses"}
