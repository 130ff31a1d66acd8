"""Byte identity of the rough decomposition's outputs and the README's
commands.

The rough decomposition's digests were taken from the code that proved the
norm chain with Fraction sums and comparisons. The integer chain check must
leave every report, and so every repr and every CLI byte, exactly as it was.
The README digest was taken while the CLI still had ``--format`` and
``--float-digits``; their defaults are now the only output.
"""

import hashlib

import pytest

from bergspace.cli import dispatch
from bergspace.decomposition import rough_dedup, step_two_norm_bound


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "pk,degree,digest",
    [
        (3, 100, "81f1c71bcafd75f96a48fb99a0f224f96dc40980c4413d7c82c982290b4d05ae"),
        (5, 2000, "8cd20a5ec75421f7da4013b068957685111f6a62030fecf3f632b1cab88bca80"),
    ],
)
def test_decompose_rough_stdout(capsys, pk, degree, digest):
    code = dispatch(["decompose", "rough", "--pk", str(pk), "--degree", str(degree)])
    assert code == 0
    assert sha256(capsys.readouterr().out) == digest


def test_step_two_norm_bound_repr():
    record = step_two_norm_bound(3, 1004, 1004)
    assert sha256(repr(record)) == "eb801a1b27413625cc2fb02c1d83f83e52cdf69700987e81598b22b72f1f229f"


def test_rough_dedup_repr():
    report = rough_dedup(7, 2016, 2016)
    assert sha256(repr(report)) == "ed067f2c366afc34f402583d1237425cc25fbf346f092323613e4457e2fb524c"


# The README's "Command line" examples, less fta-cert, whose report changed
# when its radius became exact; it has its own digest below.
README_COMMANDS = (
    ("norm", "--series", "1@0,1@1", "--radius", "1"),
    ("inner", "--f", "1@2", "--g", "1@2,1/2@3", "--radius", "1/2"),
    ("primes", "norm", "--limit", "10000"),
    ("primes", "bertrand", "--n", "42"),
    ("primes", "twins", "--limit", "10000"),
    ("primes", "euler", "--pk", "7"),
    ("decompose", "geometric", "--pk", "3", "--degree", "8"),
    ("decompose", "rough", "--pk", "3", "--degree", "100"),
    ("decompose", "tail", "--pk", "29", "--p2-limit", "10000"),
    ("sweep", "primes-norm", "--range", "10..100000", "--points", "5"),
    ("sweep", "bertrand", "--range", "1..100"),
)


def test_readme_commands_stdout(capsys):
    stdout = ""
    for argv in README_COMMANDS:
        assert dispatch(list(argv)) == 0, argv
        stdout += capsys.readouterr().out
    assert sha256(stdout) == "6e74047b0306713fafd93a2fd8e3e37dfcca7f7d86dc4def62d6815d26afa937"


def test_readme_fta_cert_stdout(capsys):
    # every field is exact, and the float is the least 15-digit decimal above 12/5
    assert dispatch(["fta-cert", "--poly", "6,-5,1", "--grid", "256x256"]) == 0
    digest = "6b7fc33f637625b634d1906abae08ed968e6fc3c62e460c40632e8b28a994d3f"
    assert sha256(capsys.readouterr().out) == digest
