"""Byte identity of the rough decomposition's outputs.

The digests were taken from the code that proved the norm chain with
Fraction sums and comparisons. The integer chain check must leave every
report, and so every repr and every CLI byte, exactly as it was.
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
