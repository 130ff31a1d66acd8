"""Exact scalar arithmetic: Gaussian rationals and rational multiples of pi.

Everything here is built on ``fractions.Fraction`` so that equality,
comparison and accumulation are exact. Floats appear only on explicit
conversion (``complex()``, ``float()``), which the CLI uses for display.

Sums of many terms merge plain numerator/denominator pairs tree-style and
reduce once at the end. ``sum_fractions`` and ``sum_reciprocals`` put each
pair over the lcm of its denominators, which costs a gcd per merge. Sums
whose denominators are pairwise coprime take ``_sum_coprime`` instead: the
sum of 1/p over distinct primes in ``primes.tail_sum``, and the prime groups
and scaled parts of ``primes._recip_sums``. The lcm of coprime denominators
is their product, so those merges run no gcd. A caller that proves its sum
is in lowest terms skips Fraction's quadratic gcd via ``_coprime_fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd
from math import pi as _PI
from typing import Iterable, Union

from . import _EXPORTS
from ._record import Record, set_field

__all__ = _EXPORTS["rational"]

RationalLike = Union[int, Fraction]
GaussianLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _sum_ratios(nums: list[int], dens: list[int]) -> Fraction:
    """Exact sum of nums[i] / dens[i], merging neighbours tree-style.

    Balanced merging keeps the two sides of every addition comparable in
    size, which matters when summing thousands of unit fractions. Each merge
    puts its pair over the lcm of their denominators and leaves the
    numerator unreduced, so the one gcd of a large numerator is the one the
    final Fraction takes. A zero denominator stays zero up the tree and
    raises ZeroDivisionError.
    """
    while len(nums) > 1:
        merged_nums, merged_dens = [], []
        for n1, n2, d1, d2 in zip(nums[::2], nums[1::2], dens[::2], dens[1::2]):
            g = gcd(d1, d2)
            d1 //= g
            merged_nums.append(n1 * (d2 // g) + n2 * d1)
            merged_dens.append(d1 * d2)
        if len(nums) % 2:
            merged_nums.append(nums[-1])
            merged_dens.append(dens[-1])
        nums, dens = merged_nums, merged_dens
    return Fraction(nums[0], dens[0]) if nums else Fraction(0)


def _pair_products(xs: list[int]) -> list[int]:
    """xs[0]*xs[1], xs[2]*xs[3], ..., then an odd last element as it is."""
    return [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1 :]


def _product(factors: Iterable[int]) -> int:
    """The product of ``factors`` (1 when empty), multiplied tree-style."""
    factors = list(factors)
    while len(factors) > 1:
        factors = _pair_products(factors)
    return factors[0] if factors else 1


def _sum_coprime(nums: list[int], dens: list[int]) -> tuple[int, int]:
    """Unreduced (numerator, denominator) of the sum of nums[i] / dens[i],
    for pairwise coprime dens[i] > 0, merging neighbours tree-style.

    The lcm of coprime denominators is their product, so every merge is
    n1*d2 + n2*d1 over d1*d2 and runs no gcd.
    """
    while len(nums) > 1:
        nums = [
            n1 * d2 + n2 * d1
            for n1, n2, d1, d2 in zip(nums[::2], nums[1::2], dens[::2], dens[1::2])
        ] + nums[len(nums) & ~1 :]
        dens = _pair_products(dens)
    return (nums[0], dens[0]) if nums else (0, 1)


# Fraction(num, den) for den > 0 and gcd(num, den) = 1, running no gcd; Python
# 3.12 added Fraction._from_coprime_ints and dropped the _normalize flag
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", partial(Fraction, _normalize=False))


def sum_fractions(items: Iterable[Fraction]) -> Fraction:
    """Exact sum of Fractions (or ints) as a reduced Fraction."""
    vals = list(items)
    return _sum_ratios([x.numerator for x in vals], [x.denominator for x in vals])


def sum_reciprocals(denominators: Iterable[int]) -> Fraction:
    """Exact sum of 1/d over the given nonzero ints, as a reduced Fraction."""
    dens = list(denominators)
    return _sum_ratios([1] * len(dens), dens)


_ZERO = Fraction(0)


class GaussianRational(Record):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = _ZERO, im: RationalLike = _ZERO):
        set_field(self, "re", re if type(re) is Fraction else _as_fraction(re))
        set_field(self, "im", im if type(im) is Fraction else _as_fraction(im))

    @staticmethod
    def of(value: GaussianLike) -> GaussianRational:
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(_as_fraction(value))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, exact."""
        return self.re * self.re + self.im * self.im

    def one_norm(self) -> Fraction:
        """|re| + |im|: a cheap exact upper bound for the modulus."""
        return abs(self.re) + abs(self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: GaussianLike) -> GaussianRational:
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: GaussianLike) -> GaussianRational:
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: GaussianLike) -> GaussianRational:
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: GaussianLike) -> GaussianRational:
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: GaussianLike) -> GaussianRational:
        o = GaussianRational.of(other)
        d = o.abs_sq()
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * o.conjugate()
        return GaussianRational(num.re / d, num.im / d)

    def __rtruediv__(self, other: GaussianLike) -> GaussianRational:
        return GaussianRational.of(other) / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.is_real:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self) -> list[int]:
        """[re_num, re_den, im_num, im_den]."""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_json(data) -> GaussianRational:
        rn, rd, im_n, im_d = data
        return GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))


GAUSSIAN_ONE = GaussianRational(Fraction(1))


class PiRational(Record):
    """The exact value (coefficient + imag_coefficient*i) * pi.

    Inner products of series with real rational coefficients always have
    imag_coefficient == 0; the imaginary slot exists because the pairing of
    two Gaussian-rational series is complex in general. Comparisons and
    float conversion insist on a real value.
    """

    __slots__ = ("coefficient", "imag_coefficient")
    coefficient: Fraction
    imag_coefficient: Fraction

    def __init__(self, coefficient: RationalLike = _ZERO, imag_coefficient: RationalLike = _ZERO):
        set_field(self, "coefficient", _as_fraction(coefficient))
        set_field(self, "imag_coefficient", _as_fraction(imag_coefficient))

    @property
    def is_zero(self) -> bool:
        return not self.coefficient and not self.imag_coefficient

    @property
    def is_real(self) -> bool:
        return not self.imag_coefficient

    def _require_real(self, what: str) -> Fraction:
        if not self.is_real:
            raise ValueError(f"{what} undefined for non-real multiple of pi: {self!r}")
        return self.coefficient

    def __add__(self, other: PiRational) -> PiRational:
        return PiRational(
            self.coefficient + other.coefficient,
            self.imag_coefficient + other.imag_coefficient,
        )

    def __sub__(self, other: PiRational) -> PiRational:
        return PiRational(
            self.coefficient - other.coefficient,
            self.imag_coefficient - other.imag_coefficient,
        )

    def __neg__(self) -> PiRational:
        return PiRational(-self.coefficient, -self.imag_coefficient)

    def __mul__(self, scalar: RationalLike) -> PiRational:
        s = _as_fraction(scalar)
        return PiRational(self.coefficient * s, self.imag_coefficient * s)

    __rmul__ = __mul__

    # > and >= reflect to these; any other operand type raises TypeError
    def __lt__(self, other: PiRational) -> bool:
        if not isinstance(other, PiRational):
            return NotImplemented
        return self._require_real("comparison") < other._require_real("comparison")

    def __le__(self, other: PiRational) -> bool:
        if not isinstance(other, PiRational):
            return NotImplemented
        return self._require_real("comparison") <= other._require_real("comparison")

    def __float__(self) -> float:
        return float(self._require_real("float conversion")) * _PI

    def __complex__(self) -> complex:
        return complex(float(self.coefficient) * _PI, float(self.imag_coefficient) * _PI)

    def __repr__(self) -> str:
        if self.is_real:
            return f"({self.coefficient})*pi"
        return f"({GaussianRational(self.coefficient, self.imag_coefficient)!r})*pi"
