"""Sparse formal power series over the Gaussian rationals, and the
coefficient-level inner product of the Bergman space of a disc.

For holomorphic f(z) = sum f_n z^n and g(z) = sum g_n z^n on the disc
|z| < R, integrating monomials in polar coordinates reduces the area
inner product to

    <f, g> = pi * sum_n R^(2n+2) * f_n * conj(g_n) / (n+1),

so with rational coefficients and rational R every inner product and
norm in this module is an exact rational multiple of pi.

A ``SparseSeries`` is stored as two parallel tuples: its exponents in
strictly increasing order, and their nonzero coefficients. The public
constructors (``SparseSeries`` from a mapping, ``from_exponents`` from any
iterable) check their input in full. The private ``SparseSeries._of``, and
``_ones`` for a 0/1 series, store without a check; ``truncate`` and the
decomposition builders call them only where their own construction or
exact checks already prove the canonical form.

All values are immutable and every operation is a pure function; there
is no shared mutable state, so concurrent use is safe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, Mapping

from . import _EXPORTS
from ._record import Record, set_field
from .errors import OutOfRange
from .rational import (
    GAUSSIAN_ONE,
    GaussianLike,
    GaussianRational,
    PiRational,
    _sum_ratios,
    sum_fractions,
)

__all__ = _EXPORTS["series"]


class Disc(Record):
    """The open disc |z| < radius, with exact rational radius."""

    __slots__ = ("radius",)
    radius: Fraction

    def __init__(self, radius: Fraction):
        r = radius if isinstance(radius, Fraction) else Fraction(radius)
        if r <= 0:
            raise OutOfRange(f"disc radius must be positive, got {r}")
        super().__init__(r)


UNIT_DISC = Disc(Fraction(1))


class SparseSeries(Record):
    """Finitely many nonzero Gaussian-rational coefficients, indexed by
    nonnegative exponent.

    Kept in canonical sparse form: the exponents strictly increase and no
    zero coefficient is ever stored, so equality is structural.
    ``degree_bound`` records the truncation degree D when the series stands
    for the truncation of an infinite series; None means the series is exact.
    """

    __slots__ = ("_exponents", "_coeffs", "_degree_bound")
    _exponents: tuple[int, ...]
    _coeffs: tuple[GaussianRational, ...]
    _degree_bound: int | None

    def __init__(
        self,
        coefficients: Mapping[int, GaussianLike] | None = None,
        degree_bound: int | None = None,
    ):
        coeffs: dict[int, GaussianRational] = {}
        for exponent, value in (coefficients or {}).items():
            if not isinstance(exponent, int) or exponent < 0:
                raise OutOfRange(f"exponents must be nonnegative integers, got {exponent!r}")
            c = GaussianRational.of(value)
            if not c.is_zero:
                coeffs[exponent] = c
        exponents = tuple(sorted(coeffs))
        if degree_bound is not None:
            if degree_bound < 0:
                raise OutOfRange(f"degree_bound must be >= 0, got {degree_bound}")
            if exponents and exponents[-1] > degree_bound:
                raise OutOfRange(
                    f"exponent {exponents[-1]} exceeds degree_bound {degree_bound}"
                )
        set_field(self, "_exponents", exponents)
        set_field(self, "_coeffs", tuple(map(coeffs.__getitem__, exponents)))
        set_field(self, "_degree_bound", degree_bound)

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return SparseSeries, (dict(self.terms()), self._degree_bound)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(exponents, coeffs, degree_bound: int | None) -> SparseSeries:
        """Store without a check. The caller proves the canonical form:
        strictly increasing int exponents within 0..degree_bound, each with
        a nonzero GaussianRational. Both are stored as tuples, so equality
        stays field by field."""
        series = object.__new__(SparseSeries)
        set_field(series, "_exponents", tuple(exponents))
        set_field(series, "_coeffs", tuple(coeffs))
        set_field(series, "_degree_bound", degree_bound)
        return series

    @staticmethod
    def _ones(exponents, degree_bound: int | None) -> SparseSeries:
        """``_of`` for a 0/1 series: every coefficient is 1."""
        return SparseSeries._of(exponents, (GAUSSIAN_ONE,) * len(exponents), degree_bound)

    @staticmethod
    def zero(degree_bound: int | None = None) -> SparseSeries:
        return SparseSeries({}, degree_bound)

    @staticmethod
    def monomial(exponent: int, coefficient: GaussianLike = 1) -> SparseSeries:
        return SparseSeries({exponent: coefficient})

    @staticmethod
    def geometric(degree: int) -> SparseSeries:
        """1 + z + ... + z^degree, the degree-D truncation of 1/(1-z)."""
        return SparseSeries.from_exponents(range(degree + 1), degree)

    @staticmethod
    def from_exponents(exponents, degree_bound: int | None = None) -> SparseSeries:
        """0/1 series with the given exponent set, from any iterable.

        The set is checked once, in bulk: plain int exponents, sorted once,
        whose least is >= 0 and greatest within degree_bound. Anything else
        takes the general constructor, which accepts or refuses it exponent
        by exponent.
        """
        distinct = dict.fromkeys(exponents)
        if set(map(type, distinct)) <= {int}:
            exps = sorted(distinct)
            low, high = (exps[0], exps[-1]) if exps else (0, 0)
            if low >= 0 and (degree_bound is None or high <= degree_bound):
                return SparseSeries._ones(exps, degree_bound)
        return SparseSeries(dict.fromkeys(distinct, GAUSSIAN_ONE), degree_bound)

    # -- inspection --------------------------------------------------------

    @property
    def degree_bound(self) -> int | None:
        return self._degree_bound

    @property
    def support(self) -> tuple[int, ...]:
        return self._exponents

    @property
    def is_zero(self) -> bool:
        return not self._exponents

    def coefficient(self, exponent: int) -> GaussianRational:
        i = bisect_left(self._exponents, exponent)
        if i < len(self._exponents) and self._exponents[i] == exponent:
            return self._coeffs[i]
        return GaussianRational()

    def terms(self) -> Iterator[tuple[int, GaussianRational]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return zip(self._exponents, self._coeffs)

    def __len__(self) -> int:
        return len(self._exponents)

    def __repr__(self) -> str:
        if self.is_zero:
            body = "0"
        else:
            body = " + ".join(
                f"({c!r})z^{e}" if e else f"({c!r})" for e, c in self.terms()
            )
        if self._degree_bound is not None:
            return f"<{body} | truncated at {self._degree_bound}>"
        return f"<{body}>"

    # -- arithmetic sugar (delegates to the module functions) --------------

    def __add__(self, other: SparseSeries) -> SparseSeries:
        return add(self, other)


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def add(f: SparseSeries, g: SparseSeries) -> SparseSeries:
    """Coefficient-wise sum.

    The result carries the tighter of the two truncation degrees and is
    truncated to it: the sum of a degree-D truncation and anything else is
    only faithful up to degree D.
    """
    bound = _min_bound(f.degree_bound, g.degree_bound)
    coeffs: dict[int, GaussianRational] = dict(f.terms())
    for e, c in g.terms():
        coeffs[e] = coeffs.get(e, GaussianRational()) + c
    if bound is not None:
        coeffs = {e: c for e, c in coeffs.items() if e <= bound}
    return SparseSeries(coeffs, bound)


def scale(f: SparseSeries, c: GaussianLike) -> SparseSeries:
    c = GaussianRational.of(c)
    return SparseSeries({e: c * v for e, v in f.terms()}, f.degree_bound)


def truncate(f: SparseSeries, degree: int) -> SparseSeries:
    """Drop all exponents above ``degree`` and record it as the bound."""
    if degree < 0:
        raise OutOfRange(f"truncation degree must be >= 0, got {degree}")
    n = bisect_right(f._exponents, degree)
    return SparseSeries._of(f._exponents[:n], f._coeffs[:n], degree)


def compose_power(f: SparseSeries, m: int) -> SparseSeries:
    """g(z) = f(z^m): every exponent is dilated by the factor m."""
    if m < 1:
        raise OutOfRange(f"power substitution needs m >= 1, got {m}")
    bound = None if f.degree_bound is None else f.degree_bound * m
    return SparseSeries({e * m: c for e, c in f.terms()}, bound)


def inner_product(f: SparseSeries, g: SparseSeries, disc: Disc = UNIT_DISC) -> PiRational:
    """<f, g> on the disc: pi * sum R^(2n+2) f_n conj(g_n) / (n+1), exact."""
    radius = disc.radius
    g_coeffs = dict(g.terms())
    re_terms: list[Fraction] = []
    im_terms: list[Fraction] = []
    for e, fc in f.terms():
        gc = g_coeffs.get(e)
        if gc is None:
            continue
        prod = fc * gc.conjugate()
        weight = radius ** (2 * e + 2) / (e + 1)
        if prod.re:
            re_terms.append(prod.re * weight)
        if prod.im:
            im_terms.append(prod.im * weight)
    return PiRational(sum_fractions(re_terms), sum_fractions(im_terms))


def norm_sq(f: SparseSeries, disc: Disc = UNIT_DISC) -> PiRational:
    """||f||^2 = <f, f>; the coefficient is nonnegative and zero iff f = 0.

    Summed on integers: for R = a/b and c = p/q + (s/t)i, the term of z^e is
    ((pt)^2 + (sq)^2) a^(2e+2) / ((qt)^2 b^(2e+2) (e+1)). The two powers
    are carried along the exponents in increasing order.
    """
    a2, b2 = disc.radius.numerator ** 2, disc.radius.denominator ** 2
    a_pow = b_pow = 1
    last = -1
    nums, dens = [], []
    for e, c in f.terms():
        a_pow *= a2 ** (e - last)
        b_pow *= b2 ** (e - last)
        last = e
        re, im = c.re, c.im
        p, q = re.numerator, re.denominator
        s, t = im.numerator, im.denominator
        nums.append(((p * t) ** 2 + (s * q) ** 2) * a_pow)
        dens.append((q * t) ** 2 * b_pow * (e + 1))
    return PiRational(_sum_ratios(nums, dens))
