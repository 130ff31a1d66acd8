"""Independent reference values for the benchmark's output checks.

Nothing here imports bergspace: primes come from this file's own sieve,
exact sums pair plain Fractions, rough sets are marked off a bytearray, and
complex polynomials are (re, im) Fraction pairs expanded from known roots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

Gauss = tuple[Fraction, Fraction]


def sieve(limit: int) -> tuple[int, ...]:
    """Primes up to ``limit`` by the sieve of Eratosthenes on a bytearray."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def upto(primes: tuple[int, ...], limit: int) -> tuple[int, ...]:
    return primes[: bisect_right(primes, limit)]


def tree_sum(terms) -> Fraction:
    """Exact sum of Fractions, adding neighbours pairwise until one is left."""
    vals = list(terms) or [Fraction(0)]
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def tree_product(values) -> int:
    vals = list(values) or [1]
    while len(vals) > 1:
        vals = [vals[i] * vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def recip_succ(window, exact: bool):
    """sum of 1/(p+1) over the window; a Fraction if exact, else a float."""
    if exact:
        return tree_sum(Fraction(1, p + 1) for p in window)
    return math.fsum(1.0 / (p + 1) for p in window)


def prime_window(primes: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    """Primes p with lo < p <= hi."""
    return primes[bisect_right(primes, lo) : bisect_right(primes, hi)]


def twin_window(primes: tuple[int, ...], limit: int) -> list[int]:
    """Primes p <= limit with p + 2 prime; ``primes`` must reach limit + 2."""
    ps = upto(primes, limit + 2)
    return [p for p, q in zip(ps, ps[1:]) if q == p + 2 and p <= limit]


def rough_upto(primes: tuple[int, ...], pk: int, limit: int) -> list[int]:
    """n in [2, limit] with no prime factor below pk."""
    keep = bytearray([1]) * (limit + 1)
    keep[0] = keep[1] = 0
    for p in upto(primes, pk - 1):
        keep[p :: p] = bytes(len(range(p, limit + 1, p)))
    return [n for n, k in enumerate(keep) if k]


def smooth_upto(primes: tuple[int, ...], pk: int, limit: int) -> list[int]:
    """n in [2, limit] with every prime factor below pk."""
    keep = bytearray([1]) * (limit + 1)
    keep[0] = keep[1] = 0
    for p in prime_window(primes, pk - 1, limit):
        keep[p :: p] = bytes(len(range(p, limit + 1, p)))
    return [n for n, k in enumerate(keep) if k]


def euler_product(primes: tuple[int, ...], pk: int) -> tuple[int, int]:
    """prod over primes p < pk of p/(p-1), as an unreduced (num, den)."""
    ps = upto(primes, pk - 1)
    return tree_product(ps), tree_product(p - 1 for p in ps)


def unit_norm(exponents) -> Fraction:
    """||sum z^e||^2 / pi on the unit disc: sum of 1/(e+1)."""
    return tree_sum(Fraction(1, e + 1) for e in exponents)


def rough_tail(primes: tuple[int, ...], pk: int, p2_limit: int,
               terms: int) -> tuple[Fraction, Fraction, Fraction]:
    """(tail, geometric majorant, partial sum) of the rough-tail estimate."""
    tail = tree_sum(Fraction(1, p) for p in prime_window(primes, pk - 1, p2_limit))
    partial = tree_sum(Fraction(1, n) for n in rough_upto(primes, pk, max(terms, 1)))
    return tail, tail / (1 - tail), partial


# -- Gaussian rationals as (re, im) pairs ------------------------------------


def g_mul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_from_json(data) -> Gauss:
    rn, rd, im_n, im_d = data
    return Fraction(rn, rd), Fraction(im_n, im_d)


def g_to_json(z: Gauss) -> list[int]:
    return [z[0].numerator, z[0].denominator, z[1].numerator, z[1].denominator]


def poly_from_roots(roots: list[complex]) -> list[Gauss]:
    """Coefficients a0..an of prod (z - r), each root taken as its exact
    binary rational, so the given complexes are exact roots."""
    coeffs: list[Gauss] = [(Fraction(1), Fraction(0))]
    for r in roots:
        rg = (Fraction(r.real), Fraction(r.imag))
        shifted = [(Fraction(0), Fraction(0))] + coeffs
        for i in range(len(coeffs)):
            prod = g_mul(rg, shifted[i + 1])
            shifted[i] = (shifted[i][0] - prod[0], shifted[i][1] - prod[1])
        coeffs = shifted
    return coeffs


def times_series_is_one(poly: list[Gauss], series: list[Gauss]) -> bool:
    """P * (b_0 + ... + b_D z^D) == 1 + O(z^(D+1)), multiplied out directly."""
    for j in range(len(series)):
        re = im = Fraction(0)
        for k in range(min(j, len(poly) - 1) + 1):
            prod = g_mul(poly[k], series[j - k])
            re += prod[0]
            im += prod[1]
        if (re, im) != (Fraction(1 if j == 0 else 0), Fraction(0)):
            return False
    return True


def conj_reciprocal(a: Gauss) -> Gauss:
    d = a[0] * a[0] + a[1] * a[1]
    return a[0] / d, a[1] / d
