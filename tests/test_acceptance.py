"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; exact checks use rational equality with zero
tolerance, the certificate comparison included, and each criterion asserts
its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from fractions import Fraction

from bergspace import (
    Disc,
    Polynomial,
    SparseSeries,
    UNIT_DISC,
    bergman_projection_constant,
    compose_power,
    geometric_partition,
    inner_product,
    norm_sq,
    reciprocal_taylor,
    root_disc_certificate,
    rough_dedup,
)
from bergspace.primes import (
    bertrand_witness,
    euler_product_smooth,
    make_partition,
    prime_norm_partial,
    rough_numbers,
    smooth_numbers,
    twin_prime_norm_partial,
)
from bergspace.rational import GaussianRational, PiRational, sum_fractions
from bergspace.series import add, scale

from conftest import (
    oracle_inner_product,
    oracle_is_prime,
    poly_from_roots,
    random_fraction,
    random_polynomial,
    random_rational_series,
    random_roots,
    series_as_pairs,
)


def criterion(number: int, name: str, budget_seconds: float):
    """Time the body, print one pass/fail line, enforce the budget."""

    class _Guard:
        def __enter__(self):
            self.started = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.started
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number:02d} {name}: {verdict} ({elapsed:.2f}s / {budget_seconds:g}s)")
            if exc_type is None:
                assert elapsed < budget_seconds, (
                    f"criterion {number} exceeded budget: {elapsed:.2f}s"
                )
            return False

    return _Guard()


def test_criterion_01_inner_product_matches_oracle():
    with criterion(1, "coefficient inner product vs direct oracle", 5.0):
        rng = random.Random(101)
        radii = (Fraction(1, 2), Fraction(1), Fraction(2))
        for _ in range(200):
            f = random_rational_series(rng, max_degree=64)
            g = random_rational_series(rng, max_degree=64)
            for radius in radii:
                expected = oracle_inner_product(
                    series_as_pairs(f), series_as_pairs(g), radius
                )
                assert inner_product(f, g, Disc(radius)) == PiRational(*expected)


def test_criterion_02_reciprocal_expansion_and_projection():
    with criterion(2, "reciprocal Taylor convolution + projection constant", 5.0):
        rng = random.Random(202)
        for _ in range(50):
            poly = random_polynomial(rng, 2, 8)
            expansion = reciprocal_taylor(poly, 64)
            assert expansion.convolution_holds()
            b0 = expansion.series.coefficient(0)
            assert bergman_projection_constant(poly) == b0.conjugate()


def test_criterion_03_constant_norm_is_area_times_modulus():
    with criterion(3, "norm of a constant on D_R", 5.0):
        rng = random.Random(303)
        for _ in range(20):
            c = GaussianRational(random_fraction(rng), random_fraction(rng))
            radius = Fraction(rng.randint(1, 40), rng.randint(1, 17))
            got = norm_sq(SparseSeries({0: c}), Disc(radius))
            assert got == PiRational(radius**2 * c.abs_sq())


def test_criterion_04_certificate_soundness():
    with criterion(4, "root-disc certificate contains a true root", 60.0):
        rng = random.Random(404)
        for _ in range(50):
            roots = random_roots(rng, rng.randint(2, 6))
            poly = poly_from_roots(roots)
            report = root_disc_certificate(poly)
            # exact: the float roots are binary rationals, and so are poly's coefficients
            smallest_sq = min(Fraction(r.real) ** 2 + Fraction(r.imag) ** 2 for r in roots)
            assert smallest_sq <= report.radius**2
            assert report.radius <= Fraction(repr(report.certified_radius))


def test_criterion_05_power_substitution_strict_inequality():
    with criterion(5, "dilated norm strictly below (2/m) original", 5.0):
        rng = random.Random(505)
        checked = 0
        while checked < 500:
            f = random_rational_series(rng, max_degree=64)
            f = SparseSeries({e: c for e, c in f.terms() if e >= 1})
            if f.is_zero:
                continue
            m = rng.randint(2, 50)
            assert norm_sq(compose_power(f, m), UNIT_DISC) < Fraction(2, m) * norm_sq(
                f, UNIT_DISC
            )
            checked += 1


def test_criterion_06_geometric_partition_exact_coverage():
    with criterion(6, "orthogonal partition of the geometric series", 10.0):
        for pk in (2, 3, 5, 7, 11):
            for degree in (10, 100, 1000):
                report = geometric_partition(pk, degree)  # raises on any violation
                assert sorted(report.coverage) == list(range(degree + 1))
                assert report.block_sum() == SparseSeries.geometric(degree)


def test_criterion_07_dedup_norm_chain():
    with criterion(7, "deduplicated rough decomposition norm chain", 30.0):
        for pk in (3, 5, 11):
            for degree in (100, 1000):
                report = rough_dedup(pk, degree, degree)
                q_norm = norm_sq(report.q_block, UNIT_DISC)
                for (l, g), (l2, h_norm) in zip(report.g_blocks, report.h_norms):
                    assert l == l2
                    assert norm_sq(g, UNIT_DISC) <= h_norm
                    assert h_norm <= Fraction(2, l) * q_norm
                part = make_partition(pk, degree)
                expected = SparseSeries.from_exponents(
                    rough_numbers(part, degree), degree_bound=degree
                )
                assert report.block_sum() == expected


def test_criterion_08_euler_product_majorizes_smooth_reciprocals():
    with criterion(8, "Euler product vs smooth reciprocal sums to 1e6", 30.0):
        for pk in (3, 5, 7, 11, 13):
            part = make_partition(pk, pk)
            partial = 1 + sum_fractions(
                [Fraction(1, k) for k in smooth_numbers(part, 10**6)]
            )
            product = euler_product_smooth(part)
            assert partial < product
            if pk == 3:
                assert float(product - partial) < 1e-2


def test_criterion_09_bertrand_witness_every_n():
    with criterion(9, "prime witness in (N, 2N] for all N <= 1e4", 10.0):
        assert bertrand_witness(2).value == PiRational(Fraction(1, 4))
        for n in range(1, 10_001):
            assert bertrand_witness(n).prime_found


def test_criterion_10_twin_prime_norm_vs_oracle():
    with criterion(10, "twin prime partial norm vs trial division", 10.0):
        expected = Fraction(0)
        for p in range(2, 10_001):
            if oracle_is_prime(p) and oracle_is_prime(p + 2):
                expected += Fraction(1, p + 1)
        assert twin_prime_norm_partial(10_000) == PiRational(expected)
        values = [twin_prime_norm_partial(limit) for limit in (10, 100, 1000, 10_000)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_criterion_11_divergence_vs_convergence_contrast():
    with criterion(11, "prime norm grows, twin norm increments shrink", 60.0):
        limits = (100, 1_000, 10_000, 100_000)
        prime_values = [prime_norm_partial(L).coefficient for L in limits]
        prime_steps = [b - a for a, b in zip(prime_values, prime_values[1:])]
        assert all(b > a for a, b in zip(prime_values, prime_values[1:]))
        assert all(step >= Fraction(9, 100) for step in prime_steps)
        twin_values = [twin_prime_norm_partial(L).coefficient for L in limits]
        twin_steps = [b - a for a, b in zip(twin_values, twin_values[1:])]
        assert all(a > b for a, b in zip(twin_steps, twin_steps[1:]))


def test_criterion_12_square_integrability_boundary():
    with criterion(12, "1/(1-z) norms grow, (1-z)^(-1/2) norms converge", 30.0):
        # truncations of 1/(1-z): each doubling of the degree adds >= 0.6 pi
        previous = None
        for j in range(4, 17):
            value = norm_sq(SparseSeries.geometric(2**j)).coefficient
            if previous is not None:
                assert value - previous >= Fraction(3, 5)
            previous = value
        # truncations of (1-z)^(-1/2): partial norms converge; floats allowed,
        # coefficients from the central-binomial recurrence c_n = c_{n-1}(2n-1)/(2n)
        partials = []
        total = 0.0
        c = 1.0
        n = 0
        for j in range(4, 17):
            while n <= 2**j:
                total += c * c / (n + 1)
                n += 1
                c *= (2 * n - 1) / (2 * n)
            partials.append(total)
        diffs = [b - a for a, b in zip(partials, partials[1:])]
        assert all(d >= 0 for d in diffs)
        assert diffs[-1] < 1e-3
