from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergspace.rational import (
    GaussianRational,
    PiRational,
    _coprime_fraction,
    _product,
    _sum_coprime,
    sum_fractions,
    sum_reciprocals,
)


def test_gaussian_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 12))
    assert a - a == GaussianRational()
    assert 1 - a == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert bool(a) and not bool(a - a)
    assert a * GaussianRational.of(2) == GaussianRational(Fraction(1), Fraction(3, 2))
    # (1/2 + 3/4 i)(-2 + 1/3 i) = -1 - 1/4 + (1/6 - 3/2) i
    assert a * b == GaussianRational(Fraction(-5, 4), Fraction(-4, 3))


def test_gaussian_division_and_conjugate():
    a = GaussianRational(Fraction(3), Fraction(-4))
    assert a.abs_sq() == 25
    assert a.conjugate() == GaussianRational(Fraction(3), Fraction(4))
    assert (a / a) == GaussianRational.of(1)
    inv = GaussianRational.of(1) / a
    assert inv * a == GaussianRational.of(1)
    assert 1 / a == inv == GaussianRational(Fraction(3, 25), Fraction(4, 25))
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational()


def test_gaussian_one_norm_bounds_modulus():
    a = GaussianRational(Fraction(3, 7), Fraction(-5, 11))
    assert float(a.one_norm()) ** 2 >= float(a.abs_sq())


def test_gaussian_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)  # type: ignore[arg-type]


def test_gaussian_json_round_trip():
    a = GaussianRational(Fraction(-7, 3), Fraction(0, 5))
    assert GaussianRational.from_json(a.to_json()) == a


def test_pi_rational_ordering_and_float():
    third = PiRational(Fraction(1, 3))
    half = PiRational(Fraction(1, 2))
    assert third < half and half > third and third <= third
    assert float(half) == pytest.approx(1.5707963267948966)
    assert (half - half).is_zero


def test_pi_rational_complex_guard():
    twisted = PiRational(Fraction(1), Fraction(1, 2))
    assert not twisted.is_real
    with pytest.raises(ValueError):
        float(twisted)
    with pytest.raises(ValueError):
        _ = twisted < PiRational(Fraction(2))
    assert complex(twisted).imag == pytest.approx(1.5707963267948966)


def test_pi_rational_comparisons_take_only_pi_rationals():
    one, two = PiRational(1), PiRational(2)
    assert (two > one, two >= one, one >= one, one > one) == (True, True, True, False)
    assert (one > two, one >= two) == (False, False)
    twisted = PiRational(1, 1)
    for compare in (lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(ValueError):
            compare(twisted, one)
        with pytest.raises(ValueError):
            compare(one, twisted)
    # an int, a Fraction or a float is not a multiple of pi
    for other in (0, Fraction(1), 1.0):
        for compare in (
            lambda a, b: a < b,
            lambda a, b: a <= b,
            lambda a, b: a > b,
            lambda a, b: a >= b,
        ):
            with pytest.raises(TypeError):
                compare(one, other)
            with pytest.raises(TypeError):
                compare(other, one)


def test_sum_fractions_matches_fold():
    terms = [Fraction(1, n) for n in range(1, 500)]
    assert sum_fractions(terms) == sum(terms)
    assert sum_fractions([]) == 0


def assert_reduced(x):
    assert type(x) is Fraction
    assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


# Small terms next to terms with 40- to 60-digit numerators and denominators,
# so merges pair operands of very different sizes; ints ride along.
small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
big_fractions = st.builds(
    Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**40)
)
mixed_items = st.lists(
    st.one_of(small_fractions, big_fractions, st.integers(-(10**30), 10**30)),
    max_size=70,
)
# Repeats come from the narrow range; composites and negatives from its shape.
denominators = st.lists(
    st.one_of(st.integers(-30, -1), st.integers(1, 30), st.integers(2, 10**6)),
    max_size=150,
)


@settings(max_examples=150, deadline=None)
@given(items=mixed_items)
def test_sum_fractions_matches_fold_on_signed_mixed_sizes(items):
    total = sum_fractions(items)
    assert total == sum(items, Fraction(0))
    assert_reduced(total)


@settings(max_examples=150, deadline=None)
@given(dens=denominators)
def test_sum_reciprocals_matches_fold(dens):
    total = sum_reciprocals(dens)
    assert total == sum((Fraction(1, d) for d in dens), Fraction(0))
    assert_reduced(total)


SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@st.composite
def coprime_terms(draw):
    """Signed numerators of mixed sizes over pairwise coprime denominators:
    products of disjoint runs of distinct primes, where an empty run is 1."""
    primes = draw(st.permutations(SMALL_PRIMES))
    cuts = sorted(draw(st.lists(st.integers(0, len(primes)), max_size=40)))
    dens = [prod(primes[a:b]) for a, b in zip([0, *cuts], cuts)]
    nums = draw(
        st.lists(
            st.one_of(st.integers(-30, 30), st.integers(-(10**50), 10**50)),
            min_size=len(dens),
            max_size=len(dens),
        )
    )
    return nums, dens


@settings(max_examples=150, deadline=None)
@given(terms=coprime_terms())
def test_sum_coprime_matches_fold(terms):
    nums, dens = terms
    num, den = _sum_coprime(nums, dens)
    assert den == prod(dens)
    assert Fraction(num, den) == sum(map(Fraction, nums, dens), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(factors=st.lists(st.integers(-(10**30), 10**30), max_size=60))
def test_product_matches_fold(factors):
    assert _product(factors) == prod(factors)
    assert _product(iter(factors)) == prod(factors)


def test_sums_of_nothing_and_of_one_term():
    cases = [
        (sum_fractions([]), 0),
        (sum_reciprocals([]), 0),
        (sum_fractions([Fraction(-3, 2)]), Fraction(-3, 2)),
        (sum_fractions([7]), 7),
        (sum_reciprocals([-8]), Fraction(-1, 8)),
        # generators are read once
        (sum_fractions(Fraction(1, d) for d in (2, 3, 6)), 1),
        (sum_reciprocals(d for d in (2, 3, 6)), 1),
        (Fraction(*_sum_coprime([], [])), 0),
        (Fraction(*_sum_coprime([-6], [35])), Fraction(-6, 35)),
        (Fraction(*_sum_coprime([4], [1])), 4),
    ]
    for total, expected in cases:
        assert total == expected
        assert_reduced(total)
    assert _product([]) == 1
    assert _product([-7]) == -7


def test_coprime_fraction_keeps_the_given_terms():
    # Mersenne primes, and 10^50 + 1 against a power of ten
    pairs = [(0, 1), (1, 1), (-3, 4), (7, 30), (2**521 - 1, 2**607 - 1), (-(10**50 + 1), 10**49)]
    for num, den in pairs:
        total = _coprime_fraction(num, den)
        assert type(total) is Fraction
        assert (total.numerator, total.denominator) == (num, den)
        assert total == Fraction(num, den)


def test_sum_reciprocals_rejects_a_zero_denominator():
    for dens in ([3, 0], [0], [0, 3], [0, 0], [2, 5, 0, 7, 9]):
        with pytest.raises(ZeroDivisionError):
            sum_reciprocals(dens)
