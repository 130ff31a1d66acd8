import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergspace import (
    Disc,
    SparseSeries,
    UNIT_DISC,
    add,
    compose_power,
    inner_product,
    norm_sq,
    scale,
    truncate,
)
from bergspace.rational import GaussianRational, PiRational

from conftest import oracle_inner_product, random_rational_series, series_as_pairs

ONE = SparseSeries.monomial(0)
Z = SparseSeries.monomial(1)


def pi_frac(num, den=1):
    return PiRational(Fraction(num, den))


# -- construction and canonical form ----------------------------------------


def test_canonical_form_drops_zeros():
    f = SparseSeries({0: 1, 3: 0, 5: Fraction(0, 7)})
    assert f.support == (0,)
    assert len(f) == 1


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        SparseSeries({-1: 1})
    with pytest.raises(ValueError):
        SparseSeries({5: 1}, degree_bound=3)


@pytest.mark.parametrize(
    "exponents, bound",
    [
        ([1.0], None),
        ([3, -1], None),
        ([0, 5], 3),
        ([0], -1),
        ([], -1),
        ([5, 0, 5, 2], 4),
        ((e for e in (3, -2, 1)), None),
        ([2**70], 2**70 - 1),
        (range(6, -2, -1), None),
    ],
)
def test_from_exponents_refuses_as_the_general_constructor(exponents, bound):
    exponents = list(exponents)  # a one-shot generator is read once here, once below
    with pytest.raises(ValueError) as general:
        SparseSeries({e: 1 for e in exponents}, bound)
    with pytest.raises(ValueError) as bulk:
        SparseSeries.from_exponents(iter(exponents), bound)
    assert str(bulk.value) == str(general.value)


@pytest.mark.parametrize(
    "exponents, bound",
    [
        ([], None),
        ([], 0),
        ([0, 2, 2, 7], 7),
        ([True, 3], None),
        (range(5), 4),
        ((9, 1), None),
        (range(9), 8),
        ([5, 0, 5, 2], 5),
        ((e for e in (4, 1, 4, 0)), None),
        ([3, 2**70], 2**70),
        (range(7, -1, -1), 7),
    ],
)
def test_from_exponents_accepts_as_the_general_constructor(exponents, bound):
    given = exponents
    if not isinstance(given, (list, tuple, range)):  # a one-shot generator
        exponents = list(given)
        given = iter(exponents)
    general = SparseSeries({e: 1 for e in exponents}, bound)
    bulk = [SparseSeries.from_exponents(given, bound)]
    if isinstance(exponents, range) and exponents == range(bound + 1):  # 1 + ... + z^bound
        bulk.append(SparseSeries.geometric(bound))
    for series in bulk:
        assert series == general and hash(series) == hash(general)
        assert repr(series) == repr(general)
        assert series.support == tuple(sorted(set(exponents)))


def test_from_exponents_coerces_no_coefficient(monkeypatch):
    calls = []
    original = GaussianRational.of

    def counting_of(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(GaussianRational, "of", staticmethod(counting_of))
    f = SparseSeries.from_exponents(range(10**4))
    assert not calls
    assert f.support == tuple(range(10**4))
    assert f.coefficient(1234) == GaussianRational(1)


def test_equality_is_structural():
    assert SparseSeries({1: 1, 2: 1}) == SparseSeries({2: 1, 1: 1})
    assert SparseSeries({1: 1}) != SparseSeries({1: 1}, degree_bound=4)


# -- inner products: frozen examples -----------------------------------------


def test_inner_product_examples():
    assert inner_product(ONE, ONE, UNIT_DISC) == pi_frac(1)
    assert inner_product(Z, Z, UNIT_DISC) == pi_frac(1, 2)
    for radius in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
        assert inner_product(
            SparseSeries.monomial(2), SparseSeries.monomial(3), Disc(radius)
        ).is_zero
    assert inner_product(ONE, ONE, Disc(Fraction(2))) == pi_frac(4)


def test_norm_examples():
    assert norm_sq(SparseSeries.zero(), UNIT_DISC).is_zero
    assert norm_sq(ONE + Z, UNIT_DISC) == pi_frac(3, 2)
    assert norm_sq(SparseSeries({3: 1, 4: 1}), UNIT_DISC) == pi_frac(9, 20)


def test_norm_against_direct_oracle():
    f = SparseSeries({3: 1, 4: 1})
    re, im = oracle_inner_product(series_as_pairs(f), series_as_pairs(f), Fraction(1))
    assert norm_sq(f, UNIT_DISC) == PiRational(re, im)


gaussian_st = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=15),
    st.fractions(min_value=-9, max_value=9, max_denominator=15),
).filter(lambda c: c.abs_sq() not in (0, 1))
gaussian_series_st = st.dictionaries(
    st.integers(0, 60), gaussian_st, min_size=1, max_size=10
).map(SparseSeries)


@settings(max_examples=80, deadline=None)
@given(
    f=gaussian_series_st,
    r=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]),
)
def test_norm_sq_matches_direct_fold_and_inner_product(f, r):
    fold = Fraction(0)
    for e, c in f.terms():
        fold += c.abs_sq() * r ** (2 * e + 2) / (e + 1)
    assert norm_sq(f, Disc(r)) == PiRational(fold)
    assert norm_sq(f, Disc(r)) == inner_product(f, f, Disc(r))


@pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(7, 5)])
@pytest.mark.parametrize("exponents", [range(40), [0, 1, 7, 8, 30, 31, 32, 200, 999]])
def test_norm_sq_in_any_insertion_order(exponents, r):
    # norm_sq carries R's powers along the sorted exponents; the order the
    # coefficients were inserted in must not matter
    rng = random.Random(len(exponents))
    coeffs = {e: GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for e in exponents}
    fold = sum(c.abs_sq() * r ** (2 * e + 2) / (e + 1) for e, c in coeffs.items())
    items = list(coeffs.items())
    for _ in range(3):
        rng.shuffle(items)
        assert norm_sq(SparseSeries(dict(items)), Disc(r)) == PiRational(fold)


def test_complex_inner_product_conjugates_second_argument():
    f = SparseSeries({2: GaussianRational(Fraction(0), Fraction(1))})  # i z^2
    g = SparseSeries({2: 1})
    assert inner_product(f, g, UNIT_DISC) == PiRational(Fraction(0), Fraction(1, 3))
    assert inner_product(g, f, UNIT_DISC) == PiRational(Fraction(0), Fraction(-1, 3))


# -- structural operations ----------------------------------------------------


def test_compose_power_examples():
    f = SparseSeries({1: 1, 2: 1})
    assert compose_power(f, 3) == SparseSeries({3: 1, 6: 1})
    assert compose_power(f, 1) == f
    assert norm_sq(compose_power(Z, 5), UNIT_DISC) == pi_frac(1, 6)
    assert pi_frac(1, 6) < Fraction(2, 5) * norm_sq(Z, UNIT_DISC)
    with pytest.raises(ValueError):
        compose_power(f, 0)


def test_compose_power_scales_degree_bound():
    f = SparseSeries({1: 1}, degree_bound=4)
    assert compose_power(f, 3).degree_bound == 12


def test_add_scale_truncate_examples():
    assert add(Z, Z) == SparseSeries({1: 2})
    assert scale(ONE + Z, 0) == SparseSeries.zero()
    assert truncate(SparseSeries({0: 1, 1: 1, 5: 1}), 3) == SparseSeries(
        {0: 1, 1: 1}, degree_bound=3
    )
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got -1"):
        truncate(Z, -1)


def test_add_respects_tighter_truncation():
    f = SparseSeries({0: 1, 5: 1})
    g = SparseSeries({1: 1}, degree_bound=2)
    total = add(f, g)
    assert total.degree_bound == 2
    assert total.support == (0, 1)


def test_scale_keeps_degree_bound():
    f = SparseSeries({1: 1}, degree_bound=3)
    assert scale(f, 7).degree_bound == 3


# -- invariants (property tests) ----------------------------------------------

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=12)
series_st = st.dictionaries(st.integers(0, 40), fractions_st, min_size=1, max_size=6).map(
    SparseSeries
)
radius_st = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])


@settings(max_examples=60, deadline=None)
@given(f=series_st, g=series_st, h=series_st, a=fractions_st, b=fractions_st, r=radius_st)
def test_inner_product_bilinear_in_first_argument(f, g, h, a, b, r):
    disc = Disc(r)
    lhs = inner_product(add(scale(f, a), scale(g, b)), h, disc)
    rhs = a * inner_product(f, h, disc) + b * inner_product(g, h, disc)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(f=series_st, g=series_st, r=radius_st)
def test_inner_product_conjugate_linear_in_second_argument(f, g, r):
    disc = Disc(r)
    c = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    lhs = inner_product(f, scale(g, c), disc)
    base = inner_product(f, g, disc)
    conj = c.conjugate()
    rhs = PiRational(
        conj.re * base.coefficient - conj.im * base.imag_coefficient,
        conj.re * base.imag_coefficient + conj.im * base.coefficient,
    )
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(
        st.dictionaries(st.integers(0, 60), fractions_st, min_size=1, max_size=4),
        min_size=2,
        max_size=4,
    ),
    r=radius_st,
)
def test_parseval_additivity_for_disjoint_supports(parts, r):
    # shift each part into its own exponent window to force disjointness
    disc = Disc(r)
    shifted = [
        SparseSeries({e + 100 * i: c for e, c in part.items()})
        for i, part in enumerate(parts)
    ]
    total = SparseSeries.zero()
    for f in shifted:
        total = add(total, f)
    combined = norm_sq(total, disc)
    by_parts = PiRational(Fraction(0))
    for f in shifted:
        by_parts = by_parts + norm_sq(f, disc)
    assert combined == by_parts


@settings(max_examples=80, deadline=None)
@given(
    f=st.dictionaries(st.integers(1, 40), fractions_st, min_size=1, max_size=6).map(
        SparseSeries
    ),
    m=st.integers(2, 50),
)
def test_power_substitution_strict_bound(f, m):
    if f.is_zero:
        return
    assert norm_sq(compose_power(f, m), UNIT_DISC) < Fraction(2, m) * norm_sq(f, UNIT_DISC)


@settings(max_examples=40, deadline=None)
@given(f=series_st, r=radius_st)
def test_truncation_norm_monotone(f, r):
    disc = Disc(r)
    degrees = sorted({0, 5, 17, 40, max(f.support, default=0)})
    previous = PiRational(Fraction(0))
    for degree in degrees:
        current = norm_sq(truncate(f, degree), disc)
        assert previous <= current
        previous = current
    assert previous <= norm_sq(f, disc)


def test_monomial_orthogonality_grid():
    for radius in (Fraction(1, 2), Fraction(1), Fraction(2)):
        disc = Disc(radius)
        for a in range(0, 65, 7):
            for b in range(0, 65, 9):
                if a != b:
                    value = inner_product(
                        SparseSeries.monomial(a), SparseSeries.monomial(b), disc
                    )
                    assert value.is_zero


def test_random_inner_products_match_oracle():
    rng = random.Random(20260809)
    for _ in range(40):
        f = random_rational_series(rng)
        g = random_rational_series(rng)
        for radius in (Fraction(1, 2), Fraction(1), Fraction(2)):
            re, im = oracle_inner_product(
                series_as_pairs(f), series_as_pairs(g), radius
            )
            assert inner_product(f, g, Disc(radius)) == PiRational(re, im)


