import cmath
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bergspace import SparseSeries, UNIT_DISC, cli, inner_product
from bergspace.errors import DegreeTooSmall, NearZeroDetected, OutOfRange, ZeroConstantTerm
from bergspace.fta import (
    MAX_GRID_NODES,
    MAX_GRID_SIDE,
    Polynomial,
    QuadratureGrid,
    annulus_l2_bound,
    bergman_projection_constant,
    inner_disc_l2,
    r0_bound,
    reciprocal_taylor,
    root_disc_certificate,
    zero_threshold,
)
from bergspace.rational import GaussianRational, PiRational

from conftest import poly_from_roots, random_polynomial, random_roots

I = GaussianRational(Fraction(0), Fraction(1))


# -- reciprocal expansion ------------------------------------------------------


def test_reciprocal_geometric_series():
    expansion = reciprocal_taylor(Polynomial([1, -1]), 5)
    assert [expansion.series.coefficient(j) for j in range(6)] == [
        GaussianRational.of(1)
    ] * 6
    assert expansion.convolution_holds()


def test_reciprocal_of_constant():
    expansion = reciprocal_taylor(Polynomial([2]), 3)
    assert expansion.series.support == (0,)
    assert expansion.series.coefficient(0) == GaussianRational(Fraction(1, 2))


def test_reciprocal_of_two_plus_z():
    expansion = reciprocal_taylor(Polynomial([2, 1]), 3)
    got = [expansion.series.coefficient(j) for j in range(4)]
    assert got == [
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(-1, 4)),
        GaussianRational(Fraction(1, 8)),
        GaussianRational(Fraction(-1, 16)),
    ]
    assert expansion.convolution_holds()


def test_reciprocal_requires_nonzero_constant():
    with pytest.raises(ZeroConstantTerm):
        reciprocal_taylor(Polynomial([0, 0, 0, 1]), 4)


FLOAT_RANGE = ("the quadrature runs in floats: it needs r0 in about 5e-324 to 1.8e308, "
               "each coefficient's real and imaginary parts below 1.8e308 in size "
               "and each nonzero coefficient at least about 5e-324 in size")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: reciprocal_taylor(Polynomial([1, 1]), -1), ValueError,
         "expansion degree must be >= 0, got -1"),
        (lambda: bergman_projection_constant(Polynomial([0, 1])), ZeroConstantTerm,
         "P(0) = 0: 1/P has no Taylor expansion at 0"),
        (lambda: annulus_l2_bound(Polynomial([1, 0, 1]), Fraction(0)), ValueError,
         "r0 must be positive, got 0"),
        (lambda: inner_disc_l2(Polynomial([1, 0, 1]), Fraction(0)), ValueError,
         "r0 must be positive, got 0"),
        (lambda: inner_disc_l2(Polynomial([1, 0, 1]), Fraction(10**400)), OutOfRange,
         FLOAT_RANGE),
        (lambda: inner_disc_l2(Polynomial([1, 0, 10**400]), Fraction(1)), OutOfRange,
         FLOAT_RANGE),
        (lambda: inner_disc_l2(Polynomial([1, 0, 1]), Fraction(1, 10**400)), OutOfRange,
         FLOAT_RANGE),
        # a nonzero constant that rounds to 0 would read as a root
        (lambda: inner_disc_l2(Polynomial([Fraction(1, 10**400)]), Fraction(1),
                               QuadratureGrid(8, 8)), OutOfRange, FLOAT_RANGE),
    ],
    ids=["taylor-degree=-1", "projection-P(0)=0", "annulus-r0=0", "inner-disc-r0=0",
         "inner-disc-r0=1e400", "inner-disc-coefficient=1e400", "inner-disc-r0=1e-400",
         "inner-disc-coefficient=1e-400"],
)
def test_refuses_inputs_outside_the_domain(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_convolution_identity_random_polynomials():
    rng = random.Random(31)
    for _ in range(15):
        poly = random_polynomial(rng, 2, 8)
        assert reciprocal_taylor(poly, 64).convolution_holds()


# -- projection constant -------------------------------------------------------


def test_projection_constant_examples():
    assert bergman_projection_constant(Polynomial([1, -1])) == GaussianRational.of(1)
    two_i = GaussianRational(Fraction(0), Fraction(2))
    constant = bergman_projection_constant(Polynomial([two_i, 0, 1]))
    assert constant == GaussianRational(Fraction(0), Fraction(1, 2))
    # checked by multiplication: conj(constant) * a_0 == 1
    assert constant.conjugate() * two_i == GaussianRational.of(1)
    assert bergman_projection_constant(Polynomial([3])) == GaussianRational(Fraction(1, 3))


def test_projection_constant_equals_conjugated_b0():
    rng = random.Random(47)
    for _ in range(10):
        poly = random_polynomial(rng, 2, 6)
        b0 = reciprocal_taylor(poly, 0).series.coefficient(0)
        assert bergman_projection_constant(poly) == b0.conjugate()


def test_projection_constant_orthogonal_to_monomials():
    # the constant block of the expansion pairs to zero with every z^j, j >= 1
    poly = Polynomial([2, 1, 1])
    expansion = reciprocal_taylor(poly, 16)
    constant_block = SparseSeries({0: expansion.series.coefficient(0)})
    for j in range(1, 17):
        assert inner_product(constant_block, SparseSeries.monomial(j), UNIT_DISC).is_zero


def test_conjugate_monomials_orthogonal_by_quadrature():
    # integral of z^k * z^j over the unit disc vanishes for j + k >= 1:
    # midpoint polar quadrature, written out independently of the library
    n_r, n_t = 64, 64
    r = (np.arange(n_r) + 0.5) / n_r
    theta = (np.arange(n_t) + 0.5) * 2 * math.pi / n_t
    z = r[:, None] * np.exp(1j * theta)[None, :]
    weights = r[:, None] * (1.0 / n_r) * (2 * math.pi / n_t)
    for j in range(1, 7):
        for k in range(1, 7):
            integral = (z**k * z**j * weights).sum()
            assert abs(integral) < 1e-8


# -- R0 and the annulus bound ---------------------------------------------------


def test_r0_examples():
    assert r0_bound(Polynomial([1, 0, 1])) == 4
    assert r0_bound(Polynomial([100, 0, 1])) == 400
    with pytest.raises(ZeroConstantTerm):
        r0_bound(Polynomial([0, 0, 0, 1]))
    with pytest.raises(DegreeTooSmall):
        r0_bound(Polynomial([1, 1]))


def test_r0_tail_sum_below_half_exactly():
    rng = random.Random(5)
    for _ in range(25):
        poly = random_polynomial(rng, 2, 8)
        r0 = r0_bound(poly)
        tail = sum(
            (c / poly.leading).one_norm() / r0 ** (poly.degree - k)
            for k, c in enumerate(poly.coeffs[:-1])
        )
        assert tail <= Fraction(1, 2)


def test_tail_bound_honored_on_samples():
    rng = random.Random(13)
    for _ in range(10):
        poly = random_polynomial(rng, 2, 6)
        r0 = float(r0_bound(poly))
        lead = math.sqrt(float(poly.leading.abs_sq()))
        samples = [(rng.uniform(r0, 4 * r0), rng.uniform(0, 2 * math.pi)) for _ in range(100)]
        radius, theta = np.array(samples).T
        coeffs = [complex(c) for c in reversed(poly.coeffs)]
        values = np.abs(np.polyval(coeffs, radius * np.exp(1j * theta)))
        assert np.all(values >= 0.5 * lead * radius**poly.degree * (1 - 1e-9))


def test_annulus_bound_examples():
    assert annulus_l2_bound(Polynomial([1, 0, 1]), Fraction(4)) == PiRational(Fraction(1, 4))
    assert annulus_l2_bound(Polynomial([1, 0, 1]), Fraction(1)) == PiRational(4)
    assert annulus_l2_bound(Polynomial([1, 0, 0, 2]), Fraction(2)) == PiRational(Fraction(1, 32))
    # 4 / |10^-200|^2, far past the float range
    tiny_lead = Polynomial([1, 0, Fraction(1, 10**200)])
    assert annulus_l2_bound(tiny_lead, Fraction(1)) == PiRational(4 * 10**400)


def test_annulus_bound_monotone_in_r0():
    rng = random.Random(3)
    for _ in range(10):
        poly = random_polynomial(rng, 2, 6)
        r0 = r0_bound(poly)
        bounds = [annulus_l2_bound(poly, r0 * scale) for scale in (1, 2, 5, 10)]
        assert all(isinstance(b, PiRational) for b in bounds)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


# -- quadrature ------------------------------------------------------------------


def test_inner_disc_constant_one_is_area():
    value = inner_disc_l2(Polynomial([1]), Fraction(1))
    assert abs(value - math.pi) <= 1e-6 * math.pi


def test_quadrature_takes_a_coefficient_whose_square_is_past_the_float_range():
    # a_2 = 10^200 is a float and |a_2|^2 is not; the roots +-i/10^100 lie inside
    poly = Polynomial([1, 0, 10**200])
    assert zero_threshold(poly) == pytest.approx(1e191)
    with pytest.raises(NearZeroDetected):
        inner_disc_l2(poly, Fraction(1), QuadratureGrid(8, 8))


def test_inner_disc_constant_two():
    value = inner_disc_l2(Polynomial([2]), Fraction(2))
    assert value == pytest.approx(math.pi, rel=1e-9)


def test_inner_disc_grid_refinement():
    poly = Polynomial([2, 0, 1])
    base = inner_disc_l2(poly, Fraction(1))
    fine = inner_disc_l2(poly, Fraction(1), QuadratureGrid(5120, 5120))
    assert abs(base - fine) / fine < 1e-4


def test_grid_caps():
    for n_r, n_theta in ((MAX_GRID_SIDE, 8), (8, MAX_GRID_SIDE), (2**13, 2**13),
                         (MAX_GRID_SIDE, MAX_GRID_NODES // MAX_GRID_SIDE)):
        QuadratureGrid(n_r, n_theta)
    for n_r, n_theta in ((7, 8), (MAX_GRID_SIDE + 1, 8), (8, MAX_GRID_SIDE + 1), (2**13 + 1, 2**13)):
        with pytest.raises(ValueError, match=f"8 to {MAX_GRID_SIDE} and at most {MAX_GRID_NODES} nodes"):
            QuadratureGrid(n_r, n_theta)


def test_inner_disc_deterministic():
    poly = Polynomial([3, 1, 1])
    assert inner_disc_l2(poly, Fraction(2)) == inner_disc_l2(poly, Fraction(2))


def roots_on_node(grid, radius, ring, angle):
    """Roots on one grid node and on its conjugate node."""
    mids, _ = grid.radial_cells(radius)
    theta = (angle + 0.5) * 2 * math.pi / grid.n_theta
    node = mids[ring] * cmath.exp(1j * theta)
    return poly_from_roots([node, node.conjugate()])


def test_near_zero_detection_on_grid_node():
    grid = QuadratureGrid(64, 64)
    with pytest.raises(NearZeroDetected):
        inner_disc_l2(roots_on_node(grid, 4.0, 40, 10), Fraction(4), grid)


def one_shot_inner_disc_l2(poly, r0, grid):
    """The quadrature over the whole grid at once, as it was written before
    it ran in blocks of rings: the float estimate, or the (point, magnitude)
    of the first smallest node when that is below the zero threshold."""
    radius = float(Fraction(r0))
    mids, widths = grid.radial_cells(radius)
    theta = (np.arange(grid.n_theta) + 0.5) * (2.0 * math.pi / grid.n_theta)
    nodes = mids[:, None] * np.exp(1j * theta)[None, :]
    acc = np.zeros_like(nodes)
    for c in reversed(poly.coeffs):
        acc = acc * nodes + complex(c)
    magnitudes = np.abs(acc)
    smallest = magnitudes.min()
    if smallest < zero_threshold(poly):
        where = np.unravel_index(int(magnitudes.argmin()), magnitudes.shape)
        return complex(nodes[where]), float(smallest)
    ring_sums = (magnitudes**-2.0).sum(axis=1)
    return float((2.0 * math.pi / grid.n_theta) * np.sum(ring_sums * mids * widths))


@pytest.mark.parametrize(
    "poly, r0, grid",
    [
        (Polynomial([6, -5, 1]), Fraction(24), QuadratureGrid(64, 64)),
        (Polynomial([1, 2, 3, 4, 5, 6, 7, 8]), Fraction(7, 2), QuadratureGrid(300, 77)),
        (Polynomial([GaussianRational(Fraction(1, 2), Fraction(3, 4)), 1, 0, 1]), Fraction(5),
         QuadratureGrid(8, 3 * 2**14)),
        (roots_on_node(QuadratureGrid(1024, 64), 4.0, 900, 10), Fraction(4),
         QuadratureGrid(1024, 64)),
    ],
    ids=["one-block", "partial-last-block", "one-ring-per-block", "root-on-ring-900"],
)
def test_blocked_quadrature_matches_one_shot(poly, r0, grid):
    expected = one_shot_inner_disc_l2(poly, r0, grid)
    if isinstance(expected, float):
        assert inner_disc_l2(poly, r0, grid) == expected
        return
    with pytest.raises(NearZeroDetected) as info:
        inner_disc_l2(poly, r0, grid)
    assert (info.value.point, info.value.magnitude) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_quadrature_overflow_is_refused():
    # Horner reaches inf - inf at R0 = 10^201; the one-shot sum was NaN
    poly = Polynomial([1, 1, 1, 1, 1, Fraction("1e-200")])
    grid = QuadratureGrid(64, 64)
    assert math.isnan(one_shot_inner_disc_l2(poly, r0_bound(poly), grid))
    with pytest.raises(OutOfRange, match=r"float step overflowed .*R0 = 1e\+201"):
        inner_disc_l2(poly, r0_bound(poly), grid)


@pytest.mark.parametrize("n_r", [1024, 4096])
def test_quadrature_memory_does_not_grow_with_the_grid(n_r):
    poly = Polynomial([1, 2, 3, 4, 5, 6, 7, 8])
    inner_disc_l2(poly, Fraction(1), QuadratureGrid(8, 8))  # numpy loaded and warm
    tracemalloc.start()
    try:
        inner_disc_l2(poly, Fraction(1), QuadratureGrid(n_r, 1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- certificates -----------------------------------------------------------------


def modulus_sq(root: complex) -> Fraction:
    """|root|^2, exact for a float complex, which is a binary rational."""
    return Fraction(root.real) ** 2 + Fraction(root.imag) ** 2


def vieta_bound_sq(poly: Polynomial, k: int) -> Fraction:
    """R_k^(2k) = C(n, k)^2 |a_0|^2 / |a_k|^2, written out independently."""
    a0, ak = poly.coeffs[0], poly.coeffs[k]
    return math.comb(poly.degree, k) ** 2 * (a0.re**2 + a0.im**2) / (ak.re**2 + ak.im**2)


def assert_least_bound(report, poly):
    """radius is at least R_k at its k, within 2^-50 of the least R_j over
    every j with a_j != 0, and certified_radius rounds it up."""
    k, radius = report.k, report.radius
    assert radius ** (2 * k) >= vieta_bound_sq(poly, k)
    below = radius * (1 - Fraction(1, 2**50))
    for j, c in enumerate(poly.coeffs):
        if j and not c.is_zero:
            assert below ** (2 * j) < vieta_bound_sq(poly, j)
    certified = report.certified_radius
    if math.isfinite(certified):  # it prints as a decimal of 15 digits at or above radius
        assert Fraction(repr(certified)) >= radius
        assert float(f"{certified:.15g}") == certified
    else:
        assert radius > sys.float_info.max
    assert report.root_witness is None


def test_certificate_z2_minus_one():
    report = root_disc_certificate(Polynomial([-1, 0, 1]))
    assert (report.radius, report.k, report.certified_radius) == (1, 2, 1.0)
    assert report.r0 == 4


def test_certificate_large_constant_term():
    report = root_disc_certificate(Polynomial([10**6, 0, 1]))
    assert report.radius == 1_000  # roots at +-1000i


def test_certificate_z_minus_2_z_minus_3():
    # Newton's sum 1/2 + 1/3 = 5/6 gives 2 * 6/5; Vieta's product gives sqrt(6)
    report = root_disc_certificate(Polynomial([6, -5, 1]))
    assert (report.radius, report.k) == (Fraction(12, 5), 1)
    assert report.certified_radius == 2.4


def test_certificate_soundness_random_roots():
    rng = random.Random(101)
    for _ in range(12):
        roots = random_roots(rng, rng.randint(2, 6))
        poly = poly_from_roots(roots)
        report = root_disc_certificate(poly)
        assert min(map(modulus_sq, roots)) <= report.radius**2
        assert_least_bound(report, poly)


ROOT_GRID = 2**16


def family_roots(rng, family, degree):
    """The three root families of the benchmark's root-certs workload: moduli
    uniform in 0.3-10, moduli uniform in 0.01-100, and a cluster of relative
    width 1e-3 around a centre of modulus 0.5-20, rounded to the 2^-16 grid."""

    def polar(modulus):
        return modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    if family == "moderate":
        roots = [polar(rng.uniform(0.3, 10.0)) for _ in range(degree)]
    elif family == "spread":
        roots = [polar(rng.uniform(0.01, 100.0)) for _ in range(degree)]
    else:
        centre = polar(rng.uniform(0.5, 20.0))
        roots = [centre * (1 + polar(rng.uniform(0.0, 1e-3))) for _ in range(degree)]
    return [complex(round(r.real * ROOT_GRID) / ROOT_GRID, round(r.imag * ROOT_GRID) / ROOT_GRID)
            for r in roots]


@pytest.mark.parametrize("family", ["moderate", "spread", "cluster"])
def test_certificate_contains_a_root_in_every_family(family):
    # the float quadrature's radius fell below every root on about a quarter of these
    rng = random.Random(family)
    for degree in (2, 3, 4, 5, 6, 7) * 5:
        roots = [r for r in family_roots(rng, family, degree) if r]
        poly = poly_from_roots(roots)
        report = root_disc_certificate(poly)
        assert min(map(modulus_sq, roots)) <= report.radius**2
        assert_least_bound(report, poly)


@pytest.mark.parametrize(
    "scale",
    [Fraction(1, 10**300), Fraction(-7, 3), Fraction(10**300),
     GaussianRational(Fraction(3, 10**150), Fraction(-4, 10**150)),
     GaussianRational(Fraction(0), Fraction(10**300, 7))],
    ids=["1e-300", "-7/3", "1e300", "gaussian-5e-150", "gaussian-i*1e300/7"],
)
def test_certificate_of_c_times_p_is_that_of_p(scale):
    rng = random.Random(7)
    for _ in range(10):
        poly = random_polynomial(rng, 2, 7)
        scaled = Polynomial([GaussianRational.of(scale) * c for c in poly.coeffs])
        assert root_disc_certificate(scaled) == root_disc_certificate(poly)


# rational points of the unit circle: 1, i, (3 + 4i)/5, (5 - 12i)/13, (-8 + 15i)/17
UNIT_POINTS = [GaussianRational(Fraction(re), Fraction(im)) for re, im in
               [(1, 0), (0, 1), ("3/5", "4/5"), ("5/13", "-12/13"), ("-8/17", "15/17")]]


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(5, 4), Fraction(1, 10**40), Fraction(3**50)])
@pytest.mark.parametrize("degree", [2, 3, 5])
def test_roots_on_one_circle_give_its_radius_exactly(rho, degree):
    # Vieta's product |a_0 / a_n| = rho^n is attained, so R = rho exactly
    coeffs = [GaussianRational.of(1)]
    for u in UNIT_POINTS[:degree]:  # times (z - rho u)
        root = u * GaussianRational.of(rho)
        coeffs = [GaussianRational(), *coeffs]
        coeffs = [a - root * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    report = root_disc_certificate(Polynomial(coeffs))
    assert report.radius == rho
    # z^n - rho^n: its roots sit on the same circle, at irrational points
    report = root_disc_certificate(Polynomial([-(rho**degree)] + [0] * (degree - 1) + [1]))
    assert (report.radius, report.k) == (rho, degree)


@pytest.mark.parametrize("exponent", [-5000, -1, 0, 1, 5000])
@pytest.mark.parametrize("multiplier", [1, 2, 3])
def test_radius_is_exact_or_tight_from_1e_minus_5000_to_1e5000(exponent, multiplier):
    # 1 + a_2 z^2 with |a_2| = 1 / (multiplier 10^(2 exponent)): R^4 = multiplier^2 10^(4 exponent)
    poly = Polynomial([1, 0, Fraction(1, multiplier * Fraction(10) ** (2 * exponent))])
    report = root_disc_certificate(poly)
    assert report.k == 2
    if multiplier == 1:
        assert report.radius == Fraction(10) ** exponent
    else:
        assert report.radius.denominator & (report.radius.denominator - 1) == 0  # dyadic
        assert_least_bound(report, poly)


def test_certificate_report_json_shape():
    report = root_disc_certificate(Polynomial([6, -5, 1]))
    data = cli.certificate_report(report)
    assert data == {
        "r0": [24, 1],
        "radius": [12, 5],
        "k": 1,
        "certified_radius": 2.4,
        "comment": cli.BOUND_COMMENT,
    }
    assert "C(n,k)" in data["comment"]
