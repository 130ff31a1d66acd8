import cmath
import math
import random
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
from bergspace.rational import GaussianRational

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
    ],
    ids=["taylor-degree=-1", "projection-P(0)=0", "annulus-r0=0", "inner-disc-r0=0"],
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
    assert annulus_l2_bound(Polynomial([1, 0, 1]), Fraction(4)) == pytest.approx(
        math.pi / 4
    )
    assert annulus_l2_bound(Polynomial([1, 0, 1]), Fraction(1)) == pytest.approx(
        4 * math.pi
    )
    assert annulus_l2_bound(Polynomial([1, 0, 0, 2]), Fraction(2)) == pytest.approx(
        math.pi / 32
    )


def test_annulus_bound_monotone_in_r0():
    rng = random.Random(3)
    for _ in range(10):
        poly = random_polynomial(rng, 2, 6)
        r0 = r0_bound(poly)
        bounds = [annulus_l2_bound(poly, r0 * scale) for scale in (1, 2, 5, 10)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


# -- quadrature ------------------------------------------------------------------


def test_inner_disc_constant_one_is_area():
    value = inner_disc_l2(Polynomial([1]), Fraction(1))
    assert abs(value - math.pi) <= 1e-6 * math.pi


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
        root_disc_certificate(poly, grid)


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


def test_certificate_z2_minus_one():
    report = root_disc_certificate(Polynomial([-1, 0, 1]))
    roots = np.roots([1, 0, -1])  # independent iterative root finder
    assert report.certified_radius >= 1
    assert min(abs(r) for r in roots) <= report.certified_radius + 1e-6
    assert report.m_constant >= report.annulus_bound
    expected = abs(complex(-1)) * math.sqrt(report.m_constant / math.pi)
    assert report.certified_radius == pytest.approx(expected)


def test_certificate_large_constant_term():
    report = root_disc_certificate(Polynomial([10**6, 0, 1]))
    assert report.certified_radius >= 1_000  # roots at +-1000i


def test_certificate_z_minus_2_z_minus_3():
    report = root_disc_certificate(Polynomial([6, -5, 1]))
    assert report.certified_radius >= 2


def test_certificate_near_zero_becomes_witness():
    # plant roots +-iy so that R0 = 4y^2 and iy sits on the grid: with
    # c = mids[50]/radius resolution-invariant, y = 1/(4c) is a fixed point,
    # and n_theta = 62 puts an angular node exactly at pi/2
    grid = QuadratureGrid(64, 62)
    unit_mids, _ = grid.radial_cells(1.0)
    y = 1.0 / (4.0 * float(unit_mids[50]))
    poly = poly_from_roots([1j * y, -1j * y])
    assert float(r0_bound(poly)) == pytest.approx(4 * y * y)
    report = root_disc_certificate(poly, grid)
    assert report.root_witness is not None
    assert report.certified_radius == pytest.approx(y, rel=1e-9)
    assert report.inner_integral is None and report.m_constant is None


def test_certificate_soundness_random_roots():
    rng = random.Random(101)
    for _ in range(12):
        roots = random_roots(rng, rng.randint(2, 6))
        poly = poly_from_roots(roots)
        report = root_disc_certificate(poly)
        smallest = min(abs(r) for r in roots)
        assert report.root_witness is not None or (
            smallest <= report.certified_radius + 1e-6
        )


def test_certificate_report_json_shape():
    report = root_disc_certificate(Polynomial([6, -5, 1]), QuadratureGrid(64, 64))
    data = cli.certificate_report(report)
    assert list(data) == [
        "r0",
        "annulus_bound",
        "inner_integral",
        "m_constant",
        "certified_radius",
        "grid",
        "root_witness",
        "comment",
    ]
    assert data["r0"] == [report.r0.numerator, report.r0.denominator]
    assert data["grid"] == "64x64"
    assert data["root_witness"] is None
    assert data["comment"] == cli.BOUND_COMMENT
    assert "Cauchy" in data["comment"]
