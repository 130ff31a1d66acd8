"""Root-disc certificates for complex polynomials via area-integral bounds.

For P of degree n >= 2 with P(0) != 0, three quantities combine into a
certificate:

* an exact radius R0 beyond which |P(z)| >= |a_n z^n| / 2, so that the
  square integral of 1/P over any annulus past R0 is at most
  4 pi / (R0^(2n-2) |a_n|^2 (n-1));
* a polar-grid quadrature estimate of the square integral of 1/P over
  |z| < R0;
* the constant orthogonal projection of conj(1/P) onto the holomorphic
  square-integrable functions of any disc, which is conj(1/a_0) and forces
  the square integral over |z| < R to be at least pi R^2 / |a_0|^2.

If P had no root of modulus <= R*, with R* = |a_0| sqrt(M/pi) and M the sum
of the two integral estimates, the constant-projection lower bound at radii
just above R* would exceed M. The report therefore asserts a root in
|z| <= R*. The reading of the classical contradiction argument as a
bounded-disc certificate, with the quadrature standing in for the exact
inner integral, is this module's reformulation; it is quantitative, not
exact, and the two integral terms are the only floating-point values in
the pipeline.

Everything upstream of the quadrature is exact rational arithmetic, and
numpy is imported only inside the three functions that run the quadrature.
The quadrature evaluates the grid in blocks of whole rings, so its memory is
bounded by the block and not by the grid; ``fta-cert`` starts numpy with one
OpenBLAS thread unless the user set OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _EXPORTS
from ._record import Record, set_field
from .errors import DegreeTooSmall, NearZeroDetected, OutOfRange, ZeroConstantTerm
from .rational import GaussianRational
from .series import SparseSeries

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["fta"]

MIN_RADIUS_FRACTION = 1e-6

# grid nodes per block of whole rings (at least one ring): at 512x512,
# 2^12 ran slower and 2^16 took more memory
_BLOCK_NODES = 2**14

BOUND_COMMENT = (
    "certified by an area-integral argument; classical coefficient bounds "
    "(Cauchy, Fujiwara) are usually tighter"
)


class Polynomial(Record):
    """a_0 + a_1 z + ... + a_n z^n with Gaussian-rational coefficients.

    The leading coefficient must be nonzero (so the zero polynomial is not
    representable and degree == len(coeffs) - 1 always holds).
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[GaussianRational, ...]

    def __init__(self, coefficients):
        coeffs = tuple(GaussianRational.of(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if coeffs[-1].is_zero:
            raise ValueError("leading coefficient must be nonzero")
        set_field(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeffs[0]

    @property
    def leading(self) -> GaussianRational:
        return self.coeffs[-1]

    def __repr__(self) -> str:
        return "Polynomial([" + ", ".join(repr(c) for c in self.coeffs) + "])"

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        import numpy as np

        acc = np.zeros_like(z, dtype=np.complex128)
        for c in reversed(self.coeffs):
            acc *= z
            acc += complex(c)
        return acc


class ReciprocalExpansion(Record):
    """Taylor coefficients b_0..b_D of 1/P around 0, as a sparse series."""

    __slots__ = ("series", "source")
    series: SparseSeries
    source: Polynomial

    def convolution_holds(self) -> bool:
        """P * (sum b_j z^j) == 1 + O(z^(D+1)), checked exactly."""
        bound = self.series.degree_bound
        assert bound is not None
        a = self.source.coeffs
        for j in range(bound + 1):
            acc = GaussianRational()
            for k in range(min(j, self.source.degree) + 1):
                acc = acc + a[k] * self.series.coefficient(j - k)
            if acc != GaussianRational.of(1 if j == 0 else 0):
                return False
        return True


def reciprocal_taylor(poly: Polynomial, degree: int) -> ReciprocalExpansion:
    """Expand 1/P to the given degree: b_0 = 1/a_0 and, for j >= 1,
    b_j = -(1/a_0) * sum_{k=1..min(j,n)} a_k b_{j-k}."""
    if poly.constant_term.is_zero:
        raise ZeroConstantTerm("P(0) = 0: 1/P has no Taylor expansion at 0")
    if degree < 0:
        raise ValueError(f"expansion degree must be >= 0, got {degree}")
    a = poly.coeffs
    inv_a0 = GaussianRational.of(1) / a[0]
    b = [inv_a0]
    for j in range(1, degree + 1):
        acc = GaussianRational()
        for k in range(1, min(j, poly.degree) + 1):
            acc = acc + a[k] * b[j - k]
        b.append(-inv_a0 * acc)
    series = SparseSeries({j: c for j, c in enumerate(b)}, degree_bound=degree)
    return ReciprocalExpansion(series, poly)


def bergman_projection_constant(poly: Polynomial) -> GaussianRational:
    """The projection of conj(1/P) onto the holomorphic subspace of any disc.

    Writing 1/P = sum b_j z^j, the conjugate is conj(b_0) plus conjugated
    monomials conj(b_j z^j), each orthogonal to every holomorphic function;
    the projection is the constant conj(1/a_0), independent of the radius.
    """
    if poly.constant_term.is_zero:
        raise ZeroConstantTerm("P(0) = 0: 1/P has no Taylor expansion at 0")
    return (GaussianRational.of(1) / poly.constant_term).conjugate()


def r0_bound(poly: Polynomial) -> Fraction:
    """An exact radius past which the leading term dominates.

    R0 = max(1, 2n * max_{k<n} (|re| + |im|)(a_k / a_n)) guarantees
    sum_{k<n} |a_k / a_n| / R0^(n-k) <= 1/2 and hence
    |P(z)| >= |a_n| |z|^n / 2 for |z| >= R0. The one-norm keeps the radius
    rational; tightness is not a goal.
    """
    if poly.degree < 2:
        raise DegreeTooSmall(f"need degree >= 2, got {poly.degree}")
    if poly.constant_term.is_zero:
        raise ZeroConstantTerm("P(0) = 0 is outside the certificate's domain")
    n = poly.degree
    worst = max((c / poly.leading).one_norm() for c in poly.coeffs[:-1])
    return max(Fraction(1), 2 * n * worst)


def annulus_l2_bound(poly: Polynomial, r0: Fraction) -> float:
    """4 pi / (r0^(2n-2) |a_n|^2 (n-1)): an upper bound for the square
    integral of 1/P over every annulus r0 < |z| < R, valid for any r0 at
    which |P| >= |a_n z^n| / 2 holds outward (r0_bound supplies one)."""
    if poly.degree < 2:
        raise DegreeTooSmall(f"need degree >= 2, got {poly.degree}")
    r0 = Fraction(r0)
    if r0 <= 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    n = poly.degree
    denom = r0 ** (2 * n - 2) * poly.leading.abs_sq() * (n - 1)
    return 4.0 * math.pi * float(1 / denom)


class QuadratureGrid(Record):
    """Midpoint rule on a polar grid.

    Radial cells are geometrically graded from radius*MIN_RADIUS_FRACTION
    up to the full radius (plus one innermost cell touching 0), so that a
    single grid resolves integrand structure across many scales; angles are
    uniform. Both dimensions must be at least 8.
    """

    __slots__ = ("n_r", "n_theta")
    n_r: int
    n_theta: int

    def __init__(self, n_r: int = 512, n_theta: int = 512):
        if n_r < 8 or n_theta < 8:
            raise ValueError(f"grid dimensions must be >= 8, got {n_r}x{n_theta}")
        super().__init__(n_r, n_theta)

    def spec_string(self) -> str:
        return f"{self.n_r}x{self.n_theta}"

    def radial_cells(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(midpoints, widths) of the n_r radial cells covering [0, radius]."""
        import numpy as np

        exponents = (self.n_r - np.arange(1, self.n_r + 1)) / (self.n_r - 1)
        edges = np.concatenate(([0.0], radius * MIN_RADIUS_FRACTION**exponents))
        return (edges[:-1] + edges[1:]) / 2.0, np.diff(edges)


def zero_threshold(poly: Polynomial) -> float:
    """|P| below this at a grid node is reported as a root witness."""
    largest = max(math.sqrt(float(c.abs_sq())) for c in poly.coeffs)
    return 1e-9 * (1.0 + largest)


def inner_disc_l2(poly: Polynomial, r0: Fraction, grid: QuadratureGrid | None = None) -> float:
    """Quadrature estimate of the square integral of 1/P over |z| < r0.

    Deterministic for a fixed grid spec. Raises NearZeroDetected if some
    node has |P| below the zero threshold; callers treat that node as a
    found root, not as a failure. Raises OutOfRange if the estimate is not
    a finite float.
    """
    import numpy as np

    grid = grid or QuadratureGrid()
    radius = float(Fraction(r0))
    if radius <= 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    mids, widths = grid.radial_cells(radius)
    theta = (np.arange(grid.n_theta) + 0.5) * (2.0 * math.pi / grid.n_theta)
    unit = np.exp(1j * theta)[None, :]
    rows = max(1, _BLOCK_NODES // grid.n_theta)
    ring_sums = np.empty(grid.n_r)
    # the first smallest |P| in C order, or the first NaN, as ndarray.argmin
    smallest, witness = math.inf, None
    for start in range(0, grid.n_r, rows):
        nodes = mids[start:start + rows, None] * unit
        magnitudes = np.abs(poly.evaluate_array(nodes))
        k = magnitudes.argmin()
        if not (math.isnan(smallest) or magnitudes.flat[k] >= smallest):
            smallest, witness = float(magnitudes.flat[k]), complex(nodes.flat[k])
        ring_sums[start:start + rows] = (magnitudes**-2.0).sum(axis=1)
    if smallest < zero_threshold(poly):
        raise NearZeroDetected(witness, smallest)
    value = float((2.0 * math.pi / grid.n_theta) * np.sum(ring_sums * mids * widths))
    if not math.isfinite(value):
        raise OutOfRange(f"the float step overflowed on |z| < R0 = {radius:.6g}: got {value}")
    return value


class CertificateReport(Record):
    """A disc |z| <= certified_radius that must contain a root of P.

    m_constant = inner_integral + annulus_bound bounds the square integral
    of 1/P over every disc; certified_radius = |a_0| sqrt(m_constant / pi)
    is where the constant-projection lower bound overtakes it. When the
    quadrature tripped over a near-zero of P instead, root_witness holds
    that node and certified_radius is its modulus.
    """

    __slots__ = ("r0", "annulus_bound", "inner_integral", "m_constant", "certified_radius",
                 "grid_spec", "root_witness")
    r0: Fraction
    annulus_bound: float
    inner_integral: float | None
    m_constant: float | None
    certified_radius: float
    grid_spec: QuadratureGrid
    root_witness: complex | None

    def to_json(self) -> dict:
        return {
            "r0": [self.r0.numerator, self.r0.denominator],
            "annulus_bound": self.annulus_bound,
            "inner_integral": self.inner_integral,
            "m_constant": self.m_constant,
            "certified_radius": self.certified_radius,
            "grid": self.grid_spec.spec_string(),
            "root_witness": None
            if self.root_witness is None
            else [self.root_witness.real, self.root_witness.imag],
            "comment": BOUND_COMMENT,
        }


def root_disc_certificate(poly: Polynomial, grid: QuadratureGrid | None = None) -> CertificateReport:
    """Certify a closed disc containing at least one root of P."""
    grid = grid or QuadratureGrid()
    r0 = r0_bound(poly)
    annulus = annulus_l2_bound(poly, r0)
    try:
        inner = inner_disc_l2(poly, r0, grid)
    except NearZeroDetected as witness:
        return CertificateReport(r0, annulus, None, None, abs(witness.point), grid, witness.point)
    m_constant = inner + annulus
    a0_modulus = math.sqrt(float(poly.constant_term.abs_sq()))
    certified = a0_modulus * math.sqrt(m_constant / math.pi)
    return CertificateReport(r0, annulus, inner, m_constant, certified, grid, None)
