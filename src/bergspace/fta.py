"""Root-disc certificates for complex polynomials, and the area integrals
of 1/P that the paper's proof of the fundamental theorem of algebra uses.

For P of degree n >= 2 with P(0) != 0, the certificate is exact:

* r0_bound gives a radius R0 beyond which |P(z)| >= |a_n z^n| / 2, so every
  root lies in |z| < R0;
* with roots z_1..z_n, P(z) = a_0 prod (1 - z/z_i), so
  a_k / a_0 = (-1)^k e_k(1/z_1, ..., 1/z_n) and
  |a_k / a_0| <= C(n, k) / min|z_i|^k; every k with a_k != 0 bounds
  min|z_i| <= R_k = (C(n, k) |a_0| / |a_k|)^(1/k), and the certificate
  reports R = min_k R_k, exact when rational and otherwise rounded up to a
  dyadic rational, both by integer roots.

The paper's own argument reads through the Bergman space of a disc: were P
root-free, the constant projection conj(1/a_0) of conj(1/P) would force the
square integral of 1/P over |z| < R to be at least pi R^2 / |a_0|^2, while
annulus_l2_bound bounds it past R0. Those pieces stay here as library
functions, with inner_disc_l2, a polar-grid quadrature of the inner integral;
it is the only code that imports numpy, and the certificate does not use it.
The quadrature evaluates the grid in blocks of whole rings, so its memory is
bounded by the block and not by the grid.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, Context, Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _EXPORTS
from ._record import Record, set_field
from .errors import DegreeTooSmall, NearZeroDetected, OutOfRange, ZeroConstantTerm
from .rational import GaussianRational, PiRational
from .series import SparseSeries

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["fta"]

MIN_RADIUS_FRACTION = 1e-6

# grid nodes per block of whole rings (at least one ring): at 512x512,
# 2^12 ran slower and 2^16 took more memory
_BLOCK_NODES = 2**14

# the largest grid, whose blocks and per-ring vectors take a few MB
MAX_GRID_SIDE = 2**16
MAX_GRID_NODES = 2**26


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
            raise OutOfRange("a polynomial needs at least one coefficient")
        if coeffs[-1].is_zero:
            raise OutOfRange("leading coefficient must be nonzero")
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
        raise OutOfRange(f"expansion degree must be >= 0, got {degree}")
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


def annulus_l2_bound(poly: Polynomial, r0: Fraction) -> PiRational:
    """4 pi / (r0^(2n-2) |a_n|^2 (n-1)), exactly: an upper bound for the square
    integral of 1/P over every annulus r0 < |z| < R, valid for any r0 at
    which |P| >= |a_n z^n| / 2 holds outward (r0_bound supplies one)."""
    if poly.degree < 2:
        raise DegreeTooSmall(f"need degree >= 2, got {poly.degree}")
    r0 = Fraction(r0)
    if r0 <= 0:
        raise OutOfRange(f"r0 must be positive, got {r0}")
    n = poly.degree
    return PiRational(4 / (r0 ** (2 * n - 2) * poly.leading.abs_sq() * (n - 1)))


class QuadratureGrid(Record):
    """Midpoint rule on a polar grid.

    Radial cells are geometrically graded from radius*MIN_RADIUS_FRACTION
    up to the full radius (plus one innermost cell touching 0), so that a
    single grid resolves integrand structure across many scales; angles are
    uniform. Sides run from 8 to MAX_GRID_SIDE, nodes up to MAX_GRID_NODES.
    """

    __slots__ = ("n_r", "n_theta")
    n_r: int
    n_theta: int

    def __init__(self, n_r: int = 512, n_theta: int = 512):
        if not (8 <= min(n_r, n_theta) and max(n_r, n_theta) <= MAX_GRID_SIDE
                and n_r * n_theta <= MAX_GRID_NODES):
            raise OutOfRange(f"grid {n_r}x{n_theta} needs sides of 8 to {MAX_GRID_SIDE} "
                             f"and at most {MAX_GRID_NODES} nodes")
        super().__init__(n_r, n_theta)

    def radial_cells(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(midpoints, widths) of the n_r radial cells covering [0, radius]."""
        import numpy as np

        exponents = (self.n_r - np.arange(1, self.n_r + 1)) / (self.n_r - 1)
        edges = np.concatenate(([0.0], radius * MIN_RADIUS_FRACTION**exponents))
        return (edges[:-1] + edges[1:]) / 2.0, np.diff(edges)


def zero_threshold(poly: Polynomial) -> float:
    """|P| below this at a grid node makes inner_disc_l2 raise NearZeroDetected."""
    largest = max(abs(complex(c)) for c in poly.coeffs)
    return 1e-9 * (1.0 + largest)


def inner_disc_l2(poly: Polynomial, r0: Fraction, grid: QuadratureGrid | None = None) -> float:
    """Quadrature estimate of the square integral of 1/P over |z| < r0.

    Deterministic for a fixed grid spec. Raises NearZeroDetected, carrying
    the node, if some node has |P| below the zero threshold, and OutOfRange
    if r0 or a coefficient does not convert to a float, a nonzero one
    rounding to 0, or if |P| at some node or the estimate is not a finite
    float.
    """
    import numpy as np

    grid = grid or QuadratureGrid()
    r0 = Fraction(r0)
    if r0 <= 0:
        raise OutOfRange(f"r0 must be positive, got {r0}")
    try:
        radius = float(r0)
        coeffs = [complex(c) for c in reversed(poly.coeffs)]
    except OverflowError:
        radius = 0.0
    # an overflow, r0 rounded to 0, or a nonzero coefficient rounded to 0
    if not radius or any(z == 0 and c for z, c in zip(coeffs, reversed(poly.coeffs))):
        raise OutOfRange("the quadrature runs in floats: it needs r0 in about 5e-324 to 1.8e308, "
                         "each coefficient's real and imaginary parts below 1.8e308 in size "
                         "and each nonzero coefficient at least about 5e-324 in size")
    mids, widths = grid.radial_cells(radius)
    theta = (np.arange(grid.n_theta) + 0.5) * (2.0 * math.pi / grid.n_theta)
    unit = np.exp(1j * theta)[None, :]
    rows = max(1, _BLOCK_NODES // grid.n_theta)
    ring_sums = np.empty(grid.n_r)
    overflow = f"the float step overflowed on |z| < R0 = {radius:.6g}"
    # the first smallest |P| in C order, as ndarray.argmin
    smallest, witness = math.inf, None
    with np.errstate(all="ignore"):
        for start in range(0, grid.n_r, rows):
            nodes = mids[start:start + rows, None] * unit
            values = np.zeros_like(nodes)
            for c in coeffs:  # Horner
                values *= nodes
                values += c
            magnitudes = np.abs(values)
            del values  # before the next block's, so one block's values are held at a time
            if not math.isfinite(magnitudes.max()):
                raise OutOfRange(overflow)
            k = magnitudes.argmin()
            if magnitudes.flat[k] < smallest:
                smallest, witness = float(magnitudes.flat[k]), complex(nodes.flat[k])
            ring_sums[start:start + rows] = (magnitudes**-2.0).sum(axis=1)
        value = float((2.0 * math.pi / grid.n_theta) * np.sum(ring_sums * mids * widths))
    if smallest < zero_threshold(poly):
        raise NearZeroDetected(witness, smallest)
    if not math.isfinite(value):
        raise OutOfRange(overflow)
    return value


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0 and k >= 1: isqrt while k is even, then
    Newton's method from above, started from the root of x's top half."""
    while k % 2 == 0:
        x, k = math.isqrt(x), k // 2
    if k == 1 or x < 2:
        return x
    t = x.bit_length() // (2 * k)
    y = (_iroot(x >> k * t, k) + 1) << t if t else 1 << -(-x.bit_length() // k)
    while (z := ((k - 1) * y + x // y ** (k - 1)) // k) < y:
        y = z
    return y


def _root_up(f: Fraction, k: int) -> Fraction:
    """f^(1/k) when it is rational, else the least m / 2^s above it, m of about 53 bits."""
    p, q = f.numerator, f.denominator
    u, v = _iroot(p, k), _iroot(q, k)
    if u**k == p and v**k == q:
        return Fraction(u, v)
    s = 53 - (p.bit_length() - q.bit_length()) // k
    num, den = p << max(k * s, 0), q << max(-k * s, 0)
    m = _iroot(num // den, k)
    if m**k * den < num:
        m += 1
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


class CertificateReport(Record):
    """Every root of P lies in |z| < r0, and some root in |z| <= radius.

    radius = (C(n, k) |a_0| / |a_k|)^(1/k), least over the k with a_k != 0
    (the module docstring has the proof), exact when rational and otherwise
    rounded up to a dyadic rational. certified_radius is the least decimal
    of 15 significant digits at or above radius, as the float that prints as
    it (below the normal range, the next float up that prints at or above
    radius), and inf past the float range. root_witness is always None: no
    float step runs, so none can trip over a near-zero of P.
    """

    __slots__ = ("r0", "radius", "k", "certified_radius", "root_witness")
    r0: Fraction
    radius: Fraction
    k: int
    certified_radius: float
    root_witness: None


def root_disc_certificate(poly: Polynomial) -> CertificateReport:
    """Certify a closed disc containing at least one root of P, exactly."""
    r0 = r0_bound(poly)
    n, a0_sq = poly.degree, poly.constant_term.abs_sq()
    radius, k = min((_root_up(math.comb(n, k) ** 2 * a0_sq / c.abs_sq(), 2 * k), k)
                    for k, c in enumerate(poly.coeffs) if k and not c.is_zero)
    up = Context(prec=15, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)
    certified = float(up.divide(Decimal(radius.numerator), Decimal(radius.denominator)))
    while math.isfinite(certified) and Fraction(repr(certified)) < radius:
        certified = math.nextafter(certified, math.inf)
    return CertificateReport(r0, radius, k, certified, None)
