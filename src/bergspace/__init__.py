"""Exact Bergman-space calculus on discs.

Sparse rational power series with coefficient-level inner products, prime
series and their partial norms, orthogonal monomial decompositions of the
geometric series, and quadrature-backed root-disc certificates for complex
polynomials.
"""

from .decomposition import (
    Block,
    DedupReport,
    PartitionReport,
    RoughTailBound,
    StepOneBound,
    StepTwoBound,
    geometric_partition,
    rough_dedup,
    rough_tail_geometric_bound,
    step_one_norm_bound,
    step_two_norm_bound,
)
from .errors import (
    BergspaceError,
    DegreeTooSmall,
    NearZeroDetected,
    OutOfRange,
    PartitionViolation,
    TailNotSmall,
    ZeroConstantTerm,
)
from .fta import (
    CertificateReport,
    Polynomial,
    QuadratureGrid,
    ReciprocalExpansion,
    annulus_l2_bound,
    bergman_projection_constant,
    inner_disc_l2,
    r0_bound,
    reciprocal_taylor,
    root_disc_certificate,
)
from .primes import (
    BertrandWitness,
    PrimePartition,
    bertrand_witness,
    euler_product_smooth,
    make_partition,
    prime_norm_partial,
    prime_series,
    rough_numbers,
    smooth_numbers,
    tail_sum,
    twin_prime_norm_partial,
)
from .rational import GaussianRational, PiRational, sum_fractions, sum_reciprocals
from .series import (
    Disc,
    SparseSeries,
    UNIT_DISC,
    add,
    compose_power,
    disjoint_support,
    inner_product,
    norm_sq,
    scale,
    truncate,
)

__version__ = "0.1.0"
