"""Exact Bergman-space calculus on discs.

Sparse rational power series with coefficient-level inner products, prime
series and their partial norms, orthogonal monomial decompositions of the
geometric series, and exact root-disc certificates for complex polynomials.

``_EXPORTS`` is the one list of public names, and each submodule's
``__all__`` is its entry there. Every name is exported from the submodule
that defines it, and the submodule is imported on first access (PEP 562),
so ``import bergspace`` itself loads none of them. Python runs this file
before any submodule, and it imports none, so the table is always there
when a submodule reads it.
"""

import importlib

_EXPORTS = {
    "decomposition": (
        "Block",
        "DedupReport",
        "PartitionReport",
        "RoughTailBound",
        "StepOneBound",
        "StepTwoBound",
        "geometric_partition",
        "rough_dedup",
        "rough_tail_geometric_bound",
        "step_one_norm_bound",
        "step_two_norm_bound",
    ),
    "errors": (
        "BergspaceError",
        "DegreeTooSmall",
        "NearZeroDetected",
        "OutOfRange",
        "PartitionViolation",
        "TailNotSmall",
        "ZeroConstantTerm",
    ),
    "fta": (
        "CertificateReport",
        "Polynomial",
        "QuadratureGrid",
        "ReciprocalExpansion",
        "annulus_l2_bound",
        "bergman_projection_constant",
        "inner_disc_l2",
        "r0_bound",
        "reciprocal_taylor",
        "root_disc_certificate",
    ),
    "primes": (
        "BertrandWitness",
        "PrimePartition",
        "bertrand_witness",
        "euler_product_smooth",
        "make_partition",
        "prime_norm_partial",
        "prime_series",
        "rough_numbers",
        "smooth_numbers",
        "tail_sum",
        "twin_prime_norm_partial",
    ),
    "rational": ("GaussianRational", "PiRational", "sum_fractions", "sum_reciprocals"),
    "series": (
        "Disc",
        "SparseSeries",
        "UNIT_DISC",
        "add",
        "compose_power",
        "inner_product",
        "norm_sq",
        "scale",
        "truncate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule by its own name
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
