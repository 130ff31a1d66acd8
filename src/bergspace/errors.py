"""Exception types shared across the package.

Names follow the mathematical failure they signal, not a generic *Error
scheme: several of them (NearZeroDetected, TailNotSmall) are expected
outcomes that callers convert into reports or distinct exit codes.
OutOfRange is the one refusal class: every input outside an operation's
domain raises it, and ZeroConstantTerm and DegreeTooSmall are its kinds.
"""

from __future__ import annotations

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class BergspaceError(Exception):
    """Base class for every exception raised by this package."""


class OutOfRange(BergspaceError, ValueError):
    """Input outside the operation's domain (e.g. a Bertrand index n < 1, an overflowing R0);
    a ValueError too, so ``except ValueError`` still catches every refusal."""


class ZeroConstantTerm(OutOfRange):
    """The polynomial has P(0) = 0, so 1/P has no Taylor expansion at 0."""


class DegreeTooSmall(OutOfRange):
    """Operation requires a polynomial of degree at least 2."""


class NearZeroDetected(BergspaceError):
    """|P| dropped below the zero threshold at a quadrature node.

    Not a failure: the node is a direct root witness. ``point`` is the
    complex grid node, ``magnitude`` the observed |P(point)|.
    """

    def __init__(self, point: complex, magnitude: float):
        self.point = point
        self.magnitude = magnitude
        super().__init__(f"|P({point})| = {magnitude:.3e} below zero threshold")


class PartitionViolation(BergspaceError):
    """An exponent was covered zero or >= 2 times by a monomial decomposition.

    Indicates an implementation bug, surfaced loudly rather than patched over.
    """

    def __init__(self, exponent: int, labels: list[str]):
        self.exponent = exponent
        self.labels = labels
        super().__init__(f"exponent {exponent} covered by blocks {labels!r}")


class TailNotSmall(BergspaceError):
    """The prime tail sum is >= 1, so the geometric majorant does not apply."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"prime tail sum ~{float(value):.6g} >= 1")
