"""Exception types shared across the package."""

from __future__ import annotations


class CapacityError(ValueError):
    """A requested computation exceeds a hard combinatorial size guard."""


class NumericalError(RuntimeError):
    """A result cannot be certified to the accuracy asked of it.

    Raised when the path sum's or the permanent's a-posteriori error bound
    exceeds ORACLE_TOLERANCE, when a sum leaves the double range, or when the
    permanent's bound passes its limit before the sum is done.
    """


class TruncationError(ValueError):
    """A Fock-space cutoff is too small for the requested state or operator power."""


class ZeroProbabilityError(ValueError):
    """A conditioning event has zero probability (e.g. projecting the vacuum)."""


class AccumulatorOverflowError(RuntimeError):
    """A Monte Carlo accumulator left the finite floating-point range."""
