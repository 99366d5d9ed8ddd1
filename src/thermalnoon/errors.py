"""Exception types shared across the package."""

from __future__ import annotations


class CapacityError(ValueError):
    """A requested computation exceeds a hard combinatorial size guard."""


class NumericalError(RuntimeError):
    """A result cannot be certified to the accuracy asked of it.

    For example, the permanent's a-posteriori error bound exceeds the oracle
    tolerance.  That bound was at most 1.6e-10 over 92 drawn two-source
    layouts up to M = 20; detector phases millions of radians out, whose
    products alpha * d round, can push it past 1e-9.
    """


class TruncationError(ValueError):
    """A Fock-space cutoff is too small for the requested state or operator power."""


class ZeroProbabilityError(ValueError):
    """A conditioning event has zero probability (e.g. projecting the vacuum)."""


class AccumulatorOverflowError(RuntimeError):
    """A Monte Carlo accumulator left the finite floating-point range."""
