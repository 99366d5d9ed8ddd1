"""Closed forms for the two detector schemes with N00N-like fringes.

Both schemes split M = m1 + m2 detectors into a moving group scanned through
delta1 and a group fixed at the m2 magic positions:

  * equal-halves spread scheme (m1 == m2 == M/2, moving group at the moving
    magic positions): G = c1 + c2*cos((M/2)*delta1) with
    c1 = 2*((M/2)!)**2*(C(M, M/2) + 1) and c2 = 2*((M/2)!)**2;
  * co-located scheme (m1 detectors stacked at delta1):
    G = c1 + (-1)**(m2-1)*c2*cos(m2*delta1) with
    c1 = 2*m1!*m2!*sum_k C(m1, k)*C(m2+k, k) and
    c2 = 2**(m1-m2+1)*(m1!)**2/(m1-m2)! for m1 >= m2, else 0.

All coefficients are exact integers; visibilities are exact rationals c2/c1.
Values assume two sources with nbar = 1 (combinatorial units); curves in any
other normalization only rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import CorrelationCurve, default_grid
from .geometry import DetectorLayout


def _require_even_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or order < 2 or order % 2:
        raise ValueError(f"order must be an even integer >= 2, got {order!r}")
    return int(order)


def setup1_coeffs(order: int) -> tuple[int, int]:
    """Exact (c1, c2) for the equal-halves spread scheme of the given order."""
    m = _require_even_order(order) // 2
    half_fact_sq = math.factorial(m) ** 2
    c2 = 2 * half_fact_sq
    c1 = c2 * (math.comb(2 * m, m) + 1)
    return c1, c2


def setup1_g(order: int, delta1: float) -> float:
    """Correlation of the equal-halves spread scheme at scan phase delta1."""
    c1, c2 = setup1_coeffs(order)
    m = order // 2
    return float(c1) + float(c2) * math.cos(m * float(delta1))


def setup1_visibility(order: int) -> Fraction:
    """Exact fringe visibility ((M/2)!)**2 / (((M/2)!)**2 + M!) of the spread scheme."""
    order = _require_even_order(order)
    half_fact_sq = math.factorial(order // 2) ** 2
    return Fraction(half_fact_sq, half_fact_sq + math.factorial(order))


@dataclass(frozen=True)
class Setup2Coefficients:
    """Exact coefficients of G = c1 + parity_sign*c2*cos(m2*delta1)."""

    m1: int
    m2: int
    c1: int
    c2: int
    parity_sign: int

    def __post_init__(self) -> None:
        if not (self.c1 > self.c2 >= 0):
            raise ValueError(f"need c1 > c2 >= 0, got c1={self.c1}, c2={self.c2}")
        if self.parity_sign not in (-1, 1):
            raise ValueError("parity_sign must be +1 or -1")

    @property
    def visibility(self) -> Fraction:
        return Fraction(self.c2, self.c1)

    @property
    def frequency(self) -> int:
        """Modulation frequency in cycles per 2*pi of delta1."""
        return self.m2


def setup2_coeffs(m1: int, m2: int) -> Setup2Coefficients:
    """Exact coefficients for m1 co-located moving detectors and m2 fixed ones.

    The interference term needs at least m2 photons from each source, which is
    impossible for m1 < m2; c2 is zero there and the curve is constant.
    """
    if not isinstance(m1, (int, np.integer)) or m1 < 0:
        raise ValueError(f"m1 must be a nonnegative integer, got {m1!r}")
    if not isinstance(m2, (int, np.integer)) or m2 < 1:
        raise ValueError(f"m2 must be a positive integer, got {m2!r}")
    m1, m2 = int(m1), int(m2)
    c1 = (
        2
        * math.factorial(m1)
        * math.factorial(m2)
        * sum(math.comb(m1, k) * math.comb(m2 + k, k) for k in range(m1 + 1))
    )
    if m1 >= m2:
        c2 = 2 ** (m1 - m2 + 1) * math.factorial(m1) ** 2 // math.factorial(m1 - m2)
    else:
        c2 = 0
    return Setup2Coefficients(
        m1=m1, m2=m2, c1=c1, c2=c2, parity_sign=-1 if m2 % 2 == 0 else 1
    )


def setup2_g(m1: int, m2: int, delta1: float) -> float:
    """Correlation of the co-located scheme at scan phase delta1."""
    c = setup2_coeffs(m1, m2)
    return float(c.c1) + c.parity_sign * float(c.c2) * math.cos(m2 * float(delta1))


def setup2_visibility(m1: int, m2: int) -> Fraction:
    """Exact fringe visibility c2/c1 of the co-located scheme (0 for m1 < m2)."""
    return setup2_coeffs(m1, m2).visibility


def crossover_threshold(m2: int) -> int:
    """Smallest m1 whose co-located visibility beats the spread scheme of order 2*m2.

    Both visibilities are exact rationals, so the comparison is exact.
    """
    if not isinstance(m2, (int, np.integer)) or m2 < 1:
        raise ValueError(f"m2 must be a positive integer, got {m2!r}")
    reference = setup1_visibility(2 * int(m2))
    for m1 in range(1, 20 * int(m2) + 40):
        if setup2_visibility(m1, m2) > reference:
            return m1
    raise RuntimeError(f"no crossover found for m2 = {m2}")  # pragma: no cover


def setup1_curve(order: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the equal-halves closed form on a delta1 grid."""
    g = default_grid() if grid is None else np.asarray(grid, dtype=float)
    c1, c2 = setup1_coeffs(order)
    values = c1 + c2 * np.cos((order // 2) * g)
    layout = DetectorLayout.spread(order // 2).describe()
    return CorrelationCurve(grid=g, values=values, order=order, layout=layout)


def setup2_curve(m1: int, m2: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the co-located closed form on a delta1 grid."""
    g = default_grid() if grid is None else np.asarray(grid, dtype=float)
    c = setup2_coeffs(m1, m2)
    values = c.c1 + c.parity_sign * c.c2 * np.cos(m2 * g)
    layout = DetectorLayout.colocated(m1, m2).describe()
    return CorrelationCurve(grid=g, values=values, order=m1 + m2, layout=layout)
