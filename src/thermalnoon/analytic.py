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

Both are one ClosedForm; closed_form(layout) picks it for a layout.  All
coefficients are exact integers; visibilities are exact rationals c2/c1.
Values assume two sources with nbar = 1 (combinatorial units); curves in any
other normalization only rescale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import CorrelationCurve, default_grid
from .geometry import DetectorLayout, comb_sign, require_int


@dataclass(frozen=True)
class ClosedForm:
    """Exact coefficients of G = c1 + parity_sign*c2*cos(frequency*delta1)."""

    c1: int
    c2: int
    parity_sign: int
    frequency: int

    def __post_init__(self) -> None:
        if not (self.c1 > self.c2 >= 0):
            raise ValueError(f"need c1 > c2 >= 0, got c1={self.c1}, c2={self.c2}")
        if self.parity_sign not in (-1, 1):
            raise ValueError("parity_sign must be +1 or -1")

    @property
    def visibility(self) -> Fraction:
        return Fraction(self.c2, self.c1)

    def g(self, delta1: float) -> float:
        """Correlation at scan phase delta1."""
        cos = math.cos(self.frequency * float(delta1))
        return float(self.c1) + self.parity_sign * float(self.c2) * cos

    def curve(
        self, layout: DetectorLayout, grid: np.ndarray | None = None
    ) -> CorrelationCurve:
        """Sample the closed form on a delta1 grid, labelled with its layout."""
        g = default_grid() if grid is None else np.asarray(grid, dtype=float)
        values = self.c1 + self.parity_sign * self.c2 * np.cos(self.frequency * g)
        return CorrelationCurve(
            grid=g, values=values, order=layout.order, layout=layout.describe()
        )


def _half_order(order: int) -> int:
    """M/2 for an even total detector count M >= 2."""
    if require_int("order", order, 2) % 2:
        raise ValueError(f"order must be an even integer >= 2, got {order!r}")
    return int(order) // 2


# Cached: the forms are immutable and keyed by detector counts, and building
# one costs more than evaluating G from it, which callers do in loops.
@functools.cache
def _spread(m: int) -> ClosedForm:
    c2 = 2 * math.factorial(m) ** 2
    c1 = c2 * (math.comb(2 * m, m) + 1)
    return ClosedForm(c1=c1, c2=c2, parity_sign=1, frequency=m)


@functools.cache
def _colocated(m1: int, m2: int) -> ClosedForm:
    """m1 >= 0 co-located moving detectors and m2 >= 1 fixed ones.

    The interference term needs at least m2 photons from each source, which is
    impossible for m1 < m2; c2 is zero there and the curve is constant.
    """
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
    return ClosedForm(c1=c1, c2=c2, parity_sign=comb_sign(m2), frequency=m2)


# Cached by the frozen layout: recognising it builds two layouts to compare,
# which costs over ten times the G(delta1) that loop callers then evaluate.
# Bounded, since custom layouts are keys too.
@functools.lru_cache(maxsize=256)
def closed_form(layout: DetectorLayout) -> ClosedForm | None:
    """The closed form of spread(m) or colocated(m1, m2 >= 1); None for others."""
    m1, m2 = layout.m1, layout.m2
    if m1 >= 1 and layout == DetectorLayout.spread(m1):
        return _spread(m1)
    if m2 >= 1 and layout == DetectorLayout.colocated(m1, m2):
        return _colocated(m1, m2)
    return None


def crossover_threshold(m2: int) -> int:
    """Smallest m1 whose co-located visibility beats the spread scheme of order 2*m2.

    Both visibilities are exact rationals, so the comparison is exact.
    """
    m2 = require_int("m2", m2, 1)
    reference = _spread(m2).visibility
    for m1 in range(1, 20 * m2 + 40):
        if _colocated(m1, m2).visibility > reference:
            return m1
    raise RuntimeError(f"no crossover found for m2 = {m2}")  # pragma: no cover


# The eight setup* shorthands below name the same forms by detector counts:
# setup1_* is closed_form(DetectorLayout.spread(order // 2)) and setup2_* is
# closed_form(DetectorLayout.colocated(m1, m2)).  They are not exported by the
# package and stay only because the benchmark names them: bench/workloads.py
# calls setup1_g and setup2_g (exact_reference, _permanent_op, _pathsum_op),
# and bench/tracing.py looks up all eight by name (ANALYTIC_FUNCTIONS).  They
# go once the benchmark is keyed on closed_form (see ROADMAP.md).
def setup1_coeffs(order: int) -> tuple[int, int]:
    """Exact (c1, c2) for the equal-halves spread scheme of the given order."""
    form = _spread(_half_order(order))
    return form.c1, form.c2


def setup1_g(order: int, delta1: float) -> float:
    """Correlation of the equal-halves spread scheme at scan phase delta1."""
    return _spread(_half_order(order)).g(delta1)


def setup1_visibility(order: int) -> Fraction:
    """Exact fringe visibility ((M/2)!)**2 / (((M/2)!)**2 + M!) of the spread scheme."""
    return _spread(_half_order(order)).visibility


def setup1_curve(order: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the equal-halves closed form on a delta1 grid."""
    m = _half_order(order)
    return _spread(m).curve(DetectorLayout.spread(m), grid)


def setup2_coeffs(m1: int, m2: int) -> ClosedForm:
    """Exact coefficients for m1 co-located moving detectors and m2 fixed ones."""
    return _colocated(require_int("m1", m1, 0), require_int("m2", m2, 1))


def setup2_g(m1: int, m2: int, delta1: float) -> float:
    """Correlation of the co-located scheme at scan phase delta1."""
    return setup2_coeffs(m1, m2).g(delta1)


def setup2_visibility(m1: int, m2: int) -> Fraction:
    """Exact fringe visibility c2/c1 of the co-located scheme (0 for m1 < m2)."""
    return setup2_coeffs(m1, m2).visibility


def setup2_curve(m1: int, m2: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the co-located closed form on a delta1 grid."""
    return setup2_coeffs(m1, m2).curve(DetectorLayout.colocated(m1, m2), grid)
