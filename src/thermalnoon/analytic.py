"""Closed forms for the two detector schemes with N00N-like fringes, derived.

M = m1 + m2 detectors: a moving group scanned through delta1 and a group fixed
at the m2 magic positions.  Detector j sees a1 + z_j*a2, z_j = exp(-1j*delta_j);
with e_p the coefficient of x**p in prod_j (1 + z_j*x), two thermal sources at
nbar = 1 give G = sum_p p!*(M-p)!*|e_p|**2.  A comb of m detectors at
phases w + 2*pi*i/m collapses its factors to 1 + s*w**m*x**m, s = comb_sign(m):
the fixed comb gives 1 + s*x**m2, each co-located moving detector is a comb of
one, 1 + z*x with z = exp(-1j*delta1), and the spread moving group (m1 == m2)
is one comb, 1 + s*z**m1*x**m1.  So e_p = n_p*z**p + s*n_(p-m2)*z**(p-m2) with
integer n_p, and G = c1 + parity_sign*c2*cos(m2*delta1) exactly; c2 = 0 (flat)
for fewer than m2 co-located moving detectors.

closed_form(layout) derives that ClosedForm.  Coefficients are exact integers
and visibilities exact rationals c2/c1.  Values are in combinatorial units
(nbar = 1); any other normalization only rescales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import CorrelationCurve, default_grid
from .geometry import (
    DetectorLayout,
    comb_sign,
    require_int,
    require_real,
    require_reals,
)


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
        cos = math.cos(self.frequency * require_real("delta1", delta1))
        return float(self.c1) + self.parity_sign * float(self.c2) * cos

    def curve(
        self, layout: DetectorLayout, grid: np.ndarray | None = None
    ) -> CorrelationCurve:
        """Sample the closed form on a delta1 grid, labelled with its layout."""
        g = default_grid() if grid is None else require_reals("grid", grid, 2)
        values = self.c1 + self.parity_sign * self.c2 * np.cos(self.frequency * g)
        return CorrelationCurve(
            grid=g, values=values, order=layout.order, layout=layout.describe()
        )


def _derive(moving_combs: tuple[int, ...], m2: int) -> ClosedForm:
    """Moving combs of the given sizes and a fixed comb of m2 >= 1; see the module doc.

    moving holds the integers n_p: each moving term carries z**p with its x**p.
    """
    moving = [1]
    for m in moving_combs:
        moving += [0] * m
        for p in range(len(moving) - 1, m - 1, -1):
            moving[p] += comb_sign(m) * moving[p - m]
    unshifted, shifted = moving + [0] * m2, [0] * m2 + moving
    order = len(shifted) - 1
    weights = (math.factorial(p) * math.factorial(order - p) for p in range(order + 1))
    terms = list(zip(weights, unshifted, shifted))
    c1 = sum(w * (a * a + b * b) for w, a, b in terms)
    cross = sum(w * a * b for w, a, b in terms)
    sign = comb_sign(m2) * (-1 if cross < 0 else 1)
    return ClosedForm(c1=c1, c2=2 * abs(cross), parity_sign=sign, frequency=m2)


def _equal_halves(order: int) -> ClosedForm:
    """spread(M/2), a moving and a fixed comb of M/2 each, for an even M >= 2."""
    m, odd = divmod(require_int("order", order, 2), 2)
    if odd:
        raise ValueError(f"order must be an even integer >= 2, got {order!r}")
    return _derive((m,), m)


def closed_form(layout: DetectorLayout) -> ClosedForm | None:
    """The closed form of spread(m) or colocated(m1, m2 >= 1); None for others."""
    m1, m2 = layout.m1, layout.m2
    if m1 >= 1 and layout == DetectorLayout.spread(m1):
        return _derive((m1,), m1)
    if m2 >= 1 and layout == DetectorLayout.colocated(m1, m2):
        return _derive((1,) * m1, m2)
    return None


def crossover_threshold(m2: int) -> int:
    """Smallest m1 whose co-located visibility beats the spread scheme of order 2*m2.

    Both visibilities are exact rationals, so the comparison is exact.
    """
    m2 = require_int("m2", m2, 1)
    reference = _derive((m2,), m2).visibility
    for m1 in range(1, 20 * m2 + 40):
        if _derive((1,) * m1, m2).visibility > reference:
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
    form = _equal_halves(order)
    return form.c1, form.c2


def setup1_g(order: int, delta1: float) -> float:
    """Correlation of the equal-halves spread scheme at scan phase delta1."""
    return _equal_halves(order).g(delta1)


def setup1_visibility(order: int) -> Fraction:
    """Exact fringe visibility ((M/2)!)**2 / (((M/2)!)**2 + M!) of the spread scheme."""
    return _equal_halves(order).visibility


def setup1_curve(order: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the equal-halves closed form on a delta1 grid."""
    form = _equal_halves(order)
    return form.curve(DetectorLayout.spread(form.frequency), grid)


def setup2_coeffs(m1: int, m2: int) -> ClosedForm:
    """Exact coefficients for m1 co-located moving detectors and m2 fixed ones."""
    return _derive((1,) * require_int("m1", m1, 0), require_int("m2", m2, 1))


def setup2_g(m1: int, m2: int, delta1: float) -> float:
    """Correlation of the co-located scheme at scan phase delta1."""
    return setup2_coeffs(m1, m2).g(delta1)


def setup2_visibility(m1: int, m2: int) -> Fraction:
    """Exact fringe visibility c2/c1 of the co-located scheme (0 for m1 < m2)."""
    return setup2_coeffs(m1, m2).visibility


def setup2_curve(m1: int, m2: int, grid: np.ndarray | None = None) -> CorrelationCurve:
    """Sample the co-located closed form on a delta1 grid."""
    return setup2_coeffs(m1, m2).curve(DetectorLayout.colocated(m1, m2), grid)
