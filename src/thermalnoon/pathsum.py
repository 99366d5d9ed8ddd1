"""Two independent evaluators for Mth-order intensity correlations.

correlation_pathsum sums quantum paths explicitly: it enumerates the ways the
M detected photons can be drawn from the K sources (partitions), and for each
partition coherently sums one phase term per distinct assignment of sources to
detectors.  A partition {n_l} carries the statistical weight
prod_l n_l! * nbar_l**n_l, and the coherent inner sum runs over the distinct
multiset permutations only (the n_l! multiplicity of identical assignments is
already inside the weight).

correlation_permanent evaluates the same quantity as the permanent of the M x M
mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*alpha_l*(d_j - d_k)),
which is what the Gaussian moment theorem gives for independent thermal
sources.  The two routes share no code and serve as oracles for each other.

The permanent is Ryser's sum over the 2**M column subsets, evaluated in
blocks of 2**8 subsets at a time in np.clongdouble (extended precision on
x86).  Its terms cancel heavily (sum |term| / |per| is about 5e7 at M = 16
on two-source layouts), so every evaluation also returns an a-posteriori
bound on its own error, and correlation_permanent raises NumericalError
when that bound exceeds ORACLE_TOLERANCE.  PERMANENT_MAX_ORDER caps the
cost, not the accuracy.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, NumericalError
from .geometry import SourceArray

PATHSUM_MAX_ORDER = 12
# A cost cap: the Ryser sum has 2**M terms (about 0.6 s at M = 20).  Accuracy
# is checked per call by the a-posteriori bound, not by this cap.
PERMANENT_MAX_ORDER = 20
# Relative accuracy the cross-route oracle checks demand.
ORACLE_TOLERANCE = 1e-9
# Precision of the permanent route; np.finfo of it sets the error bound, so
# the bound stays honest where long double is plain double.
_WORKING_DTYPE = np.clongdouble
# Columns whose subsets are tabulated at once: 2**8 rows per step.
_LOW_COLUMNS = 8


def enumerate_partitions(count: int, order: int) -> list[tuple[int, ...]]:
    """All ways to split `order` photons over `count` sources.

    Returns tuples (n_0, ..., n_{count-1}) with sum equal to `order`, in
    lexicographically descending order of the first component.  There are
    C(order + count - 1, count - 1) of them.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")

    out: list[tuple[int, ...]] = []

    def fill(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for n in range(remaining, -1, -1):
            fill(prefix + (n,), remaining - n, slots - 1)

    fill((), order, count)
    return out


def _multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield the distinct permutations of a multiset in lexicographic order."""
    seq = sorted(items)
    n = len(seq)
    while True:
        yield tuple(seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def multiset_phase_sum(
    prefactors: Iterable[int], deltas: Sequence[float]
) -> complex:
    """Coherent sum over distinct assignments of source prefactors to detectors.

    For each distinct permutation (l_1, ..., l_M) of the prefactor multiset the
    sum gains one term exp(1j*(alpha_{l_1}*d_1 + ... + alpha_{l_M}*d_M)).  The
    modulus of the result is bounded by the number of distinct permutations.
    """
    alphas = [int(a) for a in prefactors]
    phases = [float(d) for d in deltas]
    if len(alphas) != len(phases):
        raise ValueError(
            f"prefactor multiset has {len(alphas)} entries but {len(phases)} deltas"
        )
    # One complex factor per (detector, prefactor value); permutation terms are
    # then pure products, no transcendentals in the inner loop.
    values = sorted(set(alphas))
    w = {a: [cmath.exp(1j * a * d) for d in phases] for a in values}
    total = 0j
    for arrangement in _multiset_permutations(alphas):
        term = 1 + 0j
        for j, a in enumerate(arrangement):
            term *= w[a][j]
        total += term
    return total


def correlation_pathsum(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation by explicit quantum-path summation.

    G = sum over partitions {n_l} of prod_l (n_l! * nbar_l**n_l) times the
    squared modulus of the distinct-assignment phase sum.  Nonnegative real.
    Guarded at M = 12; use correlation_permanent for larger orders.
    """
    phases = [float(d) for d in deltas]
    order = len(phases)
    if order < 1:
        raise ValueError("need at least one detector phase")
    if order > PATHSUM_MAX_ORDER:
        raise CapacityError(
            f"path summation is limited to M <= {PATHSUM_MAX_ORDER} "
            f"(M!/prod n_l! arrangements); got M = {order}. "
            "Use correlation_permanent for larger orders."
        )
    alphas = sources.prefactors
    total = 0.0
    for counts in enumerate_partitions(sources.count, order):
        weight = 1.0
        multiset: list[int] = []
        for alpha, n in zip(alphas, counts):
            weight *= math.factorial(n) * sources.nbar[alpha] ** n
            multiset.extend([alpha] * n)
        amplitude = multiset_phase_sum(multiset, phases)
        total += weight * abs(amplitude) ** 2
    return total


def _subset_sums(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums over every subset of the given columns, with the subset parities.

    Row s of the table holds sum_{j in s} columns[:, j], where bit j of s
    marks column j; the second array holds (-1)**|s|.
    """
    rows, count = columns.shape
    table = np.zeros((1 << count, rows), dtype=columns.dtype)
    sign = np.ones(1 << count, dtype=columns.real.dtype)
    for j, column in enumerate(columns.T):
        size = 1 << j
        np.copyto(table[size : 2 * size], column)
        table[size : 2 * size] += table[:size]
        np.negative(sign[:size], out=sign[size : 2 * size])
    return table, sign


def _pairwise_sum(values: np.ndarray) -> np.generic:
    """Sum of a power-of-two number of values by halving.

    Each value passes through exactly log2(len(values)) additions, which is
    what the error bound in `_ryser` counts.
    """
    while values.size > 1:
        half = values.size // 2
        values = values[:half] + values[half:]
    return values[0]


def _on_exact_grid(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round each row onto a power-of-two grid on which its subset sums are exact.

    Row i goes onto multiples of q_i = 2**(e_i - p), where p is the number of
    significand bits and 2**e_i > (1 + 2**-8) * sum_j max(|Re a_ij|, |Im a_ij|).
    Every partial row sum then has components below 2**e_i = 2**p * q_i
    (the 2**-8 margin covers the rounding up of n entries by q_i / 2), so it
    is an integer multiple of q_i that the dtype holds exactly.  Returns the
    rounded matrix and, per row, sum_j |a_ij - rounded a_ij|.
    """
    bits = np.finfo(a.dtype).nmant + 1
    reach = np.maximum(np.abs(a.real), np.abs(a.imag)).sum(axis=1)
    _, exponent = np.frexp(reach * (1 + 2.0**-8))
    step = np.ldexp(np.ones_like(reach), exponent - bits)[:, None]
    grid = np.empty_like(a)
    grid.real = np.rint(a.real / step) * step
    grid.imag = np.rint(a.imag / step) * step
    return grid, np.abs(a - grid).sum(axis=1)


def _ryser(matrix: np.ndarray, entry_error: float = 0.0) -> tuple[np.generic, float]:
    """Ryser permanent in the matrix's dtype, with an absolute error bound.

    per(A) = (-1)**n sum_S (-1)**|S| prod_i r_i(S), r_i(S) = sum_{j in S} a_ij.
    The columns split into the low _LOW_COLUMNS and the rest.  The row sums
    of all 2**b low subsets form one (2**b, n) table; the high subsets are
    walked one by one, their row sums drawn from two half tables, and each
    step takes the products of all 2**b rows of `low + high` at once.  No
    row sum is carried from step to step, as a Gray-code walk would carry it:
    that adds one rounding per step, which no per-term bound can follow.

    Error bound, with u = eps / 2 the unit roundoff of the dtype:

    * The matrix is first rounded onto the grid of `_on_exact_grid`, so every
      row sum is exact.  That rounding moves row i by d_i = sum_j |e_ij| in
      all, and `entry_error` (a bound on the error of each entry the caller
      passes) adds n * entry_error.  Expanding the permanent over
      permutations, prod_i sum_j (|a_ij| + |e_ij|) bounds the perturbed
      sum, so the permanent moves by at most
      prod_i (rho_i + d_i) - prod_i rho_i <= moved = prod_i (rho_i + d_i) *
      sum_i d_i / (rho_i + d_i), with rho_i = sum_j |a_ij|.
    * Each term is a product of n exact row sums in n - 1 complex
      multiplications, each with relative error at most sqrt(2) * 2u, so
      the term is off by at most 2 sqrt(2) (n - 1) u |t|.
    * The 2**n signed terms are summed pairwise (`_pairwise_sum` in each
      step, then over the steps), n additions deep, which adds at most
      n u sum |t|.

    Together, to first order in eps:
    |error| <= (sqrt(2) (n - 1) + n / 2) eps sum|t| + moved.  The factor
    c = 2n used below exceeds sqrt(2) (n - 1) + n / 2 by at least sqrt(2),
    which covers the second-order terms.  The bound's own arithmetic rounds
    at a relative O(n eps).
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n == 0:
        return a.dtype.type(1), 0.0
    a, shift = _on_exact_grid(a)
    eps = np.finfo(a.dtype).eps
    b = min(n, _LOW_COLUMNS)
    half = (n - b) // 2
    low, low_sign = _subset_sums(a[:, :b])
    mid, mid_sign = _subset_sums(a[:, b : b + half])
    top, top_sign = _subset_sums(a[:, b + half :])
    blocks = np.empty(len(mid) * len(top), dtype=a.dtype)
    magnitude = 0.0
    rows = np.empty_like(low)
    k = 0
    for top_row, top_parity in zip(top, top_sign):
        for mid_row, mid_parity in zip(mid, mid_sign):
            # broadcast by copy, then add like-shaped arrays: a broadcasting
            # add buffers a second block-sized array (as in _subset_sums)
            np.copyto(rows, mid_row + top_row)
            rows += low
            terms = np.multiply.reduce(rows, axis=1)
            magnitude += np.abs(terms).sum()
            blocks[k] = _pairwise_sum(terms * low_sign) * (mid_parity * top_parity)
            k += 1
    total = _pairwise_sum(blocks)
    if n % 2:
        total = -total
    rho = np.abs(a).sum(axis=1)
    shift = shift + n * entry_error
    moved = np.prod(rho + shift) * np.sum(shift / (rho + shift))
    return total, float(2 * n * eps * magnitude + moved)


def _permanent_ryser(matrix: np.ndarray) -> complex:
    """Permanent by Ryser's formula, evaluated in the working precision."""
    value, _ = _ryser(np.asarray(matrix, dtype=_WORKING_DTYPE))
    return complex(value)


def coherence_matrix(sources: SourceArray, deltas: Sequence[float]) -> np.ndarray:
    """Mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*alpha_l*(d_j - d_k)).

    Built in the permanent's working precision (`_WORKING_DTYPE`).
    """
    j = np.zeros((len(deltas), len(deltas)), dtype=_WORKING_DTYPE)
    phases = np.asarray([float(d) for d in deltas], dtype=float).astype(j.real.dtype)
    for alpha, nbar in zip(sources.prefactors, sources.nbar):
        e = np.exp(1j * (alpha * phases))
        j += nbar * np.outer(e, e.conj())
    return j


def correlation_permanent_bounded(
    sources: SourceArray, deltas: Sequence[float]
) -> tuple[float, float]:
    """Mth-order correlation by the permanent route, with its relative error bound.

    The bound is a posteriori: it is computed from the terms of this very
    evaluation (see `_ryser`) and covers the rounding of the coherence
    matrix as well.  Raises NumericalError when it exceeds ORACLE_TOLERANCE,
    so a value is never returned with fewer correct digits than the oracle
    checks demand.
    """
    order = len(deltas)
    if order < 1:
        raise ValueError("need at least one detector phase")
    if order > PERMANENT_MAX_ORDER:
        raise CapacityError(
            f"permanent evaluation is limited to M <= {PERMANENT_MAX_ORDER} "
            f"(2**M Ryser terms), got M = {order}"
        )
    matrix = coherence_matrix(sources, deltas)
    # Entry j, k sums K terms nbar_l * e_j * conj(e_k) of unit phasors
    # e = exp(1j * alpha_l * d), u = eps / 2.  Each phasor is within eps
    # (libm's exp is good to about an ulp), plus u * |alpha * d| when the
    # phase alpha * d rounds, which it does not when alpha fits into the bits
    # the dtype has beyond a double's 53.  The product and the scaling add
    # 2 sqrt(2) u + u, so a term is within (3.92 + phase) eps * nbar_l, and
    # the K - 1 additions add (K - 1) u * sum nbar.
    info = np.finfo(_WORKING_DTYPE)
    alpha = max(abs(a) for a in sources.prefactors)
    phase = 0.0
    if alpha.bit_length() + 53 > info.nmant + 1:
        phase = alpha * max(abs(float(d)) for d in deltas)
    entry_error = (phase + 3.5 + sources.count / 2) * info.eps * sum(sources.nbar)
    value, error = _ryser(matrix, entry_error)
    bound = error / max(abs(value.real), info.tiny)
    if not bound <= ORACLE_TOLERANCE:
        raise NumericalError(
            f"permanent error bound {bound:.2e} exceeds {ORACLE_TOLERANCE:g} "
            f"at M = {order}"
        )
    return float(value.real), float(bound)


def correlation_permanent(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation as the permanent of the mutual coherence matrix.

    Independent of correlation_pathsum.  Evaluated in extended precision
    where the platform has it; raises NumericalError when the a-posteriori
    error bound of `correlation_permanent_bounded` exceeds ORACLE_TOLERANCE.
    """
    return correlation_permanent_bounded(sources, deltas)[0]
