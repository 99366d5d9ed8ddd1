"""Two independent evaluators for Mth-order intensity correlations.

correlation_pathsum sums quantum paths explicitly.  A path sends the photon
of each of the M detectors to one of the K sources; all K**M paths are
enumerated, in blocks of at most _PATH_BLOCK paths evaluated as arrays, and the
phase terms of the paths that share a photon-number split {n_l} are summed
coherently.  A split carries the statistical weight prod_l n_l! * nbar_l**n_l
(the n_l! multiplicity of identical assignments sits in the weight; the paths
of a split are its distinct assignments).

correlation_permanent evaluates the same quantity as the permanent of the M x M
mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*alpha_l*(d_j - d_k)),
which is what the Gaussian moment theorem gives for independent thermal
sources.  The two routes share no code and serve as oracles for each other.

The permanent is Glynn's sum over the 2**(M-1) sign vectors with a fixed
first sign, evaluated in complex128 in blocks of 2**10 sign vectors at a
time.  Its terms cancel far less than Ryser's subset sums: sum |term| / |per|
is 30 to 850 on two-source layouts at M = 14 to 20, where Ryser's reaches
4e6 at M = 14.  Every evaluation also returns an a-posteriori bound on its
own error, taken term by term, and correlation_permanent raises
NumericalError when that bound exceeds ORACLE_TOLERANCE.  Over 92 drawn
two-source layouts at M = 14 to 20 the bound was at most 1.6e-10, so
PERMANENT_MAX_ORDER caps the cost, not the accuracy.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, NumericalError
from .geometry import SourceArray

PATHSUM_MAX_ORDER = 12
# A cost cap: Glynn's sum has 2**(M-1) terms (about 0.1 s at M = 20).  Accuracy
# is checked per call by the a-posteriori bound, not by this cap.
PERMANENT_MAX_ORDER = 20
# Relative accuracy the cross-route oracle checks demand.
ORACLE_TOLERANCE = 1e-9
# Columns whose signs are tabulated at once: 2**10 sign vectors per step.
_LOW_COLUMNS = 10
# Most paths summed as one array: the last b detectors, K**b <= _PATH_BLOCK.
_PATH_BLOCK = 1 << 12


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


def _split_amplitudes(
    alphas: Sequence[int], phases: Sequence[float]
) -> dict[tuple[int, ...], complex]:
    """Coherent sum of all K**M source-to-detector paths, per photon-number split.

    A path sends the photon of detector j to source s_j, so there are K**M
    of them.  Its term is exp(1j*alpha_(s_1)*d_1) * ... *
    exp(1j*alpha_(s_M)*d_M), multiplied left to right, and its split
    (n_0, ..., n_(K-1)) counts the detectors sent to each source.  Every path
    is its own term; the terms of one split are summed before any modulus is
    taken.  The sources of the leading M - b detectors are fixed one prefix at
    a time; the last b detectors form one block of K**b <= _PATH_BLOCK paths,
    whose terms come from np.multiply.outer and whose per-split sums from
    np.bincount on an integer key of the split.  Memory therefore stays bounded
    whatever K**M.
    """
    count, order = len(alphas), len(phases)
    if (order + 1) ** count > np.iinfo(np.int64).max:
        raise CapacityError(
            f"split keys (M+1)**K overflow int64 at K = {count}, M = {order}"
        )
    # split key -sum_l n_l * (M+1)**(K-1-l): enumerate_partitions lists it ascending
    key_of = -((order + 1) ** np.arange(count - 1, -1, -1, dtype=np.int64))
    factors = np.exp(1j * np.multiply.outer(np.asarray(phases, dtype=float), alphas))
    b = 0
    while b < order and count ** (b + 1) <= _PATH_BLOCK:
        b += 1
    lead = order - b
    tail_keys = np.zeros(1, dtype=np.int64)
    for _ in range(b):
        tail_keys = np.add.outer(tail_keys, key_of).ravel()
    tail_splits = (np.array(enumerate_partitions(count, b)) * key_of).sum(axis=1)
    # bins 2i and 2i + 1 take the real and imaginary parts of tail split i
    parts = (2 * np.searchsorted(tail_splits, tail_keys)[:, None] + (0, 1)).ravel()
    splits = enumerate_partitions(count, order)
    keys = (np.array(splits) * key_of).sum(axis=1)
    sums = np.zeros(len(splits), dtype=complex)
    rows, weights = factors[:lead].tolist(), key_of.tolist()
    for prefix in itertools.product(range(count), repeat=lead):
        term, key = 1 + 0j, 0
        for row, source in zip(rows, prefix):
            term *= row[source]
            key += weights[source]
        terms = np.array([term])
        for row in factors[lead:]:
            terms = np.multiply.outer(terms, row).ravel()
        block = np.bincount(parts, terms.view(float), 2 * tail_splits.size)
        sums[np.searchsorted(keys, key + tail_splits)] += block.view(complex)
    return dict(zip(splits, sums.tolist()))


def correlation_pathsum(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation by explicit quantum-path summation.

    G = sum over partitions {n_l} of prod_l (n_l! * nbar_l**n_l) times the
    squared modulus of the coherent sum of the partition's paths.  Nonnegative
    real.  Guarded at M = 12; use correlation_permanent for larger orders.
    """
    phases = [float(d) for d in deltas]
    order = len(phases)
    if order < 1:
        raise ValueError("need at least one detector phase")
    if order > PATHSUM_MAX_ORDER:
        raise CapacityError(
            f"path summation is limited to M <= {PATHSUM_MAX_ORDER} "
            f"(K**M paths); got M = {order}. "
            "Use correlation_permanent for larger orders."
        )
    alphas = sources.prefactors
    amplitudes = _split_amplitudes(alphas, phases)
    total = 0.0
    for counts in enumerate_partitions(sources.count, order):
        weight = 1.0
        for alpha, n in zip(alphas, counts):
            weight *= math.factorial(n) * sources.nbar[alpha] ** n
        total += weight * abs(amplitudes[counts]) ** 2
    return total


def _sign_sums(
    start: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums start + sum_j s_j columns[:, j] for all sign vectors s; prod_j s_j.

    Column k of the (rows, 2**count) table holds the sums for s_j = -1 where
    bit j of k is set and s_j = +1 elsewhere.  Each sum takes one addition
    per column.
    """
    rows, count = columns.shape
    table = np.empty((rows, 1 << count), dtype=columns.dtype)
    table[:, 0] = start
    parity = np.ones(1 << count)
    for j, column in enumerate(columns.T):
        size = 1 << j
        np.subtract(table[:, :size], column[:, None], out=table[:, size : 2 * size])
        table[:, :size] += column[:, None]
        np.negative(parity[:size], out=parity[size : 2 * size])
    return table, parity


def _sign_blocks(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Glynn's row sums g(s) = A s for every s in {+1, -1}**n with s_0 = +1.

    Yields (rows, parity) per block: column c of the (n, 2**b) array `rows`
    holds g(s) for the sign vector numbered c + 2**b * k in the k-th block,
    where bit j of the number marks s_(j+1) = -1, and `parity` holds the
    prod_j s_j of each column; b = min(n - 1, _LOW_COLUMNS).  The row sums of
    the low columns form one table; those of the high columns are drawn from
    two half tables, so every g_i is a sum of the n signed entries with at
    most n - 1 rounded additions.  No row sum is carried from block to
    block, as a Gray-code walk would carry it: that adds one rounding per
    step, which no per-term bound can follow.  `rows` is overwritten by the
    next block.
    """
    n = a.shape[0]
    b = min(n - 1, _LOW_COLUMNS)
    half = (n - 1 - b) // 2
    zero = np.zeros(n, dtype=a.dtype)
    low, low_sign = _sign_sums(a[:, 0], a[:, 1 : b + 1])
    mid, mid_sign = _sign_sums(zero, a[:, b + 1 : b + 1 + half])
    top, top_sign = _sign_sums(zero, a[:, b + 1 + half :])
    rows = np.empty_like(low)
    for top_sum, top_parity in zip(top.T, top_sign):
        for mid_sum, mid_parity in zip(mid.T, mid_sign):
            # broadcast by copy, then add like-shaped arrays: a broadcasting
            # add runs about 1.5x slower on these shapes
            np.copyto(rows, (mid_sum + top_sum)[:, None])
            rows += low
            yield rows, low_sign * (mid_parity * top_parity)


def _pairwise_sum(values: np.ndarray) -> np.generic:
    """Sum of a power-of-two number of values by halving.

    Each value passes through exactly log2(len(values)) additions, which is
    what the error bound in `_glynn` counts.
    """
    while values.size > 1:
        half = values.size // 2
        values = values[:half] + values[half:]
    return values[0]


def _glynn(matrix: np.ndarray, entry_error: float = 0.0) -> tuple[complex, float]:
    """Glynn permanent in complex128, with an absolute error bound.

    per(A) = 2**-(n-1) sum_s (prod_k s_k) prod_i g_i(s), g_i(s) = sum_j s_j a_ij,
    over the 2**(n-1) sign vectors s in {+1, -1}**n with s_0 = +1
    (D. G. Glynn, Eur. J. Combin. 31 (2010) 1887).  The row sums come in
    blocks from `_sign_blocks`; each block's terms are the products down its
    columns.

    Error bound, with u = eps / 2 the unit roundoff of double precision:

    * Each computed row sum h_i = fl(g_i) takes n - 1 additions of partial
      sums no larger than rho_i = sum_j |a_ij|, each rounding by at most
      u * rho_i, so |h_i - g_i| <= n eps rho_i.  `entry_error` (a bound on
      the error of each entry the caller passes) moves g_i by at most
      n * entry_error more; d_i is the sum of the two.  Then
      |prod_i g_i - prod_i h_i| <= sum_k d_k prod_(i != k) (|h_i| + d_i)
      = prod_i (|h_i| + d_i) * sum_i d_i / (|h_i| + d_i), by telescoping
      the difference one row at a time; summed over the terms this is
      `moved`.  Per term it is about |t| sum_i d_i / |h_i|, small wherever
      no row sum nearly cancels.  The global form
      prod_i (rho_i + d_i) - prod_i rho_i scales with prod_i rho_i instead,
      about 7e7 |per| at M = 18, and would bound the relative error there
      by about 1e-5.
    * Each term is a product of n row sums in n - 1 complex
      multiplications, each with relative error at most sqrt(2) * 2u, so
      the term is off by at most 2 sqrt(2) (n - 1) u |t|.
    * The 2**(n-1) signed terms are summed pairwise (`_pairwise_sum` in each
      block, then over the blocks), n - 1 additions deep, which adds at most
      (n - 1) u sum |t|.  The signs and the power-of-two scale are exact.

    Together, to first order in eps:
    |error| <= 2**-(n-1) [(sqrt(2) + 1/2) (n - 1) eps sum|t| + moved].  The
    factor c = 2n used below exceeds (sqrt(2) + 1/2) (n - 1) by at least 2,
    which covers the second-order terms.  The bound's own arithmetic rounds
    at a relative O(n eps).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n == 0:
        return 1 + 0j, 0.0
    rho = np.abs(a).sum(axis=1)
    if not rho.all():
        # a zero row makes every term, and the permanent, exactly zero
        return 0j, 0.0
    eps = np.finfo(a.dtype).eps
    d = n * (eps * rho + entry_error)
    sums = []
    magnitude = moved = 0.0
    reach = None
    for rows, parity in _sign_blocks(a):
        terms = np.multiply.reduce(rows, axis=0)
        magnitude += np.abs(terms).sum()
        sums.append(_pairwise_sum(terms * parity))
        reach = np.abs(rows, out=reach)
        reach += d[:, None]
        weight = np.multiply.reduce(reach, axis=0)
        moved += weight @ (d @ np.reciprocal(reach, out=reach))
    scale = 0.5 ** (n - 1)
    total = complex(_pairwise_sum(np.array(sums))) * scale
    return total, float(scale * (2 * n * eps * magnitude + moved))


def coherence_matrix(sources: SourceArray, deltas: Sequence[float]) -> np.ndarray:
    """Mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*alpha_l*(d_j - d_k))."""
    j = np.zeros((len(deltas), len(deltas)), dtype=complex)
    phases = np.asarray([float(d) for d in deltas], dtype=float)
    for alpha, nbar in zip(sources.prefactors, sources.nbar):
        e = np.exp(1j * (alpha * phases))
        j += nbar * np.outer(e, e.conj())
    return j


def correlation_permanent_bounded(
    sources: SourceArray, deltas: Sequence[float]
) -> tuple[float, float]:
    """Mth-order correlation by the permanent route, with its relative error bound.

    The bound is a posteriori: it is computed from the terms of this very
    evaluation (see `_glynn`) and covers the rounding of the coherence
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
            f"(2**(M-1) Glynn terms), got M = {order}"
        )
    matrix = coherence_matrix(sources, deltas)
    # Entry j, k sums K terms nbar_l * e_j * conj(e_k) of unit phasors
    # e = exp(1j * alpha_l * d), u = eps / 2.  Each phasor is within eps
    # (libm's exp is good to about an ulp), plus u * |alpha * d| from the
    # rounding of the phase alpha * d.  The product and the scaling add
    # 2 sqrt(2) u + u, so a term is within (3.92 + phase) eps * nbar_l, and
    # the K - 1 additions add (K - 1) u * sum nbar.
    info = np.finfo(matrix.dtype)
    phase = max(sources.prefactors) * max(abs(float(d)) for d in deltas)
    entry_error = (phase + 3.5 + sources.count / 2) * info.eps * sum(sources.nbar)
    value, error = _glynn(matrix, entry_error)
    bound = error / max(abs(value.real), info.tiny)
    if not bound <= ORACLE_TOLERANCE:
        raise NumericalError(
            f"permanent error bound {bound:.2e} exceeds {ORACLE_TOLERANCE:g} "
            f"at M = {order}"
        )
    return float(value.real), float(bound)


def correlation_permanent(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation as the permanent of the mutual coherence matrix.

    Independent of correlation_pathsum.  Evaluated in complex128 on every
    platform; raises NumericalError when the a-posteriori error bound of
    `correlation_permanent_bounded` exceeds ORACLE_TOLERANCE.
    """
    return correlation_permanent_bounded(sources, deltas)[0]
