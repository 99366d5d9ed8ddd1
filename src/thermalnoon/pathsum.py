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
first sign, evaluated in complex128 in blocks of at most 2**10 terms at a
time.  Detectors at one position give bit-identical rows and columns of J;
the sign vectors that put equally many minus signs in a group of m equal
columns give one term, weighted by a binomial count, so co-located
detectors enter as multiplicities.  A layout whose distinct positions hold
m_1 ... m_G detectors sums m_p / (m_p + 1) * prod_g (m_g + 1) terms, m_p the
smallest group: 4608 for colocated(8, 10) at M = 18, and 2**(M-1) only when
every phase is distinct.  The terms cancel far less than Ryser's subset
sums: sum |term| / |per| is 30 to 850 on two-source layouts at M = 14 to
20, where Ryser's reaches 4e6 at M = 14.  Every evaluation also returns an
a-posteriori bound on its own error, taken term by term, and
correlation_permanent raises NumericalError when that bound exceeds
ORACLE_TOLERANCE.  Over 92 drawn two-source layouts at M = 14 to 20 the
bound was at most 1.6e-10, so PERMANENT_MAX_ORDER caps the cost, not the
accuracy.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, NumericalError
from .geometry import SourceArray

PATHSUM_MAX_ORDER = 12
# A cost cap: Glynn's sum has up to 2**(M-1) terms, that many when all M phases
# are distinct (about 0.1 s at M = 20); co-located detectors cut it to
# m_p / (m_p + 1) * prod_g (m_g + 1).  Accuracy is checked per call by the
# a-posteriori bound, not by this cap.
PERMANENT_MAX_ORDER = 20
# Relative accuracy the cross-route oracle checks demand.
ORACLE_TOLERANCE = 1e-9
# Width of the low table, 2**10 terms per step: ten distinct columns' signs, or
# fewer groups' minus-sign counts whose choices multiply to at most that.
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


def _sign_choices(counts: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Per group of equal columns, (m - 2k, (-1)**k C(m, k)) for k = 0 ... m.

    When k of the m signs of a group of m equal columns c are -1, the group
    adds (m - 2k) c to every row sum, and C(m, k) sign vectors of parity
    (-1)**k do so.  Group 0 holds the column whose sign is fixed at +1, so
    its k = 0 ... m - 1 minus signs fall among the other m - 1 columns.
    """
    out = []
    for group, m in enumerate(counts):
        free = m - 1 if group == 0 else m
        out.append(
            [(m - 2 * k, (-1) ** k * math.comb(free, k)) for k in range(free + 1)]
        )
    return out


def _sign_sums(
    columns: np.ndarray, choices: Sequence[Sequence[tuple[int, int]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums sum_g q_g columns[:, g] for every choice of (q_g, w_g); prod_g w_g.

    Column c of the (rows, prod_g len(choices[g])) table takes choice k_g of
    group g, where c = k_0 + len(choices[0]) * (k_1 + len(choices[1]) * ...).
    Each sum takes one rounded product q_g * columns[:, g] and one addition
    per group.  With the choices (+1, 1) and (-1, -1) of a single column
    this is the table of its two signs.
    """
    width = math.prod(map(len, choices))
    table = np.empty((columns.shape[0], width), dtype=columns.dtype)
    table[:, 0] = 0
    weights = np.ones(width)
    size = 1
    for column, choice in zip(columns.T, choices):
        for k, (q, w) in enumerate(choice[1:], 1):
            block = slice(k * size, (k + 1) * size)
            np.add(table[:, :size], (q * column)[:, None], out=table[:, block])
            np.multiply(weights[:size], w, out=weights[block])
        # choice 0 (no minus sign) has weight 1
        table[:, :size] += (choice[0][0] * column)[:, None]
        size *= len(choice)
    return table, weights


def _sign_blocks(
    columns: np.ndarray, counts: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Glynn's row sums over the minus-sign counts of groups of equal columns.

    Group g repeats the column columns[:, g] counts[g] times, and group 0
    holds the column whose sign is fixed at +1.  Yields (rows, weights) per
    block: column c of the (rows, width) array `rows` in the i-th block
    holds sum_g (m_g - 2 k_g) columns[:, g] for the choice numbered
    c + width * i, in the mixed radix of `_sign_sums` over all groups in
    order, and `weights` holds prod_g (-1)**k_g C(m_g, k_g), the signed count
    of the sign vectors with those row sums.  Group 0 and the groups after
    it whose choices number at most 2**_LOW_COLUMNS together form one table;
    the row sums of the other groups are drawn from two half tables, so
    every row sum is one rounded product per group and at most one addition
    per group after the first.  No row sum is carried from block to block, as a
    Gray-code walk would carry it: that adds one rounding per step, which no
    per-term bound can follow.  With every count 1 the choices are the two
    signs of each column.  `rows` is overwritten by the next block.
    """
    choices = _sign_choices(counts)
    radix = [len(choice) for choice in choices]
    b, width = 1, radix[0]
    while b < len(radix) and width * radix[b] <= 1 << _LOW_COLUMNS:
        width *= radix[b]
        b += 1
    rest = math.prod(radix[b:])
    h, half = b, 1
    while h < len(radix) and (half * radix[h]) ** 2 <= rest:
        half *= radix[h]
        h += 1
    low, low_weight = _sign_sums(columns[:, :b], choices[:b])
    mid, mid_weight = _sign_sums(columns[:, b:h], choices[b:h])
    top, top_weight = _sign_sums(columns[:, h:], choices[h:])
    rows = np.empty_like(low)
    for top_sum, top_w in zip(top.T, top_weight):
        for mid_sum, mid_w in zip(mid.T, mid_weight):
            # broadcast by copy, then add like-shaped arrays: a broadcasting
            # add runs about 1.5x slower on these shapes
            np.copyto(rows, (mid_sum + top_sum)[:, None])
            rows += low
            yield rows, low_weight * (mid_w * top_w)


def _row_products(rows: np.ndarray, repeats: Sequence[int]) -> np.ndarray:
    """prod_i rows[i] ** repeats[i] down the columns, for ascending `repeats`.

    The rows that occur once form one reduction; each repeated row enters as
    a power taken by repeated squaring.  Unfolded into single factors, the
    product of sum(repeats) factors takes sum(repeats) - 1 multiplications
    however it is grouped, which is what the error bound in `_glynn` counts.
    """
    single = repeats.count(1)
    product = np.multiply.reduce(rows[:single], axis=0)
    for row, count in zip(rows[single:], repeats[single:]):
        power = None
        while True:
            if count & 1:
                power = row if power is None else power * row
            count >>= 1
            if not count:
                break
            row = row * row
        product = product * power
    return product


def _pairwise_sum(values: np.ndarray) -> np.generic:
    """Sum by halving; an odd count carries its last value to the next round.

    Each value passes through at most ceil(log2(len(values))) additions,
    which is what the error bound in `_glynn` counts.
    """
    while values.size > 1:
        half = (values.size + 1) // 2
        head = values[:half].copy()
        head[: values.size - half] += values[half:]
        values = head
    return values[0]


def _repeats(vectors: np.ndarray) -> tuple[list[int], list[int]]:
    """First index and count of each set of bit-identical vectors, in order."""
    groups: dict[bytes, list[int]] = {}
    for i, vector in enumerate(vectors):
        groups.setdefault(vector.tobytes(), []).append(i)
    firsts = [group[0] for group in groups.values()]
    return firsts, [len(group) for group in groups.values()]


def _glynn(matrix: np.ndarray, entry_error: float = 0.0) -> tuple[complex, float]:
    """Glynn permanent in complex128, with an absolute error bound.

    per(A) = 2**-(n-1) sum_s (prod_k s_k) prod_i g_i(s), g_i(s) = sum_j s_j a_ij,
    over the 2**(n-1) sign vectors s in {+1, -1}**n with s_0 = +1
    (D. G. Glynn, Eur. J. Combin. 31 (2010) 1887).  Bit-identical columns
    form groups.  The C(m, k) sign vectors that put k minus signs in a group
    of m equal columns c give the same row sums, with (m - 2k) c in place of
    the group's signed columns, so they are summed as one term of weight
    (-1)**k C(m, k): the inclusion-exclusion with multiplicities of
    H. Kan, J. Multivariate Anal. 99 (2008) 542.  The fixed sign sits in a
    smallest group, of m_p columns, so the sum has
    m_p / (m_p + 1) * prod_g (m_g + 1) <= 2**(n-1) terms, exactly 2**(n-1)
    when every column is distinct.  A row that occurs r times has the same
    row sum h each time and enters each term as h**r.  The row sums come in
    blocks from `_sign_blocks`; each block's terms are the weighted products
    down its columns.

    Error bound, with u = eps / 2 the unit roundoff of double precision and
    rho_i = sum_j |a_ij| over all n columns:

    * A computed row sum h_i = fl(g_i) takes one product (m_g - 2k_g) c_gi
      per group, each rounding by at most u |m_g - 2k_g| |c_gi| (the integer
      multiplier is exact; the product is exact when it is 0 or a power of
      two), and these add up to at most u * rho_i.  It then takes at most
      n - 1 additions of partial sums no larger than rho_i, each rounding by
      at most u * rho_i, so |h_i - g_i| <= n eps rho_i.  `entry_error` (a
      bound on the error of each entry the caller passes) moves g_i by at
      most n * entry_error more; d_i is the sum of the two.  Entries that
      are stored equal may differ in the exact matrix, but the row sums of
      each single sign vector still lie within d_i of the h_i of its term.
      Then |prod_i g_i - prod_i h_i| <= sum_k d_k prod_(i != k) (|h_i| + d_i)
      = prod_i (|h_i| + d_i) * sum_i d_i / (|h_i| + d_i), by telescoping
      the difference one row at a time, a row that occurs r_i times counted
      r_i times; times |w| for the |w| sign vectors of a term and summed over
      the terms this is `moved`.  Per term it is about |t| sum_i d_i / |h_i|,
      small wherever no row sum nearly cancels.  The global form
      prod_i (rho_i + d_i) - prod_i rho_i scales with prod_i rho_i instead,
      about 7e7 |per| at M = 18, and would bound the relative error there
      by about 1e-5.
    * Each term is a product of n row sums: a power h**r by repeated
      squaring unfolds into r - 1 multiplications of single factors
      (`_row_products`), so n - 1 complex multiplications in all, each with
      relative error at most sqrt(2) * 2u.  The weight w is an exact
      integer (|w| <= 2**(n-1) < 2**53), and the product with it rounds by
      at most u.  So the term is off by at most (2 sqrt(2) (n - 1) + 1) u |t|.
    * The T terms are summed pairwise (`_pairwise_sum` over each block of
      W, then over the T / W blocks), ceil(log2 W) + ceil(log2(T / W))
      additions deep.  A group of m columns has m + 1 <= 2**m choices, and
      the pinned one m_p <= 2**(m_p - 1), so the depth is at most n - 1 and
      the summation adds at most (n - 1) u sum |t|.  The power-of-two scale
      is exact.

    Together, to first order in eps:
    |error| <= 2**-(n-1) [((sqrt(2) + 1/2) (n - 1) + 1/2) eps sum|t| + moved].
    The factor c = 2n used below exceeds (sqrt(2) + 1/2) (n - 1) + 1/2 by at
    least 1.5, which covers the second-order terms.  The bound's own
    arithmetic rounds at a relative O(n eps).
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
    firsts, counts = _repeats(a.T)
    # the fixed sign goes to a smallest group: m_p of its m_p + 1 choices remain
    pinned = counts.index(min(counts))
    groups = [pinned] + [g for g in range(len(counts)) if g != pinned]
    row_firsts, row_counts = _repeats(a)
    # rows that occur once lead, as `_row_products` expects
    order = sorted(range(len(row_counts)), key=row_counts.__getitem__)
    rows_kept = [row_firsts[i] for i in order]
    repeats = [row_counts[i] for i in order]
    columns = a[np.ix_(rows_kept, [firsts[g] for g in groups])]
    d = n * (eps * rho[rows_kept] + entry_error)
    d_repeated = np.array(repeats) * d
    sums = []
    magnitude = moved = 0.0
    reach = None
    for rows, weights in _sign_blocks(columns, [counts[g] for g in groups]):
        terms = _row_products(rows, repeats)
        terms *= weights
        magnitude += np.abs(terms).sum()
        sums.append(_pairwise_sum(terms))
        reach = np.abs(rows, out=reach)
        reach += d[:, None]
        weight = _row_products(reach, repeats)
        weight *= np.abs(weights)
        moved += weight @ (d_repeated @ np.reciprocal(reach, out=reach))
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
            f"(up to 2**(M-1) Glynn terms, at distinct detector phases), "
            f"got M = {order}"
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
