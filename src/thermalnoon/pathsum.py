"""Two independent evaluators for Mth-order intensity correlations.

correlation_pathsum sums quantum paths.  A path sends the photon of each of
the M detectors to one of the K sources; the paths that share a
photon-number split {n_l} are summed coherently, and the split carries the
weight prod_l n_l! * nbar_l**n_l (its paths are its distinct assignments).
A split's sum is the coefficient of prod_l x_l**n_l in
prod_j (sum_l exp(1j*alpha_l*d_j) x_l), so multiplying in one detector at a
time gives every split's amplitude without listing the K**M paths: about
M * K passes over a table of (M+1)**(K-1) entries, which PATHSUM_MAX_TABLE
caps.  With two sources every layout tried up to M = 58 is certified.

correlation_permanent evaluates the same quantity as the permanent of the M x M
mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*alpha_l*(d_j - d_k)),
which is what the Gaussian moment theorem gives for independent thermal
sources, by Glynn's formula with co-located detectors summed as
multiplicities (`_glynn`).  With phases measured from the centre of the
source line the matrix is real when nbar is mirror-symmetric, and the sum
then runs in float64.  PERMANENT_MAX_TERMS caps its cost.

The two routes share no code and serve as oracles for each other.  Both
bound their own error a posteriori and raise NumericalError when the bound
exceeds ORACLE_TOLERANCE.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, NumericalError
from .geometry import SourceArray

# Cost caps; each route's a-posteriori bound, not its cap, checks accuracy.
# The path sum's table: 2**20 complex entries take 16 MiB, passed over K times
# per detector: 0.26 s at K = 5, M = 31 (32**4), 0.9 s at K = 4, M = 100.
# K = 2 and 3 never reach it: M! leaves the double range past M = 170.
PATHSUM_MAX_TABLE = 1 << 20
# 2**19 Glynn terms, M = 20 at distinct phases (0.06 s in float64, 0.09 s in
# complex128), and as many entries of the M x M coherence matrix, which is
# built before its groups are found.
PERMANENT_MAX_TERMS = 1 << 19
# Relative accuracy the cross-route oracle checks demand.
ORACLE_TOLERANCE = 1e-9
# Width of the low table, 2**10 terms per step: ten distinct columns' signs, or
# fewer groups' minus-sign counts whose choices multiply to at most that.
_LOW_COLUMNS = 10


def _split_table(
    alphas: Sequence[int], phases: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Every photon-number split, as an (N, K) array, and the sum of its paths.

    Split n's sum over the paths that send n_l detectors to source l is the
    coefficient of prod_l x_l**n_l in prod_j (sum_l exp(1j*alpha_l*d_j) x_l).
    Each factor is divided by its unit phasor of source K-1, which leaves
    every amplitude times one unit phase that |amplitude| does not see.  The
    table is indexed by (n_0, ..., n_(K-2)), n_(K-1) being implied; detector
    j adds to it, for each l < K-1, the table as it was, one step up axis l,
    times exp(1j*(alpha_l - alpha_(K-1))*d_j).  Only indices <= j are filled
    before detector j, so it works on the block of indices <= j + 1.
    """
    count, order = len(alphas), len(phases)
    axes = count - 1
    if (order + 1) ** axes > PATHSUM_MAX_TABLE:
        raise CapacityError(
            f"path-sum table of (M+1)**(K-1) = {(order + 1) ** axes} splits at "
            f"K = {count}, M = {order} exceeds PATHSUM_MAX_TABLE = {PATHSUM_MAX_TABLE}"
        )
    rows = np.exp(1j * np.multiply.outer(phases, np.subtract(alphas[:-1], alphas[-1])))
    table = np.zeros((order + 1,) * axes, dtype=complex)
    table[(0,) * axes] = 1
    # within a block: the entries as they were, and the same moved up axis l
    down = (slice(-1),) * axes
    ups = [down[:l] + (slice(1, None),) + down[l + 1 :] for l in range(axes)]
    for j, row in enumerate(rows.tolist()):
        # the trailing ... keeps a view when K = 1 and the table is 0-d
        block = table[(slice(j + 2),) * axes + (...,)]
        moved = [block[down] * phasor for phasor in row]
        for up, term in zip(ups, moved):
            block[up] += term
    # an array even when K = 1 and the sum of no index arrays is 0
    full = np.asarray(sum(np.indices(table.shape, sparse=True)) <= order)
    lead = np.argwhere(full)
    return np.column_stack([lead, order - lead.sum(axis=1)]), table[full]


def correlation_pathsum_bounded(
    sources: SourceArray, deltas: Sequence[float]
) -> tuple[float, float]:
    """Mth-order correlation by the path sum, with its relative error bound.

    G = sum_n W_n |A_n|**2 over the splits n, W_n = prod_l n_l! nbar_l**n_l.
    The bound is a posteriori (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4), with u = eps / 2:

    * A phasor exp(1j*a*d), a = alpha_l - alpha_(K-1), is within eps (libm's
      cos and sin are good to about an ulp), plus u |a d| from rounding a * d
      unless |a| is 0 or a power of two.  Per detector, a path's partial sum
      takes at most one product with a phasor, of relative error
      sqrt(2) * 2u (Higham lemma 3.5), and K - 1 additions of u each.  A_n
      sums count_n = M! / prod_l n_l! unit terms, so it is off by at most
      e_n = c M eps count_n, c = sqrt(2) + 1 + (K - 1)/2 + |a d|max/2 to
      first order.  The c = 2 + K/2 + |a d|max/2 used exceeds that by 0.08
      or more, which covers second-order terms and the rounding of count_n
      and W_n here.  So |A_n|**2 is off by at most e_n (2 |A_n| + e_n).
    * W_n takes at most M + 4K - 1 roundings (running products for the
      factorials, powers within an ulp, products of K factors), W_n |A_n|**2
      three more and math.fsum one: at most (M/2 + 2K + 2) eps G, all terms
      being nonnegative.

    Raises NumericalError when the bound exceeds ORACLE_TOLERANCE, or where
    M!, a weight or a term leaves the double range; CapacityError above
    PATHSUM_MAX_TABLE; ValueError for a non-finite phase.
    """
    phases = [float(d) for d in deltas]
    order, count = len(phases), sources.count
    if order < 1:
        raise ValueError("need at least one detector phase")
    if not all(map(math.isfinite, phases)):
        raise ValueError(f"deltas must be finite, got {deltas!r}")
    alphas = sources.prefactors
    eps = np.finfo(float).eps
    gaps = [alphas[-1] - a for a in alphas]
    inexact = max((g for g in gaps if g & (g - 1)), default=0)
    c = 2 + count / 2 + inexact * max(map(abs, phases)) / 2
    try:
        with np.errstate(all="raise"):
            # n! for n = 0 ... M: past M = 170 this raises before the recursion
            factorial = np.cumprod(np.arange(order + 1, dtype=float).clip(1))
            splits, amplitudes = _split_table(alphas, phases)
            factorials = factorial[splits].prod(axis=1)
            weights = factorials * np.power(sources.nbar, splits).prod(axis=1)
            reach = c * order * eps * factorial[-1] / factorials
            moved = weights * (2 * np.abs(amplitudes) + reach) * reach
            terms = weights * (amplitudes.real**2 + amplitudes.imag**2)
            value = math.fsum(terms.tolist())
            error = math.fsum(moved.tolist())
            error += (order / 2 + 2 * count + 2) * eps * value
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError(
            f"path sum at K = {count}, M = {order} leaves the double range ({exc})"
        ) from None
    bound = error / max(value, np.finfo(float).tiny)
    if not bound <= ORACLE_TOLERANCE:
        raise NumericalError(
            f"path-sum error bound {bound:.2e} exceeds {ORACLE_TOLERANCE:g} "
            f"at K = {count}, M = {order}"
        )
    return value, bound


def correlation_pathsum(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation by the path sum; see `correlation_pathsum_bounded`."""
    return correlation_pathsum_bounded(sources, deltas)[0]


def _sign_sums(
    columns: np.ndarray, groups: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums sum_g q_g columns[:, g] for every choice of q_g; prod_g w_g.

    Group g of size m with f free signs has the choices k = 0 ... f, with
    factor q = m - 2k and weight w = (-1)**k C(f, k).  Column c of the
    (rows, prod_g (f_g + 1)) table takes choice k_g of group g, where
    c = k_0 + (f_0 + 1) * (k_1 + (f_1 + 1) * ...).  Each sum takes one
    rounded product q_g * columns[:, g] and one addition per group, the
    first to an exact 0: a group's choices extend the table of the groups
    before it in one broadcast, choice k being block k.  No group leaves
    one column of 0, of weight 1.  With the factors (+1, -1) of a single
    column this is the table of its two signs.
    """
    table = np.zeros((columns.shape[0], 1), dtype=columns.dtype)
    weights = np.ones(1)
    for column, (m, free) in zip(columns.T, groups):
        products = column[:, None] * (m - 2 * np.arange(free + 1))
        table = table[:, None, :] + products[:, :, None]
        table = table.reshape(columns.shape[0], -1)
        # as floats: exact below 2**53, and no int64 overflow past 2**63
        w = [float((-1) ** k * math.comb(free, k)) for k in range(free + 1)]
        weights = (np.array(w)[:, None] * weights).ravel()
    return table, weights


def _sign_blocks(
    columns: np.ndarray, counts: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Glynn's row sums over the minus-sign counts of groups of equal columns.

    Group g repeats the column columns[:, g] m_g = counts[g] times, each of
    its signs free but in group 0, which holds the column whose sign is
    fixed at +1; `_sign_sums` gives each group's choices and weights.
    Yields (rows, weights) per block: column c of the (rows, width) array
    `rows` in the i-th block holds the row sums of the choice numbered
    c + width * i, in the mixed radix of `_sign_sums` over all groups in
    order, and `weights` the signed count of its sign vectors.  Group 0 and
    the groups after it whose choices number at most 2**_LOW_COLUMNS form
    the low table and the others the high table; block i adds column i of
    the high table to the low table, so every row sum is one rounded
    product per group and at most one addition per group after the first.
    One block adds a column of +0, which changes no bit: no sum built up
    from +0 is -0.  No row sum is carried from block to block, as a
    Gray-code walk would carry it: that adds one rounding per step, which
    no per-term bound can follow.  `rows` is overwritten by the next block.
    """
    groups = [(m, m - 1 if g == 0 else m) for g, m in enumerate(counts)]
    radix = [free + 1 for _, free in groups]
    b, width = 1, radix[0]
    while b < len(radix) and width * radix[b] <= 1 << _LOW_COLUMNS:
        width *= radix[b]
        b += 1
    low, low_weight = _sign_sums(columns[:, :b], groups[:b])
    high, high_weight = _sign_sums(columns[:, b:], groups[b:])
    rows = np.empty_like(low)
    for high_sum, high_w in zip(high.T, high_weight):
        # broadcast by copy, then add like-shaped arrays: a broadcasting add,
        # or a new array per block, runs about 1.5x slower on these shapes
        np.copyto(rows, high_sum[:, None])
        rows += low
        yield rows, low_weight * high_w


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
    which is what the error bound in `_glynn` counts.  The halves are added
    in place, so `values` is overwritten.
    """
    size = values.size
    while size > 1:
        half = (size + 1) // 2
        values[: size - half] += values[half:size]
        size = half
    return values[0]


def _repeats(vectors: np.ndarray) -> tuple[list[int], list[int]]:
    """First index and count of each set of bit-identical vectors, in order."""
    # one C-order copy of every vector, cut into one key per vector
    raw = vectors.tobytes()
    step = len(raw) // len(vectors)
    groups: dict[bytes, list[int]] = {}
    for i in range(len(vectors)):
        groups.setdefault(raw[i * step : (i + 1) * step], []).append(i)
    firsts = [group[0] for group in groups.values()]
    return firsts, [len(group) for group in groups.values()]


def _glynn(matrix: np.ndarray, entry_error: float = 0.0) -> tuple[complex, float]:
    """Glynn permanent in the matrix's own dtype, with an absolute error bound.

    A real matrix is summed in float64 and any other in complex128, through
    the same code; the value is returned as a complex number either way.

    per(A) = 2**-(n-1) sum_s (prod_k s_k) prod_i g_i(s), g_i(s) = sum_j s_j a_ij,
    over the 2**(n-1) sign vectors s in {+1, -1}**n with s_0 = +1
    (D. G. Glynn, Eur. J. Combin. 31 (2010) 1887).  The C(m, k) sign vectors
    that put k minus signs in a group of m bit-identical columns c give the
    same row sums, with (m - 2k) c for the group's signed columns, so they
    form one term of weight (-1)**k C(m, k): the inclusion-exclusion with
    multiplicities of H. Kan, J. Multivariate Anal. 99 (2008) 542.  With the
    fixed sign in a smallest group, of m_p columns, there are
    m_p / (m_p + 1) * prod_g (m_g + 1) <= 2**(n-1) terms, exactly 2**(n-1)
    when every column is distinct.  A row that occurs r times has the same
    row sum h each time and enters each term as h**r.  The row sums come in
    blocks from `_sign_blocks`; each block's terms are the weighted products
    down its columns.

    Error bound, with u = eps / 2 the unit roundoff of double precision and
    rho_i = sum_j |a_ij| over all n columns:

    * A computed row sum h_i = fl(g_i) takes one product (m_g - 2k_g) c_gi
      per group, rounding by at most u |m_g - 2k_g| |c_gi| (none when the
      product is 0 or a power of two), u * rho_i in all, then at most n - 1
      additions of partial sums no larger than rho_i, so
      |h_i - g_i| <= n eps rho_i.  `entry_error`, a bound on the error of
      each entry passed, moves g_i by at most n * entry_error more; d_i is
      the sum of the two.  Entries stored equal may differ in the exact
      matrix, but each sign vector's row sums still lie within d_i of the
      h_i of its term.  Telescoping one row at a time,
      |prod_i g_i - prod_i h_i| <= prod_i (|h_i| + d_i) sum_i d_i / (|h_i| + d_i),
      a row that occurs r_i times counted r_i times; times |w| for the |w|
      sign vectors of a term and summed over the terms this is `moved`,
      about |t| sum_i d_i / |h_i| per term.  The global form
      prod_i (rho_i + d_i) - prod_i rho_i would be 7e7 |per| at M = 18.
    * A term takes n - 1 multiplications of single factors however
      `_row_products` groups them, each of relative error at most
      sqrt(2) * 2u when complex and u when real, and one product with its
      weight w, which is an exact integer while |w| <= 2**(n-1) < 2**53:
      at most (2 sqrt(2) (n - 1) + 1) u |t|.
      Past n = 53 the G binomials, the G weight products within the two
      tables and the one joining them may round too: (2G + 2) u |t| more.
    * The T terms are summed pairwise (`_pairwise_sum` over each block, then
      over the blocks).  A group of m columns has m + 1 <= 2**m choices, and
      the pinned one m_p <= 2**(m_p - 1), so that is at most n - 1 additions
      deep: (n - 1) u sum |t|.  The power-of-two scale is exact.

    Together, to first order in eps:
    |error| <= 2**-(n-1) [((sqrt(2) + 1/2) (n - 1) + 1/2) eps sum|t| + moved].
    The c = 2n used below (2n + G + 1 past n = 53) exceeds that factor by at
    least 1.5, which covers the second-order terms; a real sum rounds less,
    so the same c serves both dtypes.  The bound's own arithmetic rounds at
    a relative O(n eps).  A sum that overflows, or meets inf - inf, raises
    NumericalError at once.
    """
    a = np.asarray(matrix)
    a = a.astype(np.result_type(a, float), copy=False)
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
    terms = counts[pinned] * math.prod(m + 1 for m in counts) // (counts[pinned] + 1)
    if terms > PERMANENT_MAX_TERMS:
        raise CapacityError(
            f"Glynn's sum over these {len(counts)} column groups has {terms} terms, "
            f"over PERMANENT_MAX_TERMS = {PERMANENT_MAX_TERMS}"
        )
    groups = [pinned] + [g for g in range(len(counts)) if g != pinned]
    row_firsts, row_counts = _repeats(a)
    # rows that occur once lead, as `_row_products` expects
    order = sorted(range(len(row_counts)), key=row_counts.__getitem__)
    rows_kept = [row_firsts[i] for i in order]
    repeats = [row_counts[i] for i in order]
    columns = a[np.array(rows_kept)[:, None], [firsts[g] for g in groups]]
    d = n * (eps * rho[rows_kept] + entry_error)
    d_repeated = np.array(repeats) * d
    sums = []
    magnitude = moved = 0.0
    reach = None
    scale = 0.5 ** (n - 1)
    c = 2 * n if n <= 53 else 2 * n + len(counts) + 1
    try:
        with np.errstate(over="raise", invalid="raise"):
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
            total = complex(_pairwise_sum(np.array(sums))) * scale
            return total, float(scale * (c * eps * magnitude + moved))
    except FloatingPointError as exc:
        raise NumericalError(
            f"permanent at M = {n} leaves the double range ({exc})"
        ) from None


def coherence_matrix(sources: SourceArray, deltas: Sequence[float]) -> np.ndarray:
    """Mutual coherence matrix J[j, k] = sum_l nbar_l * exp(1j*s_l*(d_j - d_k)).

    Source l's phase is measured from the centre of the source line,
    s_l = alpha_l - (K - 1)/2: a diagonal unitary similarity of the matrix
    with alpha_l in place of s_l, so the permanent is the same.  When nbar
    reads the same in both directions, the terms of l and K - 1 - l are
    conjugate and J is real: float64, each such pair one term
    2 nbar_l (c_j c_k + s_j s_k) with c = cos(s_l d) and s = sin(s_l d).
    Otherwise J is complex128.
    """
    phases = np.asarray(deltas, dtype=float)
    count = sources.count
    shifts = [a - (count - 1) / 2 for a in sources.prefactors]
    if sources.nbar == sources.nbar[::-1]:
        # the sources up to the centre; a pair's weight 2 nbar_l is exact
        half = (count + 1) // 2
        angles = np.multiply.outer(shifts[:half], phases)
        pairs = zip(sources.nbar, shifts, np.cos(angles), np.sin(angles))
        return sum(
            n * (2 if shift else 1) * (c[:, None] * c + s[:, None] * s)
            for n, shift, c, s in pairs
        )
    phasors = np.exp(1j * np.multiply.outer(shifts, phases))
    return sum(n * (e[:, None] * e.conj()) for n, e in zip(sources.nbar, phasors))


def _entry_error(sources: SourceArray, phases: np.ndarray, real: bool) -> float:
    """A bound on the rounding error of each entry of `coherence_matrix`.

    A complex entry j, k sums K terms w_l e_j conj(e_k), w_l = nbar_l; a real
    one sums ceil(K/2) terms w_l (c_j c_k + s_j s_k), w_l = 2 nbar_l for a
    pair; e = c + 1j s = exp(1j * s_l * d) are unit phasors,
    s_l = l - (K - 1)/2, u = eps / 2, and the w_l add up to sum nbar.

    * Each phasor is within eps (libm's exp, cos and sin are good to about
      an ulp), plus u * |s_l * d| from the rounding of the phase s_l * d
      unless |s_l| is 0 or a power of two, so never at K = 2, 3 or 5.  The
      exact product of two phasors is then within (2 + phase) eps,
      phase = max |s_l * d| over the rounded phases.
    * The complex product adds 2 sqrt(2) u (Higham lemma 3.5), the real
      one's two products and their sum 2u, and the scaling by w_l u unless
      every w_l is a power of two: a term is within (3.42 + phase) eps * w_l
      complex or (3 + phase) eps * w_l real, plus 0.5 eps * w_l if scaled.
    * Each addition after the first adds u * sum nbar.

    One ulp per component puts a phasor within sqrt(2) u, not eps: the
    0.58 eps per term between them covers the second-order terms.
    """
    gaps = [abs(2 * a - (sources.count - 1)) for a in sources.prefactors]
    inexact = max((g for g in gaps if g & (g - 1)), default=0)
    phase = inexact / 2 * float(np.abs(phases).max()) if inexact else 0.0
    terms = (sources.count + 1) // 2 if real else sources.count
    # 2 nbar_l is a power of two exactly when nbar_l is
    scaled = any(math.frexp(n)[0] != 0.5 for n in sources.nbar)
    term = (3 if real else 3.42) + phase + scaled / 2
    return (term + (terms - 1) / 2) * np.finfo(float).eps * sum(sources.nbar)


def correlation_permanent_bounded(
    sources: SourceArray, deltas: Sequence[float]
) -> tuple[float, float]:
    """Mth-order correlation by the permanent route, with its relative error bound.

    The bound is a posteriori, from the terms of this very evaluation (see
    `_glynn`), and covers the rounding of the coherence matrix as well.
    Raises NumericalError when it exceeds ORACLE_TOLERANCE or the sum leaves
    the double range; ValueError for a non-finite phase.
    """
    phases = np.asarray(deltas, dtype=float)
    order = len(phases)
    if order < 1:
        raise ValueError("need at least one detector phase")
    if not np.isfinite(phases).all():
        raise ValueError(f"deltas must be finite, got {deltas!r}")
    if order * order > PERMANENT_MAX_TERMS:
        raise CapacityError(
            f"{order} x {order} coherence matrix exceeds PERMANENT_MAX_TERMS entries"
        )
    matrix = coherence_matrix(sources, phases)
    entry_error = _entry_error(sources, phases, np.isrealobj(matrix))
    value, error = _glynn(matrix, entry_error)
    bound = error / max(abs(value.real), np.finfo(float).tiny)
    if not bound <= ORACLE_TOLERANCE:
        raise NumericalError(
            f"permanent error bound {bound:.2e} exceeds {ORACLE_TOLERANCE:g} "
            f"at M = {order}"
        )
    return float(value.real), float(bound)


def correlation_permanent(sources: SourceArray, deltas: Sequence[float]) -> float:
    """Mth-order correlation as the permanent of the mutual coherence matrix.

    Independent of correlation_pathsum.  Evaluated in float64 for
    mirror-symmetric brightness and in complex128 otherwise, on every
    platform; raises NumericalError when the a-posteriori error bound of
    `correlation_permanent_bounded` exceeds ORACLE_TOLERANCE.
    """
    return correlation_permanent_bounded(sources, deltas)[0]
