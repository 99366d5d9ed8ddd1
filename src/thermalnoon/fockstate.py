"""Truncated two-mode Fock space: projection onto the N00N-like sector.

Detecting m2 photons at the magic positions collapses the two-mode field
product to A = a1**m2 + (-1)**(m2-1) * a2**m2.  Applied to a two-mode thermal
state this leaves a four-term density matrix whose only coherences sit at the
Fock offsets (+-m2, -+m2), i.e. a mixed N00N-like state.  Scanning m1 further
detectors through delta1 on that state reproduces the co-located correlation:

    G_full(m1 at delta1, m2 at magic positions; rho)
        = g_detectors(projected rho, [delta1] * m1) * tr(A rho A+)

verify_isomorphism checks that factorization numerically over a delta1 scan:
it builds one thermal state and one projection, and reads two moment tables,
one per state: the left side at every phase of the scan comes from the
thermal state's table, the right side from the projected state's.  The norm
tr(A rho A+) is the trace of the projected state before it is divided by it.

A density matrix is stored as its offset bands (see TwoModeDensityMatrix), a
thermal state as the one band (0, 0).  Bands keep the state's dtype: the
thermal, projected and N00N states are real and stay float64, and a complex
state passed in stays complex128.  A lowering operator B is stored as its
normally ordered monomials c * a1**q * a2**p: M detector fields multiply out
to sum_p e_p(w) a1**(M-p) a2**p, e_p the elementary symmetric polynomials of
w_j = exp(-1j*delta_j), which one recurrence, e_p += w_j * e_(p-1), builds
for every phase set of a scan at once.  Monomial pair (i, j) moves band d of
rho to band d - (qi - qj, pi - pj), so tr(B rho B+) reads only the bands
(d, -d): M+1 vector-matrix-vector products on a thermal state, and no band is
built.
These products m_ij, the state's normally ordered moments, do not depend on
the phases: _moments builds them once per state and set of monomials, and
each phase set is then the contraction sum_ij c_i conj(c_j) m_ij, O((M+1)**2)
per phase after one O(M * D**2) table.

default_cutoff bounds the discarded share of the order-M factorial moment of
the thermal pair, 2 * P(Binomial(D+1, 1/(1+nbar)) <= M) <= TAIL_LIMIT with
M = m1 + m2, not only the kept mass.  No cutoff above FOCK_MAX_CUTOFF is
accepted, chosen or explicit: past it a CapacityError is raised.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, TruncationError, ZeroProbabilityError
from .geometry import (
    DetectorLayout,
    comb_sign,
    relative_gap,
    require_int,
    require_real,
    require_reals,
)

TAIL_LIMIT = 1e-6
# A cost cap on every cutoff.  A real band is (D+1)**2 * 8 bytes, 8 MB at
# D = 1000.  verify_isomorphism keeps about 5 alive at its peak for any m1, m2:
# rho, the three bands of A rho A+ and either project_magic's scratch band or
# one gap of the Hermitian check (tracemalloc: 15 MB at D = 600, 41 MB at
# D = 1000).  At m1 = m2 = 2 on a 2-vCPU Xeon a one-point scan and a 181-point
# scan both take 0.013-0.016 s at D = 600 and 0.04-0.045 s at D = 1000, since
# each state is read once; nbar = 100 at m1 = m2 = 2 would need D = 2439 and
# 0.24 GB.
FOCK_MAX_CUTOFF = 1000


def _require_nbar(nbar: object) -> float:
    nbar = require_real("nbar", nbar)
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"nbar must be nonnegative and finite, got {nbar!r}")
    return nbar


def _require_cutoff(cutoff: object, minimum: int) -> int:
    """An integer cutoff >= minimum; above FOCK_MAX_CUTOFF no band is allocated."""
    cutoff = require_int("cutoff", cutoff, minimum)
    if cutoff > FOCK_MAX_CUTOFF:
        raise CapacityError(
            f"cutoff {cutoff} exceeds FOCK_MAX_CUTOFF = {FOCK_MAX_CUTOFF}: "
            f"each real band would take {(cutoff + 1) ** 2 * 8 / 1e6:.0f} MB"
        )
    return cutoff


def default_cutoff(nbar: float, m1: int = 0, m2: int = 0) -> int:
    """Smallest per-mode cutoff >= max(30, M) whose order-M tail is <= TAIL_LIMIT.

    The tail falls as the cutoff grows, so the cutoff is found by bisection.
    """
    nbar = _require_nbar(nbar)
    order, q = m1 + m2, nbar / (1.0 + nbar)

    def holds(cutoff: int) -> bool:
        return 2.0 * sum(
            math.comb(cutoff + 1, k) * (1.0 - q) ** k * q ** (cutoff + 1 - k)
            for k in range(order + 1)
        ) <= TAIL_LIMIT

    floor = max(30, order)
    cutoff = floor + bisect.bisect_left(
        range(floor, FOCK_MAX_CUTOFF + 1), True, key=holds
    )
    if cutoff > FOCK_MAX_CUTOFF:
        raise CapacityError(
            f"nbar = {nbar} at M = {order} needs a Fock cutoff above "
            f"FOCK_MAX_CUTOFF = {FOCK_MAX_CUTOFF}"
        )
    return cutoff


def _is_hermitian(bands: dict, dim: int) -> bool:
    """rho = rho+ to 1e-10: band d at ket n is conj(band -d at ket n - d).

    Each band is compared with the overlapping slice of band -d as views.
    Where the bra n - d leaves the space, or band -d is missing, the entry
    must be within 1e-10 of 0.
    """
    atol = 1e-10
    for (d1, d2), band in bands.items():
        # kets n with bra n - d inside the space
        lo1, hi1 = min(dim, max(0, d1)), max(0, min(dim, dim + d1))
        lo2, hi2 = min(dim, max(0, d2)), max(0, min(dim, dim + d2))
        inside = band[lo1:hi1, lo2:hi2]
        edges = (band[:lo1], band[hi1:], band[lo1:hi1, :lo2], band[lo1:hi1, hi2:])
        if not all((np.abs(e) <= atol).all() for e in edges):
            return False
        partner = bands.get((-d1, -d2))
        if partner is None:
            gap = np.abs(inside)
        else:
            mirror = partner[lo1 - d1 : hi1 - d1, lo2 - d2 : hi2 - d2]
            # |inside - conj(mirror)| from the real and imaginary parts; conj
            # is the identity on real bands, whose gap is taken in place
            gap = np.subtract(inside.real, mirror.real)
            if np.iscomplexobj(inside) or np.iscomplexobj(mirror):
                np.hypot(gap, np.add(inside.imag, mirror.imag), out=gap)
            else:
                np.abs(gap, out=gap)
        if not (gap <= atol).all():
            return False
        del gap  # before the next band's gap is allocated
    return True


@dataclass(frozen=True, eq=False)
class TwoModeDensityMatrix:
    """Density matrix on span{|n1, n2> : n1, n2 <= cutoff}, stored by offset bands.

    bands maps (d1, d2) to the array of <n1, n2|rho|n1-d1, n2-d2> over the ket
    (n1, n2), float64 where the given band is real and complex128 otherwise.
    trunc_tail records the probability mass the cutoff discarded before
    renormalization; projection_norm is set by project_magic to the
    pre-normalization trace tr(A rho A+).
    """

    bands: dict[tuple[int, int], np.ndarray]
    cutoff: int
    trunc_tail: float = 0.0
    projection_norm: float | None = None

    def __post_init__(self) -> None:
        bands = {}
        for d, b in self.bands.items():
            b = np.asarray(b)  # a real band stays real, anything else complex128
            bands[tuple(map(int, d))] = b.astype(np.result_type(float, b), copy=False)
        object.__setattr__(self, "bands", bands)
        dim = self.cutoff + 1
        for offset, b in bands.items():
            if b.shape != (dim, dim):
                raise ValueError(f"band {offset} shape {b.shape} != ({dim}, {dim})")
        if not _is_hermitian(bands, dim):
            raise ValueError("density matrix must be Hermitian")
        tr = self.trace()
        if not math.isfinite(tr) or abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")

    def trace(self) -> float:
        return float(np.sum(self.bands.get((0, 0), 0.0)).real)

    def entry(self, n1: int, n2: int, n1p: int, n2p: int) -> complex:
        band = self.bands.get((n1 - n1p, n2 - n2p))
        return 0j if band is None else complex(band[n1, n2])

    def support_offsets(self) -> set[tuple[int, int]]:
        """Fock-index offsets (n1-n1', n2-n2') carrying any weight above 1e-12."""
        return {d for d, b in self.bands.items() if np.abs(b).max() > 1e-12}


def _require_power(power: int, rho: TwoModeDensityMatrix) -> None:
    """A TruncationError where a field power would reach past rho's cutoff."""
    if power > rho.cutoff:
        raise TruncationError(f"power {power} exceeds the Fock cutoff {rho.cutoff}")


def _ladders(bands: dict, exponents) -> tuple[int, np.ndarray, float]:
    """dim, rows f_q(n) = <n|a**q|n+q> for q <= M, and a scale; (q, p) of degree M.

    Row q holds sqrt((n+q)!/n!) * 2**(-shift*q) for n < dim; each mode's weights
    take the scale back out, so no factor outgrows about dim**(M/2).
    """
    dim = next(iter(bands.values())).shape[0]
    degree, shift = max(q + p for q, p in exponents), dim.bit_length() // 2
    steps = np.sqrt(np.arange(dim) + np.arange(1.0, degree + 1)[:, None]) * 2.0**-shift
    f = np.vstack([np.ones(dim), np.cumprod(steps, axis=0)])
    return dim, f, math.ldexp(1.0, shift * degree)


def _weights(f: np.ndarray, q: int, qb: int, o: int) -> tuple[int, int, np.ndarray]:
    """Kets lo <= n < hi with ket n + q and bra n - o in range, and f_q(n) f_qb(n-o)."""
    lo, hi = max(0, o), max(0, o, min(f.shape[1] - q, f.shape[1] + o))
    return lo, hi, f[q, lo:hi] * f[qb, lo - o : hi - o]


def _sandwich(bands: dict, coefs, exponents) -> dict:
    """Bands of B rho B+ for B = sum_i c_i a1**qi a2**pi.

    Pair (i, j) moves band d of rho to d - (qi - qj, pi - pj).  Each term is
    multiplied in place: the first one into its output slice, later ones
    through one scratch band that is then added.
    """
    dim, f, scale = _ladders(bands, exponents)
    dtype = np.result_type(np.asarray(coefs), *{x.dtype for x in bands.values()})
    out: dict = {}
    scratch = np.empty((dim, dim), dtype=dtype)
    for (d1, d2), x in bands.items():
        for ci, (qi, pi) in zip(coefs, exponents):
            for cj, (qj, pj) in zip(coefs, exponents):
                o = (d1 - qi + qj, d2 - pi + pj)
                lo1, hi1, u = _weights(f, qi, qj, o[0])
                lo2, hi2, v = _weights(f, pi, pj, o[1])
                term = x[lo1 + qi : hi1 + qi, lo2 + pi : hi2 + pi]
                band = out.get(o)
                first = band is None
                if first:
                    band = out[o] = np.zeros((dim, dim), dtype=dtype)
                    dest = band[lo1:hi1, lo2:hi2]
                else:
                    dest = scratch[: hi1 - lo1, : hi2 - lo2]
                np.multiply(term, (ci * np.conj(cj) * scale * u)[:, None], out=dest)
                np.multiply(dest, scale * v, out=dest)
                if not first:
                    band[lo1:hi1, lo2:hi2] += dest
    return out


def _moments(bands: dict, exponents) -> tuple[dict, float]:
    """Phase-free table for tr(B rho B+), B a sum of monomials a1**q a2**p; and a scale.

    Entry (i, j) is u . x[qi:, pi:] . (scale v) on the band x = (qi - qj,
    pi - pj) of rho, a view, for each pair whose band rho holds; the trace
    of B = sum_i c_i a1**qi a2**pi is then sum_ij c_i conj(c_j) scale m_ij.
    """
    _, f, scale = _ladders(bands, exponents)
    table = {}
    for i, (qi, pi) in enumerate(exponents):
        for j, (qj, pj) in enumerate(exponents):
            x = bands.get((qi - qj, pi - pj))
            if x is not None:
                u, v = _weights(f, qi, qj, 0)[2], _weights(f, pi, pj, 0)[2]
                table[i, j] = u @ (x[qi:, pi:] @ (scale * v))
    return table, scale


def _contract(
    table: dict, scale: float, cre: np.ndarray, cim: np.ndarray
) -> np.ndarray:
    """Re sum_ij c_i conj(c_j) scale m_ij, pairs in table order, per column of c.

    c = cre + 1j*cim holds one column of coefficients c_i per phase set.

    Complex products are spelled out, (a + ib)(c + id) = (ac - bd) + i(ad + bc),
    as numpy rounds them on scalars: its array loop may fuse a multiply-add,
    and a column's value would then depend on the columns evaluated with it.
    """
    i, j = np.array(list(table), dtype=int).reshape(-1, 2).T
    m = np.array(list(table.values()), dtype=complex)[:, None]
    a, b, c, d = cre[i], cim[i], cre[j], -cim[j]
    re, im = (a * c - b * d) * scale, (a * d + b * c) * scale
    terms = re * m.real - im * m.imag
    total = np.zeros(cre.shape[1])
    for term in terms:  # one pair at a time, as a running sum
        total += term
    return total


def thermal_two_mode(nbar: float, cutoff: int | None = None) -> TwoModeDensityMatrix:
    """Product of two single-mode thermal states with the same nbar.

    Raises TruncationError when the cutoff would discard more than TAIL_LIMIT
    probability mass; the kept mass is renormalized to unit trace.
    """
    nbar = _require_nbar(nbar)
    if cutoff is None:
        cutoff = default_cutoff(nbar)
    cutoff = _require_cutoff(cutoff, 1)
    n = np.arange(cutoff + 1, dtype=float)
    # q**n / (1+nbar) stays finite where nbar**n and (1+nbar)**(n+1) overflow
    weights = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    kept = float(weights.sum()) ** 2
    tail = 1.0 - kept
    if tail > TAIL_LIMIT:
        raise TruncationError(
            f"cutoff {cutoff} keeps only {kept:.9f} of the thermal mass "
            f"(tail {tail:.3e} > {TAIL_LIMIT:.0e}) for nbar = {nbar}"
        )
    joint = np.outer(weights, weights) / kept
    return TwoModeDensityMatrix(bands={(0, 0): joint}, cutoff=cutoff, trunc_tail=tail)


def project_magic(rho: TwoModeDensityMatrix, m2: int) -> TwoModeDensityMatrix:
    """State after detecting m2 photons at the magic positions.

    Applies the collapsed field product A = a1**m2 + (-1)**(m2-1)*a2**m2 and
    renormalizes by the trace of A rho A+, which is kept on the result as
    projection_norm.  Projecting a state that cannot supply m2 photons from
    either mode (e.g. the vacuum) is a zero-probability event.
    """
    m2 = require_int("m2", m2, 1)
    _require_power(m2, rho)
    bands = _sandwich(rho.bands, [1.0, comb_sign(m2)], [(m2, 0), (0, m2)])
    norm = float(np.sum(bands[(0, 0)]).real)  # tr(A rho A+)
    if norm < 1e-30:
        raise ZeroProbabilityError(
            f"detecting {m2} photons at the magic positions has zero probability "
            "for this state"
        )
    for band in bands.values():
        band /= norm  # in place: a divided copy would be the call's peak
    return TwoModeDensityMatrix(
        bands, rho.cutoff, trunc_tail=rho.trunc_tail, projection_norm=norm
    )


def _field_coefficients(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of e_p(w), w_j = exp(-1j*delta_j), as (p, row) arrays.

    e_p is the coefficient of a1**(M-p) a2**p in prod_j (a1 + w_j a2), and
    rows holds one phase set delta_1 .. delta_M per row.
    Detector j updates every row at once, e_p += w_j * e_(p-1) for p <= j + 1,
    with the complex product spelled out as in _contract, so that each row's
    coefficients are rounded as in a call of their own.
    """
    w = np.exp(-1j * rows.T)
    er, ei = np.zeros((2, len(w) + 1, len(rows)))
    er[0] = 1.0
    for j, (c, d) in enumerate(zip(w.real, w.imag)):
        a, b = er[: j + 1], ei[: j + 1]
        re, im = c * a - d * b, c * b + d * a
        er[1 : j + 2] += re
        ei[1 : j + 2] += im
    return er, ei


def g_detectors(rho: TwoModeDensityMatrix, deltas) -> float | np.ndarray:
    """Normally ordered intensity correlation of detectors at the given phases.

    Each detector contributes the field E+(delta) = a1 + exp(-1j*delta)*a2.
    deltas holds one phase per detector; a 2-d array holds one phase set per
    row, and then one value per row is returned, all from one moment table.
    """
    scan = isinstance(deltas, np.ndarray) and deltas.ndim == 2
    phases = require_reals("deltas", deltas.ravel() if scan else deltas)
    rows = phases.reshape(deltas.shape if scan else (1, -1))
    order = rows.shape[1]
    _require_power(order, rho)
    table, scale = _moments(rho.bands, [(order - p, p) for p in range(order + 1)])
    values = _contract(table, scale, *_field_coefficients(rows))
    return values if scan else float(values[0])


def noon_overlap(rho: TwoModeDensityMatrix, m2: int) -> float:
    """Overlap <psi|rho|psi> with |psi> = (|m2,0> + (-1)**(m2-1)|0,m2>)/sqrt(2)."""
    m2 = require_int("m2", m2, 1)
    _require_power(m2, rho)
    sign = comb_sign(m2)
    value = 0.5 * (
        rho.entry(m2, 0, m2, 0)
        + rho.entry(0, m2, 0, m2)
        + sign * (rho.entry(m2, 0, 0, m2) + rho.entry(0, m2, m2, 0))
    )
    return float(value.real)


def noon_state(m2: int, cutoff: int) -> TwoModeDensityMatrix:
    """Pure N00N-like state (|m2,0> + (-1)**(m2-1)|0,m2>)/sqrt(2) as a density matrix."""
    m2 = require_int("m2", m2, 1)
    cutoff = _require_cutoff(cutoff, m2)
    sign = comb_sign(m2)
    dim = cutoff + 1
    bands = {d: np.zeros((dim, dim)) for d in ((0, 0), (m2, -m2), (-m2, m2))}
    bands[(0, 0)][m2, 0] = bands[(0, 0)][0, m2] = 0.5
    bands[(m2, -m2)][m2, 0] = bands[(-m2, m2)][0, m2] = 0.5 * sign
    return TwoModeDensityMatrix(bands=bands, cutoff=cutoff)


@dataclass(frozen=True)
class IsomorphismReport:
    """A delta1 scan of the factorization on one thermal state and its projection.

    deltas, lhs, rhs and relative_gaps run in step, one entry per scan phase;
    the other fields describe the state and hold for the whole scan.
    """

    nbar: float
    m1: int
    m2: int
    cutoff: int
    trunc_tail: float
    projection_norm: float
    support_offsets: tuple[tuple[int, int], ...]
    noon_overlap: float
    deltas: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    relative_gaps: tuple[float, ...]

    @property
    def max_relative_gap(self) -> float:
        return float(np.max(self.relative_gaps))

    @property
    def support_ok(self) -> bool:
        """The projected state lies on the offsets (0, 0) and +-(m2, -m2)."""
        m2 = self.m2
        return set(self.support_offsets) <= {(0, 0), (m2, -m2), (-m2, m2)}


def verify_isomorphism(
    nbar: float, m1: int, m2: int, deltas, cutoff: int | None = None
) -> IsomorphismReport:
    """Compare the full (m1+m2)-detector correlation with its projected factorization.

    deltas is the delta1 grid of the scan; a single phase is a one-point scan.
    The thermal state and its projection are built once for the whole scan,
    and each is read once, into one moment table.  lhs contracts the thermal
    state's table with every detector's field at each phase; rhs contracts the
    projected state's table with the moving detectors' fields and multiplies
    by the projection norm, the trace of A rho A+ before renormalization.
    """
    layout = DetectorLayout.colocated(m1, m2)
    scalar = not isinstance(deltas, (list, tuple, np.ndarray))
    phases = require_reals("deltas", [deltas] if scalar else deltas, 1)
    if cutoff is None:
        cutoff = default_cutoff(nbar, layout.m1, layout.m2)
    rho = thermal_two_mode(nbar, cutoff)
    rows = layout.detector_phases(phases)
    lhs = g_detectors(rho, rows)
    projected = project_magic(rho, layout.m2)
    norm = projected.projection_norm
    rhs = g_detectors(projected, rows[:, : layout.m1]) * norm
    return IsomorphismReport(
        nbar=float(nbar),
        m1=layout.m1,
        m2=layout.m2,
        cutoff=rho.cutoff,
        trunc_tail=rho.trunc_tail,
        projection_norm=norm,
        support_offsets=tuple(sorted(projected.support_offsets())),
        noon_overlap=noon_overlap(projected, layout.m2),
        deltas=tuple(float(d) for d in phases),
        lhs=tuple(lhs.tolist()),
        rhs=tuple(rhs.tolist()),
        relative_gaps=tuple(relative_gap(lhs, rhs).tolist()),
    )
