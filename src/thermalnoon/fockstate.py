"""Truncated two-mode Fock space: projection onto the N00N-like sector.

Detecting m2 photons at the magic positions collapses the two-mode field
product to A = a1**m2 + (-1)**(m2-1) * a2**m2.  Applied to a two-mode thermal
state this leaves a four-term density matrix whose only coherences sit at the
Fock offsets (+-m2, -+m2), i.e. a mixed N00N-like state.  Scanning m1 further
detectors through delta1 on that state reproduces the co-located correlation:

    G_full(m1 at delta1, m2 at magic positions; rho)
        = g_moving(projected rho, m1, delta1) * tr(A rho A+)

verify_isomorphism checks that factorization numerically, with the left side
evaluated by direct operator algebra on the unprojected state.

A density matrix is stored as its offset bands: band (d1, d2) holds
<n1, n2|rho|n1-d1, n2-d2> as a (cutoff+1)-square array over the ket (n1, n2).
Absent offsets are zero, a thermal state is the one band (0, 0), and a_k**p
moves a band by p along mode k.  default_cutoff bounds the discarded share of
the order-M factorial moment of the thermal pair, 2 * P(Binomial(D+1,
1/(1+nbar)) <= M) <= TAIL_LIMIT with M = m1 + m2, so it covers the correlation
itself and not only the kept probability mass; past FOCK_MAX_CUTOFF it raises
CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, TruncationError, ZeroProbabilityError
from .geometry import DetectorLayout, comb_sign, require_int, require_real

TAIL_LIMIT = 1e-6
# A cost cap on default_cutoff.  A band is (D+1)**2 * 16 bytes, 16 MB at
# D = 1000.  verify_isomorphism at m1 = m2 = 2 keeps 20 bands alive at its
# peak (tracemalloc: 29.1 MB at D = 300, 116 MB at D = 600; 38 bands at
# m1 = m2 = 5) and takes 0.3 s at D = 600, growing as (D+1)**2.  So D = 1000
# costs about 320 MB and 0.9 s a call; nbar = 100 would need D = 2439 and
# 1.9 GB.
FOCK_MAX_CUTOFF = 1000


def _require_nbar(nbar: object) -> float:
    nbar = require_real("nbar", nbar)
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"nbar must be nonnegative and finite, got {nbar!r}")
    return nbar


def default_cutoff(nbar: float, m1: int = 0, m2: int = 0) -> int:
    """Smallest per-mode cutoff >= max(30, M) whose order-M tail is <= TAIL_LIMIT."""
    nbar = _require_nbar(nbar)
    order, q = m1 + m2, nbar / (1.0 + nbar)
    cutoff = max(30, order)
    while cutoff <= FOCK_MAX_CUTOFF and 2.0 * sum(
        math.comb(cutoff + 1, k) * (1.0 - q) ** k * q ** (cutoff + 1 - k)
        for k in range(order + 1)
    ) > TAIL_LIMIT:
        cutoff += 1
    if cutoff > FOCK_MAX_CUTOFF:
        raise CapacityError(
            f"nbar = {nbar} at M = {order} needs a Fock cutoff above "
            f"FOCK_MAX_CUTOFF = {FOCK_MAX_CUTOFF}"
        )
    return cutoff


def _take(band: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """out[n1, n2] = band[n1 + s1, n2 + s2], zero where that index leaves the band."""
    dim = band.shape[0]
    out = np.zeros_like(band)
    if abs(s1) < dim and abs(s2) < dim:
        out[max(0, -s1) : dim - max(0, s1), max(0, -s2) : dim - max(0, s2)] = band[
            max(0, s1) : dim - max(0, -s1), max(0, s2) : dim - max(0, -s2)
        ]
    return out


def _dagger(bands: dict) -> dict:
    """Bands of rho+: band -d at ket n is conj(band d at ket n + d)."""
    return {(-d1, -d2): _take(b, d1, d2).conj() for (d1, d2), b in bands.items()}


def _trace(bands: dict) -> float:
    return float(np.sum(bands.get((0, 0), 0.0)).real)


@dataclass(frozen=True, eq=False)
class TwoModeDensityMatrix:
    """Density matrix on span{|n1, n2> : n1, n2 <= cutoff}, stored by offset bands.

    bands maps (d1, d2) to the array of <n1, n2|rho|n1-d1, n2-d2> over the ket
    (n1, n2).  trunc_tail records the probability mass the cutoff discarded
    before renormalization; projection_norm is set by project_magic to the
    pre-normalization trace tr(A rho A+).
    """

    bands: dict[tuple[int, int], np.ndarray]
    cutoff: int
    trunc_tail: float = 0.0
    projection_norm: float | None = None

    def __post_init__(self) -> None:
        items = self.bands.items()
        bands = {tuple(map(int, d)): np.asarray(b, dtype=complex) for d, b in items}
        object.__setattr__(self, "bands", bands)
        dim = self.cutoff + 1
        for offset, b in bands.items():
            if b.shape != (dim, dim):
                raise ValueError(f"band {offset} shape {b.shape} != ({dim}, {dim})")
        mirror = _dagger(bands)
        if not all(
            np.allclose(bands.get(d, 0.0), mirror.get(d, 0.0), rtol=0, atol=1e-10)
            for d in bands.keys() | mirror.keys()
        ):
            raise ValueError("density matrix must be Hermitian")
        tr = self.trace()
        if not math.isfinite(tr) or abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")

    def trace(self) -> float:
        return _trace(self.bands)

    def entry(self, n1: int, n2: int, n1p: int, n2p: int) -> complex:
        band = self.bands.get((n1 - n1p, n2 - n2p))
        return 0j if band is None else complex(band[n1, n2])

    def diagonal_part(self) -> "TwoModeDensityMatrix":
        """Same populations with every Fock coherence zeroed."""
        return TwoModeDensityMatrix(
            {(0, 0): self.bands[(0, 0)]}, self.cutoff, trunc_tail=self.trunc_tail
        )

    def support_offsets(self, tol: float = 1e-12) -> set[tuple[int, int]]:
        """Fock-index offsets (n1-n1', n2-n2') carrying any weight above tol."""
        return {d for d, b in self.bands.items() if np.abs(b).max() > tol}


def _apply(bands: dict, factors) -> dict:
    """Bands of B X, with B the product of the factors.

    Each factor is a sum of lowering terms given as (weight, mode, power),
    meaning weight * a1**power for mode 0 and weight * a2**power for mode 1.
    """
    for factor in factors:
        out: dict = {}
        for (d1, d2), b in bands.items():
            for weight, mode, power in factor:
                # <n| a**p = sqrt((n+p)! / n!) <n+p| along the lowered mode
                step = (power, 0) if mode == 0 else (0, power)
                n = np.arange(b.shape[0], dtype=float)[:, None]
                coef = np.sqrt(np.prod(n + np.arange(1, power + 1), axis=1))
                term = weight * np.expand_dims(coef, 1 - mode) * _take(b, *step)
                key = (d1 - step[0], d2 - step[1])
                out[key] = out[key] + term if key in out else term
        bands = out
    return bands


def _sandwich(bands: dict, factors) -> dict:
    """Bands of B rho B+ for Hermitian rho.

    Lowering operators commute and rho = rho+, so B rho B+ = B (B rho)+.
    """
    return _apply(_dagger(_apply(bands, factors)), factors)


def _sandwich_trace(bands: dict, factors) -> float:
    """tr(B rho B+) = sum over n, m of (B rho)_nm conj(B_nm), band by band.

    B's bands are the factors applied to the identity, so no band of
    B rho B+ is built.
    """
    dim = next(iter(bands.values())).shape[0]
    b_rho = _apply(bands, factors)
    b = _apply({(0, 0): np.ones((dim, dim))}, factors)
    return float(sum(np.vdot(b[d], x) for d, x in b_rho.items() if d in b).real)


def thermal_two_mode(nbar: float, cutoff: int | None = None) -> TwoModeDensityMatrix:
    """Product of two single-mode thermal states with the same nbar.

    Raises TruncationError when the cutoff would discard more than TAIL_LIMIT
    probability mass; the kept mass is renormalized to unit trace.
    """
    nbar = _require_nbar(nbar)
    if cutoff is None:
        cutoff = default_cutoff(nbar)
    cutoff = require_int("cutoff", cutoff, 1)
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
    renormalizes; the discarded norm tr(A rho A+) is kept on the result as
    projection_norm.  Projecting a state that cannot supply m2 photons from
    either mode (e.g. the vacuum) is a zero-probability event.
    """
    m2 = require_int("m2", m2, 1)
    if m2 > rho.cutoff:
        raise TruncationError(
            f"operator power m2 = {m2} exceeds the Fock cutoff {rho.cutoff}"
        )
    sign = comb_sign(m2)
    bands = _sandwich(rho.bands, [[(1.0, 0, m2), (sign, 1, m2)]])
    norm = _trace(bands)
    if norm < 1e-30:
        raise ZeroProbabilityError(
            f"detecting {m2} photons at the magic positions has zero probability "
            "for this state"
        )
    return TwoModeDensityMatrix(
        bands={d: b / norm for d, b in bands.items()},
        cutoff=rho.cutoff,
        trunc_tail=rho.trunc_tail,
        projection_norm=norm,
    )


def g_detectors(rho: TwoModeDensityMatrix, deltas) -> float:
    """Normally ordered intensity correlation of detectors at the given phases.

    Each detector contributes the field E+(delta) = a1 + exp(-1j*delta)*a2.
    """
    phases = [float(d) for d in deltas]
    if len(phases) > rho.cutoff:
        raise TruncationError(
            f"operator power {len(phases)} exceeds the Fock cutoff {rho.cutoff}"
        )
    fields = [[(1.0, 0, 1), (np.exp(-1j * d), 1, 1)] for d in phases]
    return _sandwich_trace(rho.bands, fields)


def g_moving(rho: TwoModeDensityMatrix, m1: int, delta1: float) -> float:
    """Correlation of m1 co-located detectors at delta1: <E-**m1 E+**m1>."""
    return g_detectors(rho, [float(delta1)] * require_int("m1", m1, 0))


def noon_overlap(rho: TwoModeDensityMatrix, m2: int) -> float:
    """Overlap <psi|rho|psi> with |psi> = (|m2,0> + (-1)**(m2-1)|0,m2>)/sqrt(2)."""
    m2 = require_int("m2", m2, 1)
    if m2 > rho.cutoff:
        raise TruncationError(
            f"N00N occupation {m2} exceeds the Fock cutoff {rho.cutoff}"
        )
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
    cutoff = require_int("cutoff", cutoff, m2)
    sign = comb_sign(m2)
    dim = cutoff + 1
    bands = {d: np.zeros((dim, dim)) for d in ((0, 0), (m2, -m2), (-m2, m2))}
    bands[(0, 0)][m2, 0] = bands[(0, 0)][0, m2] = 0.5
    bands[(m2, -m2)][m2, 0] = bands[(-m2, m2)][0, m2] = 0.5 * sign
    return TwoModeDensityMatrix(bands=bands, cutoff=cutoff)


@dataclass(frozen=True)
class IsomorphismReport:
    nbar: float
    m1: int
    m2: int
    delta1: float
    cutoff: int
    lhs: float
    rhs: float
    relative_gap: float
    projection_norm: float
    trunc_tail: float


def verify_isomorphism(
    nbar: float,
    m1: int,
    m2: int,
    delta1: float,
    cutoff: int | None = None,
) -> IsomorphismReport:
    """Compare the full (m1+m2)-detector correlation with its projected factorization.

    lhs applies all detector fields to the thermal state directly; rhs scans
    only the moving detectors on the projected state and multiplies by the
    recorded projection norm.
    """
    layout = DetectorLayout.colocated(m1, m2)
    if cutoff is None:
        cutoff = default_cutoff(nbar, layout.m1, layout.m2)
    rho = thermal_two_mode(nbar, cutoff)
    lhs = g_detectors(rho, layout.detector_phases(delta1))
    projected = project_magic(rho, m2)
    rhs = g_moving(projected, layout.m1, delta1) * projected.projection_norm
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return IsomorphismReport(
        nbar=float(nbar),
        m1=layout.m1,
        m2=layout.m2,
        delta1=float(delta1),
        cutoff=int(cutoff),
        lhs=lhs,
        rhs=rhs,
        relative_gap=gap,
        projection_norm=projected.projection_norm,
        trunc_tail=rho.trunc_tail,
    )
