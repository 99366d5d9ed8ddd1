import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import thermalnoon
from thermalnoon import fockstate
from thermalnoon.analytic import closed_form
from thermalnoon.errors import CapacityError, TruncationError, ZeroProbabilityError
from thermalnoon.fockstate import (
    FOCK_MAX_CUTOFF,
    TAIL_LIMIT,
    TwoModeDensityMatrix,
    default_cutoff,
    g_detectors,
    noon_overlap,
    noon_state,
    project_magic,
    thermal_two_mode,
    verify_isomorphism,
)
from thermalnoon.geometry import DetectorLayout, SourceArray, comb_sign, magic_positions
from thermalnoon.pathsum import (
    ORACLE_TOLERANCE,
    correlation_pathsum,
    correlation_permanent,
)


def dense(rho):
    # the ((cutoff+1)**2)-square matrix over |n1, n2>; small cutoffs only
    dim = rho.cutoff + 1
    full = np.zeros((dim, dim, dim, dim), dtype=complex)
    n1, n2 = np.indices((dim, dim))
    for (d1, d2), band in rho.bands.items():
        ok = (0 <= n1 - d1) & (n1 - d1 < dim) & (0 <= n2 - d2) & (n2 - d2 < dim)
        full[n1[ok], n2[ok], (n1 - d1)[ok], (n2 - d2)[ok]] = band[ok]
    return full.reshape(dim * dim, dim * dim)


def min_eigenvalue(rho):
    return float(np.linalg.eigvalsh(dense(rho))[0])


def lowering_pair(cutoff):
    # dense a1 and a2 on the same space: a|n> = sqrt(n)|n-1>, which stays inside it
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    eye = np.eye(cutoff + 1)
    return np.kron(a, eye), np.kron(eye, a)


def field_coefficients(deltas):
    # e_p(w) one detector and one coefficient at a time, e_p += w_j e_(p-1)
    # from the top down, each complex product spelled out in Python floats
    er, ei = [1.0] + [0.0] * len(deltas), [0.0] * (len(deltas) + 1)
    for j, delta in enumerate(deltas):
        w = complex(np.exp(-1j * delta))
        c, d = w.real, w.imag
        for p in range(j + 1, 0, -1):
            a, b = er[p - 1], ei[p - 1]
            er[p], ei[p] = er[p] + (c * a - d * b), ei[p] + (c * b + d * a)
    return [complex(re, im) for re, im in zip(er, ei)]


def per_phase_trace(rho, deltas):
    # the loop reference for g_detectors: one phase set, one monomial pair at
    # a time, each complex product spelled out in Python floats, which are
    # rounded one operation at a time on every platform
    e = field_coefficients(deltas)
    exponents = [(len(deltas) - p, p) for p in range(len(deltas) + 1)]
    _, f, scale = fockstate._ladders(rho.bands, exponents)
    total = 0.0
    for ci, (qi, pi) in zip(e, exponents):
        for cj, (qj, pj) in zip(e, exponents):
            x = rho.bands.get((qi - qj, pi - pj))
            if x is not None:
                u = fockstate._weights(f, qi, qj, 0)[2]
                v = fockstate._weights(f, pi, pj, 0)[2]
                m = complex(u @ (x[qi:, pi:] @ (scale * v)))
                a, b = float(ci.real), float(ci.imag)
                c, d = float(cj.real), -float(cj.imag)
                re, im = (a * c - b * d) * scale, (a * d + b * c) * scale
                total += re * m.real - im * m.imag
    return total


def random_state(cutoff, seed):
    # a Hermitian PSD state with weight on every offset band, not only on (d, -d)
    dim = cutoff + 1
    rng = np.random.default_rng(seed)
    shape = (dim * dim, dim * dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    full = g @ g.conj().T
    full = (full / np.trace(full).real).reshape(dim, dim, dim, dim)
    n1, n2 = np.indices((dim, dim))
    bands = {}
    for d1 in range(-cutoff, dim):
        for d2 in range(-cutoff, dim):
            ok = (0 <= n1 - d1) & (n1 - d1 < dim) & (0 <= n2 - d2) & (n2 - d2 < dim)
            bands[(d1, d2)] = np.zeros((dim, dim), dtype=complex)
            bands[(d1, d2)][ok] = full[n1[ok], n2[ok], (n1 - d1)[ok], (n2 - d2)[ok]]
    return TwoModeDensityMatrix(bands=bands, cutoff=cutoff)


def complex_copy(rho):
    # the same state with complex128 bands
    bands = {d: b.astype(complex) for d, b in rho.bands.items()}
    return replace(rho, bands=bands)


def linear_cutoff(nbar, order):
    # the reference scan: step the cutoff up by 1 from the floor until the
    # order-M tail holds; None where no cutoff up to the cap does
    q = nbar / (1.0 + nbar)
    cutoff = max(30, order)
    while cutoff <= FOCK_MAX_CUTOFF and 2.0 * sum(
        math.comb(cutoff + 1, k) * (1.0 - q) ** k * q ** (cutoff + 1 - k)
        for k in range(order + 1)
    ) > TAIL_LIMIT:
        cutoff += 1
    return cutoff if cutoff <= FOCK_MAX_CUTOFF else None


def bisected_cutoff(nbar, order):
    try:
        return default_cutoff(nbar, order // 2, order - order // 2)
    except CapacityError:
        return None


class TestDefaultCutoff:
    def test_floor_of_thirty(self):
        assert default_cutoff(0.1) == 30
        assert default_cutoff(0.5, 2, 2) == 30

    def test_scales_with_brightness_and_powers(self):
        assert default_cutoff(5.0, 3, 3) >= 66

    @pytest.mark.parametrize(
        "nbar", [-1.0, -1e-300, math.inf, math.nan, True, "1.0", None]
    )
    def test_rejects_bad_nbar_naming_it(self, nbar):
        with pytest.raises(ValueError, match="nbar"):
            default_cutoff(nbar)
        with pytest.raises(ValueError, match="nbar"):
            thermal_two_mode(nbar, cutoff=10)

    @pytest.mark.parametrize("m1,m2", [(0, 0), (2, 2), (5, 5)])
    def test_cap_at_its_edge(self, m1, m2):
        # bisect for the brightest nbar whose cutoff is allowed: there the
        # cutoff is the cap itself, and the next float up is refused
        lo, hi = 1.0, 1e3
        assert default_cutoff(lo, m1, m2) < FOCK_MAX_CUTOFF
        with pytest.raises(CapacityError, match="FOCK_MAX_CUTOFF"):
            default_cutoff(hi, m1, m2)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            mid = mid if lo < mid < hi else math.nextafter(lo, hi)
            try:
                default_cutoff(mid, m1, m2)
                lo = mid
            except CapacityError:
                hi = mid
        assert default_cutoff(lo, m1, m2) == FOCK_MAX_CUTOFF
        with pytest.raises(CapacityError):
            default_cutoff(hi, m1, m2)

    @pytest.mark.parametrize("order", [0, 1, 4, 13, 35, 100])
    def test_bisection_matches_a_linear_scan(self, order):
        # dim sources sit on the max(30, M) floor, bright ones need more than
        # the cap from M = 13 on; at M = 100 the reference scan of a refused
        # nbar alone takes 0.2 s, so the brightest ones are left out there
        brightnesses = (0.0, 0.05, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0, 60.0)
        for nbar in brightnesses[: 5 if order == 100 else None]:
            assert bisected_cutoff(nbar, order) == linear_cutoff(nbar, order)
        assert bisected_cutoff(0.0, order) == max(30, order)

    @pytest.mark.parametrize("order", [4, 40])
    def test_bisection_matches_a_linear_scan_at_the_cap(self, order):
        # the brightest nbar whose cutoff is the cap, and the next float up
        lo, hi = 1.0, 1e3
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            mid = mid if lo < mid < hi else math.nextafter(lo, hi)
            if bisected_cutoff(mid, order) is None:
                hi = mid
            else:
                lo = mid
        assert bisected_cutoff(lo, order) == linear_cutoff(lo, order) == FOCK_MAX_CUTOFF
        assert bisected_cutoff(hi, order) is linear_cutoff(hi, order) is None

    def test_orders_past_the_cap_are_refused(self):
        # without photons the floor max(30, M) is the cutoff, up to the cap
        for order in (FOCK_MAX_CUTOFF, FOCK_MAX_CUTOFF + 1):
            assert bisected_cutoff(0.0, order) == linear_cutoff(0.0, order)
        assert bisected_cutoff(0.0, FOCK_MAX_CUTOFF) == FOCK_MAX_CUTOFF
        assert bisected_cutoff(0.0, FOCK_MAX_CUTOFF + 1) is None

    def test_certain_photons_are_refused_not_looped_on(self):
        # q = nbar / (1 + nbar) rounds to 1: no cutoff ever holds the tail
        with pytest.raises(CapacityError):
            default_cutoff(1e308, 2, 2)

    def test_explicit_cutoff_obeys_the_cap(self):
        # 1000 is the largest cutoff either constructor accepts; 1001 is
        # refused before a band of (D+1)**2 * 8 bytes is allocated
        assert thermal_two_mode(0.5, FOCK_MAX_CUTOFF).cutoff == FOCK_MAX_CUTOFF
        assert noon_state(2, FOCK_MAX_CUTOFF).cutoff == FOCK_MAX_CUTOFF
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="FOCK_MAX_CUTOFF"):
                thermal_two_mode(0.5, FOCK_MAX_CUTOFF + 1)
            with pytest.raises(CapacityError, match="FOCK_MAX_CUTOFF"):
                noon_state(2, FOCK_MAX_CUTOFF + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


BRIGHTNESSES = [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]


class TestCutoffTail:
    @pytest.mark.parametrize("nbar", BRIGHTNESSES)
    def test_default_cutoff_keeps_thermal_mass(self, nbar):
        rho = thermal_two_mode(nbar)
        assert rho.trunc_tail <= TAIL_LIMIT
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 2, 4, 6])
    @pytest.mark.parametrize("nbar", BRIGHTNESSES)
    def test_default_cutoff_bounds_the_correlation(self, nbar, order):
        # the cutoff must hold the order-M correlation, not only the mass
        m1 = order // 2
        rho = thermal_two_mode(nbar, cutoff=default_cutoff(nbar, m1, order - m1))
        deltas = 0.7 * np.arange(order)
        if order == 0 or nbar == 0.0:
            expected = float(order == 0)  # normalization, or no photons at all
        else:
            expected = correlation_pathsum(SourceArray.equidistant(2, nbar), deltas)
        assert g_detectors(rho, deltas) == pytest.approx(expected, rel=TAIL_LIMIT)

    def test_bright_weights_stay_finite(self):
        # at nbar = 10, nbar**n / (1+nbar)**(n+1) is 0 from n = 296 and NaN from 309
        rho = thermal_two_mode(10.0, cutoff=400)
        assert np.isfinite(rho.bands[(0, 0)]).all()
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)


class TestThermalTwoMode:
    def test_vacuum_limit(self):
        rho = thermal_two_mode(0.0, cutoff=8)
        assert rho.entry(0, 0, 0, 0) == pytest.approx(1.0)
        assert rho.trace() == pytest.approx(1.0)
        assert rho.support_offsets() == {(0, 0)}

    def test_unit_trace_and_tail(self):
        rho = thermal_two_mode(0.5, cutoff=30)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.trunc_tail < 1e-6

    def test_diagonal_and_geometric_weights(self):
        nbar = 0.5
        rho = thermal_two_mode(nbar, cutoff=20)
        ratio = nbar / (1.0 + nbar)
        for n in range(4):
            # separable product of two geometric number distributions
            assert rho.entry(n, 0, n, 0) / rho.entry(0, 0, 0, 0) == pytest.approx(
                ratio**n, rel=1e-9
            )
            assert rho.entry(n, n, n, n) / rho.entry(0, 0, 0, 0) == pytest.approx(
                ratio ** (2 * n), rel=1e-9
            )

    def test_bright_source_needs_room(self):
        with pytest.raises(TruncationError):
            thermal_two_mode(2.0, cutoff=30)
        rho = thermal_two_mode(2.0, cutoff=45)
        assert rho.trunc_tail < 1e-6

    def test_rejects_negative_brightness(self):
        with pytest.raises(ValueError):
            thermal_two_mode(-0.5, cutoff=10)

    @pytest.mark.parametrize("cutoff", [16.0, 16.5, True, 0])
    def test_rejects_non_integer_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
            thermal_two_mode(0.5, cutoff)

    def test_numpy_integer_cutoff_is_a_plain_int(self):
        cutoff = thermal_two_mode(0.5, np.int64(16)).cutoff
        assert cutoff == 16 and type(cutoff) is int

    def test_positive_semidefinite(self):
        rho = thermal_two_mode(0.5, cutoff=14)
        assert min_eigenvalue(rho) >= -1e-12


class TestDensityMatrixValidation:
    def test_rejects_nonhermitian(self):
        diagonal = np.zeros((3, 3), dtype=complex)
        diagonal[0, 0] = 1.0
        coherence = np.zeros((3, 3), dtype=complex)
        coherence[1, 0] = 0.5  # <1,0|rho|0,0> without its mirror <0,0|rho|1,0>
        with pytest.raises(ValueError):
            TwoModeDensityMatrix(bands={(0, 0): diagonal, (1, 0): coherence}, cutoff=2)

    def test_rejects_mirror_band_that_is_not_the_conjugate(self):
        bands = dict(noon_state(1, cutoff=3).bands)
        bands[(1, -1)] = bands[(1, -1)] * 1j
        # <0,1|rho|1,0> must be conj(0.5j) = -0.5j, not 0.5j
        bands[(-1, 1)] = bands[(-1, 1)] * 1j
        with pytest.raises(ValueError, match="Hermitian"):
            TwoModeDensityMatrix(bands=bands, cutoff=3)

    @pytest.mark.parametrize("offset,ket", [((1, 0), (0, 2)), ((-1, 0), (3, 2))])
    def test_rejects_entry_whose_bra_leaves_the_space(self, offset, ket):
        # band d at ket n is <n|rho|n - d>; here n - d has n1 = -1 or 4, outside
        # 0..3, and band -d is present and zero where its bra stays inside
        bands = dict(noon_state(1, cutoff=3).bands)
        bands[offset] = np.zeros((4, 4), dtype=complex)
        bands[offset][ket] = 1e-6
        bands[(-offset[0], 0)] = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            TwoModeDensityMatrix(bands=bands, cutoff=3)

    def test_rejects_wrong_trace(self):
        diagonal = np.zeros((3, 3), dtype=complex)
        diagonal[0, 0] = 0.7
        with pytest.raises(ValueError):
            TwoModeDensityMatrix(bands={(0, 0): diagonal}, cutoff=2)

    def test_rejects_shape_mismatch(self):
        diagonal = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            TwoModeDensityMatrix(bands={(0, 0): diagonal}, cutoff=2)

    @pytest.mark.parametrize("offset", [(0, 0), (1, -1)])
    def test_rejects_nan_band(self, offset):
        bands = dict(noon_state(1, cutoff=3).bands)
        bands[offset] = bands[offset].copy()
        bands[offset][1, 0] = np.nan  # a population, then the |1,0><0,1| coherence
        with pytest.raises(ValueError):
            TwoModeDensityMatrix(bands=bands, cutoff=3)


class TestRealStates:
    """Real states keep real bands; a complex state stays complex and agrees."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: thermal_two_mode(2.0, 72),
            lambda: project_magic(thermal_two_mode(2.0, 72), 3),
            lambda: noon_state(2, 8),
        ],
        ids=["thermal", "projected", "noon"],
    )
    def test_built_states_are_real(self, build):
        assert {b.dtype for b in build().bands.values()} == {np.dtype(np.float64)}

    def test_complex_input_stays_complex(self):
        rho = complex_copy(noon_state(2, 8))
        assert {b.dtype for b in rho.bands.values()} == {np.dtype(np.complex128)}
        projected = project_magic(complex_copy(thermal_two_mode(0.5, 30)), 2)
        assert {b.dtype for b in projected.bands.values()} == {
            np.dtype(np.complex128)
        }

    def test_integer_bands_turn_float(self):
        bands = {(0, 0): np.diag([1, 0, 0])}
        rho = TwoModeDensityMatrix(bands=bands, cutoff=2)
        assert rho.bands[(0, 0)].dtype == np.float64

    def test_complex_copy_projects_alike(self):
        rho = thermal_two_mode(2.0, 72)
        real, cplx = project_magic(rho, 3), project_magic(complex_copy(rho), 3)
        assert cplx.projection_norm == pytest.approx(real.projection_norm, rel=1e-14)
        assert real.bands.keys() == cplx.bands.keys()
        for offset, band in real.bands.items():
            np.testing.assert_allclose(cplx.bands[offset], band, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_complex_copy_gives_the_same_rows(self, order):
        rows = np.random.default_rng(order).uniform(-7.0, 7.0, size=(9, order))
        thermal = thermal_two_mode(2.0, 72)
        for rho in (thermal, project_magic(thermal, 3)):
            np.testing.assert_allclose(
                g_detectors(complex_copy(rho), rows),
                g_detectors(rho, rows),
                rtol=1e-14,
                atol=0,
            )

    def test_complex_copy_gives_the_same_report(self, monkeypatch):
        grid = np.linspace(0.0, 2 * math.pi, 9)
        real = verify_isomorphism(2.0, 3, 3, grid)
        thermal = fockstate.thermal_two_mode
        monkeypatch.setattr(
            fockstate, "thermal_two_mode", lambda *a: complex_copy(thermal(*a))
        )
        cplx = verify_isomorphism(2.0, 3, 3, grid)
        for name in ("projection_norm", "noon_overlap"):
            assert getattr(cplx, name) == pytest.approx(getattr(real, name), rel=1e-14)
        for name in ("lhs", "rhs"):
            np.testing.assert_allclose(
                getattr(cplx, name), getattr(real, name), rtol=1e-14, atol=0
            )
        # the gaps are relative already: they agree to 1e-14 absolutely
        np.testing.assert_allclose(cplx.relative_gaps, real.relative_gaps, atol=1e-14)
        same = ("nbar", "m1", "m2", "cutoff", "trunc_tail", "support_offsets", "deltas")
        assert [getattr(cplx, n) for n in same] == [getattr(real, n) for n in same]

    @pytest.mark.parametrize(
        "kind,step",
        [("real", 1.0), ("real", -1.0), ("complex", 1.0), ("complex", 1j)],
        ids=["real-up", "real-down", "complex-real-part", "complex-imaginary-part"],
    )
    @pytest.mark.parametrize("mismatch,hermitian", [(2e-10, False), (5e-11, True)])
    def test_hermitian_check_at_its_edge(self, kind, step, mismatch, hermitian):
        # |<1,0|rho|0,1> - conj(<0,1|rho|1,0>)| is the mismatch; 1e-10 is the edge
        rho = noon_state(1, cutoff=3)
        rho = complex_copy(rho) if kind == "complex" else rho
        bands = {d: b.copy() for d, b in rho.bands.items()}
        bands[(1, -1)][1, 0] += step * mismatch
        assert fockstate._is_hermitian(bands, 4) is hermitian
        if hermitian:
            TwoModeDensityMatrix(bands=bands, cutoff=3)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                TwoModeDensityMatrix(bands=bands, cutoff=3)

    def test_verify_isomorphism_peaks_below_six_real_bands(self):
        # rho, the three bands of A rho A+ and the scratch band of project_magic
        # or one Hermitian-check gap: about 5 bands of 601**2 * 8 bytes
        grid = np.linspace(0.0, 2 * math.pi, 9)
        tracemalloc.start()
        try:
            verify_isomorphism(2.0, 2, 2, grid, cutoff=600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 601**2 * 8


class TestProjectMagic:
    @pytest.mark.parametrize("m2", [1, 2, 3])
    def test_support_pattern(self, m2):
        # the projected state lives on photon-exchange sidebands only
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), m2)
        offsets = rho.support_offsets()
        assert offsets == {(0, 0), (m2, -m2), (-m2, m2)}

    def test_projected_state_is_physical(self):
        rho = project_magic(thermal_two_mode(0.5, cutoff=24), 2)
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
        assert min_eigenvalue(rho) >= -1e-10

    @pytest.mark.parametrize("nbar", [0.25, 0.5, 1.0])
    def test_projection_norm_pair_comb(self, nbar):
        # tr[A rho A+] = 4 nbar**2 for the two-photon comb on thermal light
        cutoff = default_cutoff(nbar, 2, 2) + 10
        rho = project_magic(thermal_two_mode(nbar, cutoff=cutoff), 2)
        assert rho.projection_norm == pytest.approx(4 * nbar**2, rel=1e-6)

    def test_projection_norm_single_comb(self):
        # tr[A rho A+] = 2 nbar for the one-photon comb
        rho = project_magic(thermal_two_mode(0.5, cutoff=40), 1)
        assert rho.projection_norm == pytest.approx(1.0, rel=1e-6)

    def test_vacuum_cannot_be_projected(self):
        with pytest.raises(ZeroProbabilityError):
            project_magic(thermal_two_mode(0.0, cutoff=8), 2)

    def test_rejects_bad_comb_size(self):
        rho = thermal_two_mode(0.5, cutoff=16)
        with pytest.raises(ValueError):
            project_magic(rho, 0)
        with pytest.raises(TruncationError):
            project_magic(rho, 17)


class TestCorrelations:
    def test_matches_pathsum_on_thermal_pair(self):
        # cross-route check: Fock trace against the partition sum
        rho = thermal_two_mode(1.0, cutoff=36)
        sources = SourceArray()
        for deltas in ((0.0, 0.0), (0.7, 0.0), (2.1, 1.1)):
            expected = correlation_pathsum(sources, deltas)
            assert g_detectors(rho, deltas) == pytest.approx(expected, rel=1e-5)

    def test_full_colocated_correlation_matches_closed_form(self):
        rho = thermal_two_mode(1.0, cutoff=40)
        layout = DetectorLayout.colocated(2, 2)
        for delta in (0.0, 0.9, 2.5):
            got = g_detectors(rho, tuple(layout.detector_phases(delta)))
            assert got == pytest.approx(closed_form(layout).g(delta), rel=1e-6)

    def test_moving_pair_on_raw_thermal_is_flat(self):
        # without the fixed-comb projection the moving product shows no
        # interference: 2! * (2 nbar)**2 at every phase
        rho = thermal_two_mode(1.0, cutoff=36)
        for delta in (0.0, 0.9, 2.5):
            assert g_detectors(rho, [delta] * 2) == pytest.approx(8.0, rel=1e-6)

    @pytest.mark.parametrize(
        "owner,name",
        [(fockstate, "g_moving"), (TwoModeDensityMatrix, "diagonal_part")],
        ids=["g_moving", "diagonal_part"],
    )
    def test_one_name_per_result(self, owner, name):
        # stacked phases go through g_detectors; a diagonal state is built inline
        assert not hasattr(owner, name)
        assert name not in thermalnoon.__all__

    def test_moving_power_guards(self):
        rho = thermal_two_mode(0.5, cutoff=16)
        with pytest.raises(TruncationError):
            g_detectors(rho, [0.0] * 17)

    def test_trace_builds_no_band(self):
        # the trace reads views of rho's bands: it allocates less than one band
        rho = thermal_two_mode(5.0, cutoff=600)
        deltas = 0.7 * np.arange(4)
        g_detectors(rho, deltas)
        tracemalloc.start()
        try:
            g_detectors(rho, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 601**2 * 8

    @pytest.mark.parametrize("order", [0, 1, 4, 5])
    @pytest.mark.parametrize("name", ["thermal", "projected", "noon"])
    def test_rows_equal_single_calls(self, name, order):
        # one moment table for every row, each row to the bit of its own call
        # and of the per-phase loop, on comb phases and on arbitrary ones
        rho = {
            "thermal": lambda: thermal_two_mode(1.0, 36),
            "projected": lambda: project_magic(thermal_two_mode(1.0, 36), 3),
            "noon": lambda: noon_state(2, 8),
        }[name]()
        rows = np.random.default_rng(order).uniform(-7.0, 7.0, size=(11, order))
        if order:
            layout = DetectorLayout.colocated(order // 2, order - order // 2)
            rows = np.vstack([rows, layout.detector_phases(np.linspace(0, 7, 9))])
        values = g_detectors(rho, rows)
        assert isinstance(values, np.ndarray) and values.shape == (len(rows),)
        singles = [g_detectors(rho, row) for row in rows]
        assert all(type(v) is float for v in singles)
        assert values.tolist() == singles
        assert singles == [per_phase_trace(rho, row) for row in rows]

    @pytest.mark.parametrize("order", [1, 2, 5, 12, 30])
    def test_recurrence_matches_convolution(self, order):
        # e_p(w) against np.convolve of (1, w_j), which rounds differently; for
        # unit w_j the terms of e_p sum to C(M, p) in modulus, the scale of its
        # rounding, and on comb phases e_p itself is 0 for most p
        rng = np.random.default_rng(order)
        rows = [rng.uniform(-7.0, 7.0, size=order) for _ in range(5)]
        layouts = [DetectorLayout.colocated(order // 2, order - order // 2)]
        if order % 2 == 0:
            layouts.append(DetectorLayout.spread(order // 2))
        for layout in layouts:
            rows.extend(layout.detector_phases(np.linspace(0.0, 7.0, 5)))
        er, ei = fockstate._field_coefficients(np.array(rows))
        scale = np.array([math.comb(order, p) for p in range(order + 1)])
        for k, row in enumerate(rows):
            e = [1.0]
            for delta in row:
                e = np.convolve(e, [1.0, np.exp(-1j * delta)])
            assert (np.abs(er[:, k] + 1j * ei[:, k] - e) <= 1e-14 * scale).all()

    def test_one_table_per_call(self, monkeypatch):
        calls = []
        moments = fockstate._moments
        monkeypatch.setattr(
            fockstate, "_moments", lambda *a: calls.append(a[1]) or moments(*a)
        )
        g_detectors(thermal_two_mode(0.5, 20), np.zeros((40, 3)))
        assert calls == [[(3, 0), (2, 1), (1, 2), (0, 3)]]

    def test_order_above_cutoff_is_refused_before_any_band_product(
        self, monkeypatch
    ):
        rho = thermal_two_mode(0.01, cutoff=3)
        for name in ("_moments", "_sandwich"):
            monkeypatch.setattr(fockstate, name, None)  # a call would be a TypeError
        with pytest.raises(TruncationError):
            g_detectors(rho, np.zeros((5, 4)))
        with pytest.raises(TruncationError):
            verify_isomorphism(0.01, 2, 2, [0.0, 1.0], cutoff=3)

    def test_no_moving_detectors_scan_the_trace(self):
        rho = thermal_two_mode(0.5, 30)
        values = g_detectors(rho, np.empty((4, 0)))
        assert values.tolist() == [g_detectors(rho, [])] * 4
        assert values[0] == pytest.approx(rho.trace(), rel=1e-14)
        report = verify_isomorphism(0.5, 0, 2, np.linspace(0.0, 2 * math.pi, 5))
        assert len(set(report.lhs)) == len(set(report.rhs)) == 1
        assert report.rhs[0] == pytest.approx(report.projection_norm, rel=1e-14)
        assert report.max_relative_gap < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_non_finite_phases_are_refused_before_any_band_product(
        self, monkeypatch, bad, at
    ):
        rho = thermal_two_mode(0.5, 20)
        for name in ("_moments", "_sandwich"):
            monkeypatch.setattr(fockstate, name, None)  # a call would be a TypeError
        deltas = [0.1, 0.3]
        deltas[at] = bad
        with pytest.raises(ValueError, match="deltas must be finite"):
            g_detectors(rho, deltas)
        with pytest.raises(ValueError, match="deltas must be finite"):
            g_detectors(rho, np.array([[0.2, 0.4], deltas]))
        with pytest.raises(ValueError, match="deltas must be finite"):
            verify_isomorphism(0.5, 2, 2, deltas)

    def test_isomorphism_refuses_a_non_finite_grid_before_building_the_state(
        self, monkeypatch
    ):
        # a call would be a TypeError, not the ValueError that names the grid
        monkeypatch.setattr(fockstate, "thermal_two_mode", None)
        refused = re.escape("deltas must be finite: [0.3, nan]")
        with pytest.raises(ValueError, match=refused):
            verify_isomorphism(0.5, 2, 2, [0.3, math.nan], cutoff=1000)

    @pytest.mark.parametrize("deltas", [0.3, np.zeros((2, 2, 2))])
    def test_rejects_a_scalar_or_a_3d_array(self, deltas):
        with pytest.raises(ValueError, match="deltas"):
            g_detectors(thermal_two_mode(0.5, 20), deltas)

    def test_high_order_stays_finite(self):
        # co-located detectors see the one thermal mode (a1 + w a2)/sqrt(2), so
        # G = 2**M M! nbar**M; the squared ladder elements alone overflow here
        order, nbar = 118, 2.0
        rho = thermal_two_mode(nbar, default_cutoff(nbar, 59, 59))
        expected = float(2**order * math.factorial(order)) * nbar**order
        got = g_detectors(rho, [0.3] * order)
        assert got == pytest.approx(expected, rel=TAIL_LIMIT)


DENSE_STATES = {
    "thermal": lambda: thermal_two_mode(0.05, cutoff=6),
    "noon": lambda: noon_state(2, cutoff=5),
    "random": lambda: random_state(5, seed=3),
}


class TestDenseReference:
    """The band algebra against dense ((cutoff+1)**2)-square operators.

    The random state has weight on every band, so the bands a trace skips
    are really zero in the dense product; operator powers up to the cutoff
    push kets past it, where the dense truncated product is the reference.
    """

    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("name", DENSE_STATES)
    def test_g_detectors(self, name, order):
        rho = DENSE_STATES[name]()
        a1, a2 = lowering_pair(rho.cutoff)
        deltas = 0.3 + 0.9 * np.arange(order)
        b = np.eye(a1.shape[0])
        for d in deltas:
            b = b @ (a1 + np.exp(-1j * d) * a2)
        expected = np.trace(b @ dense(rho) @ b.conj().T).real
        assert g_detectors(rho, deltas) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m2", [1, 2, 4])
    @pytest.mark.parametrize("name", DENSE_STATES)
    def test_project_magic(self, name, m2):
        rho = DENSE_STATES[name]()
        a1, a2 = lowering_pair(rho.cutoff)
        power = np.linalg.matrix_power
        a = power(a1, m2) + comb_sign(m2) * power(a2, m2)
        expected = a @ dense(rho) @ a.conj().T
        norm = np.trace(expected).real
        if norm < 1e-30:  # the N00N state holds two photons, not four
            with pytest.raises(ZeroProbabilityError):
                project_magic(rho, m2)
            return
        projected = project_magic(rho, m2)
        assert projected.projection_norm == pytest.approx(norm, rel=1e-12)
        np.testing.assert_allclose(
            dense(projected) * norm, expected, rtol=0, atol=1e-12 * norm
        )


ORACLE_LAYOUTS = {
    "spread3": DetectorLayout.spread(3),
    "colocated5_2": DetectorLayout.colocated(5, 2),
    "custom": DetectorLayout(
        fixed_phases=tuple(magic_positions(3)), moving_offsets=(0.0, math.pi)
    ),
}


class TestOracleTolerance:
    @pytest.mark.parametrize("name", ORACLE_LAYOUTS)
    @pytest.mark.parametrize("nbar,cutoff", [(0.5, 60), (1.0, 90), (2.0, 140)])
    def test_matches_permanent(self, nbar, cutoff, name):
        # the Fock route at explicit cutoffs against the certified permanent
        rho = thermal_two_mode(nbar, cutoff)
        sources = SourceArray.equidistant(2, nbar)
        for delta1 in (0.3, 1.7, 4.0):
            deltas = ORACLE_LAYOUTS[name].detector_phases(delta1)
            expected = correlation_permanent(sources, deltas)
            gap = abs(g_detectors(rho, deltas) - expected)
            assert gap <= ORACLE_TOLERANCE * abs(expected)


class TestNoonContent:
    def test_pure_noon_reference(self):
        rho = noon_state(2, cutoff=8)
        assert noon_overlap(rho, 2) == pytest.approx(1.0, abs=1e-12)
        # stripping the coherences leaves exactly half the overlap
        diagonal = TwoModeDensityMatrix({(0, 0): rho.bands[(0, 0)]}, rho.cutoff)
        assert noon_overlap(diagonal, 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m2", [2, 3])
    def test_pure_noon_modulation(self, m2):
        # m2-photon interference: full-depth cosine at m2 times the phase
        rho = noon_state(m2, cutoff=8)
        norm = math.factorial(m2)
        for delta in (0.0, 0.4, 1.3, 2.9):
            expected = norm * (1.0 + (-1.0) ** (m2 - 1) * math.cos(m2 * delta))
            got = g_detectors(rho, [delta] * m2)
            assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("m2", [2, 3])
    def test_pure_noon_at_its_own_cutoff(self, m2):
        # lowering moves offsets past the cutoff: those bands are empty
        tight, roomy = noon_state(m2, cutoff=m2), noon_state(m2, cutoff=8)
        for delta in (0.0, 0.4, 1.3):
            expected = g_detectors(roomy, [delta] * m2)
            got = g_detectors(tight, [delta] * m2)
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.1, 0.5])
    def test_projected_thermal_overlap_closed_form(self, nbar):
        # overlap with the two-photon comb state: 4 nbar**2 / (1+nbar)**6
        rho = project_magic(thermal_two_mode(nbar, cutoff=34), 2)
        expected = 4 * nbar**2 / (1 + nbar) ** 6
        assert noon_overlap(rho, 2) == pytest.approx(expected, rel=1e-6)

    def test_coherent_exceeds_diagonal_weight(self):
        # the off-diagonal lobes carry genuine coherence
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), 2)
        diagonal = TwoModeDensityMatrix({(0, 0): rho.bands[(0, 0)]}, rho.cutoff)
        assert noon_overlap(rho, 2) > noon_overlap(diagonal, 2)

    def test_overlap_bounds(self):
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), 2)
        assert 0.0 <= noon_overlap(rho, 2) <= 1.0 + 1e-12

    def test_occupation_above_cutoff_is_refused(self):
        rho = noon_state(2, cutoff=8)
        with pytest.raises(TruncationError, match="Fock cutoff 8"):
            noon_overlap(rho, rho.cutoff + 1)


class TestCountsMustBeIntegers:
    # a bool or a float is not a photon or detector count
    @pytest.mark.parametrize("m2", [True, 2.0])
    def test_project_magic(self, m2):
        with pytest.raises(ValueError, match="m2 must be an integer"):
            project_magic(thermal_two_mode(0.5, cutoff=16), m2)

    @pytest.mark.parametrize("m2", [True, 2.0])
    def test_noon_overlap(self, m2):
        with pytest.raises(ValueError, match="m2 must be an integer"):
            noon_overlap(noon_state(2, cutoff=8), m2)

    @pytest.mark.parametrize(
        "m2,cutoff,name",
        [(True, 5, "m2"), (2.5, 5, "m2"), (2, True, "cutoff"), (2, 5.0, "cutoff")],
    )
    def test_noon_state(self, m2, cutoff, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            noon_state(m2, cutoff)

    def test_noon_state_needs_room_for_its_photons(self):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 3"):
            noon_state(3, 2)


class TestIsomorphism:
    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 2), (3, 3), (3, 2)])
    def test_projection_then_measurement_commutes(self, m1, m2):
        report = verify_isomorphism(0.5, m1, m2, [0.7])
        assert report.max_relative_gap < 1e-6
        assert report.projection_norm > 0

    def test_matches_closed_form_scale_at_unit_brightness(self):
        report = verify_isomorphism(1.0, 2, 2, [0.9, 2.1], cutoff=36)
        form = closed_form(DetectorLayout.colocated(2, 2))
        for delta1, lhs in zip(report.deltas, report.lhs):
            assert lhs == pytest.approx(form.g(delta1), rel=1e-4)

    def test_report_records_inputs(self):
        report = verify_isomorphism(0.5, 2, 2, [0.3])
        assert (report.m1, report.m2) == (2, 2)
        assert report.nbar == 0.5
        assert report.cutoff == default_cutoff(0.5, 2, 2)
        assert report.trunc_tail < 1e-6
        assert report.deltas == (0.3,)

    def test_a_single_phase_is_a_one_point_scan(self):
        single = verify_isomorphism(0.5, 2, 2, 0.3)
        assert single == verify_isomorphism(0.5, 2, 2, [0.3])
        assert len(single.relative_gaps) == 1

    def test_scan_matches_single_point_scans(self):
        # one state and one projection serve the whole grid, to the bit
        grid = np.linspace(0.0, 2 * math.pi, 7)
        scan = verify_isomorphism(2.0, 3, 2, grid)
        assert scan.deltas == tuple(float(d) for d in grid)
        for i, delta1 in enumerate(grid):
            at = slice(i, i + 1)
            assert verify_isomorphism(2.0, 3, 2, [delta1]) == replace(
                scan,
                deltas=scan.deltas[at],
                lhs=scan.lhs[at],
                rhs=scan.rhs[at],
                relative_gaps=scan.relative_gaps[at],
            )
        assert scan.max_relative_gap == max(scan.relative_gaps)

    def test_report_holds_the_projected_state(self):
        report = verify_isomorphism(0.5, 2, 3, [0.0, 1.0])
        projected = project_magic(thermal_two_mode(0.5, report.cutoff), 3)
        assert report.support_offsets == ((-3, 3), (0, 0), (3, -3))
        assert report.support_ok
        assert report.noon_overlap == noon_overlap(projected, 3)
        assert report.projection_norm == projected.projection_norm

    def test_support_outside_the_comb_offsets_fails(self):
        report = verify_isomorphism(0.5, 2, 2, [0.3])
        assert report.support_ok
        stray = replace(report, support_offsets=(*report.support_offsets, (1, -1)))
        assert not stray.support_ok

    @pytest.mark.parametrize("deltas", [[], [[0.1, 0.2]], np.zeros((2, 2))])
    def test_rejects_an_empty_or_nested_grid(self, deltas):
        with pytest.raises(ValueError, match="deltas"):
            verify_isomorphism(0.5, 2, 2, deltas)
