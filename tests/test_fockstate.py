import math

import numpy as np
import pytest

from thermalnoon.analytic import closed_form
from thermalnoon.errors import CapacityError, TruncationError, ZeroProbabilityError
from thermalnoon.fockstate import (
    FOCK_MAX_CUTOFF,
    TAIL_LIMIT,
    TwoModeDensityMatrix,
    default_cutoff,
    g_detectors,
    g_moving,
    noon_overlap,
    noon_state,
    project_magic,
    thermal_two_mode,
    verify_isomorphism,
)
from thermalnoon.geometry import DetectorLayout, SourceArray
from thermalnoon.pathsum import correlation_pathsum


def min_eigenvalue(rho):
    # smallest eigenvalue of the dense ((cutoff+1)**2)-square matrix; small cutoffs only
    dim = rho.cutoff + 1
    dense = np.zeros((dim, dim, dim, dim), dtype=complex)
    n1, n2 = np.indices((dim, dim))
    for (d1, d2), band in rho.bands.items():
        ok = (0 <= n1 - d1) & (n1 - d1 < dim) & (0 <= n2 - d2) & (n2 - d2 < dim)
        dense[n1[ok], n2[ok], (n1 - d1)[ok], (n2 - d2)[ok]] = band[ok]
    return float(np.linalg.eigvalsh(dense.reshape(dim * dim, dim * dim))[0])


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

    def test_certain_photons_are_refused_not_looped_on(self):
        # q = nbar / (1 + nbar) rounds to 1: no cutoff ever holds the tail
        with pytest.raises(CapacityError):
            default_cutoff(1e308, 2, 2)


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


class TestProjectMagic:
    @pytest.mark.parametrize("m2", [1, 2, 3])
    def test_support_pattern(self, m2):
        # the projected state lives on photon-exchange sidebands only
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), m2)
        offsets = rho.support_offsets(tol=1e-12)
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

    def test_g_moving_on_raw_thermal_is_flat(self):
        # without the fixed-comb projection the moving product shows no
        # interference: 2! * (2 nbar)**2 at every phase
        rho = thermal_two_mode(1.0, cutoff=36)
        for delta in (0.0, 0.9, 2.5):
            assert g_moving(rho, 2, delta) == pytest.approx(8.0, rel=1e-6)

    def test_moving_power_guards(self):
        rho = thermal_two_mode(0.5, cutoff=16)
        with pytest.raises(ValueError):
            g_moving(rho, -1, 0.0)
        with pytest.raises(TruncationError):
            g_moving(rho, 17, 0.0)


class TestNoonContent:
    def test_pure_noon_reference(self):
        rho = noon_state(2, cutoff=8)
        assert noon_overlap(rho, 2) == pytest.approx(1.0, abs=1e-12)
        # stripping the coherences leaves exactly half the overlap
        assert noon_overlap(rho.diagonal_part(), 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m2", [2, 3])
    def test_pure_noon_modulation(self, m2):
        # m2-photon interference: full-depth cosine at m2 times the phase
        rho = noon_state(m2, cutoff=8)
        norm = math.factorial(m2)
        for delta in (0.0, 0.4, 1.3, 2.9):
            expected = norm * (1.0 + (-1.0) ** (m2 - 1) * math.cos(m2 * delta))
            assert g_moving(rho, m2, delta) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("m2", [2, 3])
    def test_pure_noon_at_its_own_cutoff(self, m2):
        # lowering moves offsets past the cutoff: those bands are empty
        tight, roomy = noon_state(m2, cutoff=m2), noon_state(m2, cutoff=8)
        for delta in (0.0, 0.4, 1.3):
            expected = g_moving(roomy, m2, delta)
            assert g_moving(tight, m2, delta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.1, 0.5])
    def test_projected_thermal_overlap_closed_form(self, nbar):
        # overlap with the two-photon comb state: 4 nbar**2 / (1+nbar)**6
        rho = project_magic(thermal_two_mode(nbar, cutoff=34), 2)
        expected = 4 * nbar**2 / (1 + nbar) ** 6
        assert noon_overlap(rho, 2) == pytest.approx(expected, rel=1e-6)

    def test_coherent_exceeds_diagonal_weight(self):
        # the off-diagonal lobes carry genuine coherence
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), 2)
        assert noon_overlap(rho, 2) > noon_overlap(rho.diagonal_part(), 2)

    def test_overlap_bounds(self):
        rho = project_magic(thermal_two_mode(0.5, cutoff=30), 2)
        assert 0.0 <= noon_overlap(rho, 2) <= 1.0 + 1e-12


class TestCountsMustBeIntegers:
    # a bool or a float is not a photon or detector count
    @pytest.mark.parametrize("m2", [True, 2.0])
    def test_project_magic(self, m2):
        with pytest.raises(ValueError, match="m2 must be an integer"):
            project_magic(thermal_two_mode(0.5, cutoff=16), m2)

    @pytest.mark.parametrize("m1", [True, 2.0])
    def test_g_moving(self, m1):
        with pytest.raises(ValueError, match="m1 must be an integer"):
            g_moving(thermal_two_mode(0.5, cutoff=16), m1, 0.0)

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
        report = verify_isomorphism(0.5, m1, m2, 0.7)
        assert report.relative_gap < 1e-6
        assert report.projection_norm > 0

    def test_matches_closed_form_scale_at_unit_brightness(self):
        report = verify_isomorphism(1.0, 2, 2, 0.9, cutoff=36)
        form = closed_form(DetectorLayout.colocated(2, 2))
        assert report.lhs == pytest.approx(form.g(0.9), rel=1e-4)

    def test_report_records_inputs(self):
        report = verify_isomorphism(0.5, 2, 2, 0.3)
        assert (report.m1, report.m2) == (2, 2)
        assert report.nbar == 0.5
        assert report.trunc_tail < 1e-6
