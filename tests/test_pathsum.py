import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from thermalnoon import pathsum
from thermalnoon.analytic import closed_form
from thermalnoon.errors import CapacityError, NumericalError
from thermalnoon.geometry import DetectorLayout, SourceArray, magic_positions
from thermalnoon.pathsum import (
    PATHSUM_MAX_ORDER,
    PERMANENT_MAX_ORDER,
    coherence_matrix,
    correlation_pathsum,
    correlation_permanent,
    correlation_permanent_bounded,
    enumerate_partitions,
)


def permanent(matrix):
    # the blocked Glynn sum without its error bound
    value, _ = pathsum._glynn(matrix)
    return value


def brute_force_permanent(matrix):
    # reference oracle: direct sum over all column permutations
    n = matrix.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for row, col in enumerate(perm):
            term *= matrix[row, col]
        total += term
    return total


def exact(x):
    return Fraction(*x.as_integer_ratio())


def exact_permanent(matrix):
    # the permanent of the matrix as stored, in rational arithmetic
    n = matrix.shape[0]
    re = [[exact(v.real) for v in row] for row in matrix]
    im = [[exact(v.imag) for v in row] for row in matrix]
    total_re = total_im = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term_re, term_im = Fraction(1), Fraction(0)
        for row, col in enumerate(perm):
            a, b = re[row][col], im[row][col]
            term_re, term_im = term_re * a - term_im * b, term_re * b + term_im * a
        total_re += term_re
        total_im += term_im
    return total_re, total_im


def brute_force_correlation(sources, deltas):
    # reference oracle: expand the partition sum with raw permutation
    # counting (each distinct arrangement once, multiplicity in the weight)
    order = len(deltas)
    total = 0.0
    for partition in enumerate_partitions(sources.count, order):
        weight = 1.0
        labels = []
        for source, count in enumerate(partition):
            weight *= math.factorial(count) * sources.nbar[source] ** count
            labels.extend([source] * count)
        seen = set()
        amplitude = 0.0 + 0.0j
        for arrangement in itertools.permutations(labels):
            if arrangement in seen:
                continue
            seen.add(arrangement)
            phase = sum(a * d for a, d in zip(arrangement, deltas))
            amplitude += complex(math.cos(phase), math.sin(phase))
        total += weight * abs(amplitude) ** 2
    return total


class TestEnumeratePartitions:
    def test_two_sources_order_two(self):
        assert enumerate_partitions(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_single_source(self):
        assert enumerate_partitions(1, 5) == [(5,)]

    @pytest.mark.parametrize("count,order", [(2, 4), (3, 3), (4, 2), (3, 6)])
    def test_counts_and_sums(self, count, order):
        partitions = enumerate_partitions(count, order)
        assert len(partitions) == math.comb(order + count - 1, count - 1)
        assert len(set(partitions)) == len(partitions)
        for partition in partitions:
            assert len(partition) == count
            assert sum(partition) == order
            assert all(n >= 0 for n in partition)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_descending_order_gives_ascending_split_keys(self, count):
        # _split_amplitudes bins splits by searchsorted on these keys
        for order in range(9):
            partitions = enumerate_partitions(count, order)
            assert partitions == sorted(partitions, reverse=True)
            key_of = -((order + 1) ** np.arange(count - 1, -1, -1))
            keys = (np.array(partitions) * key_of).sum(axis=1)
            assert np.all(np.diff(keys) > 0)

    def test_zero_photons_has_single_empty_split(self):
        assert enumerate_partitions(3, 0) == [(0, 0, 0)]

    @pytest.mark.parametrize("count,order", [(0, 2), (-1, 3), (2, -1)])
    def test_rejects_degenerate_shapes(self, count, order):
        with pytest.raises(ValueError):
            enumerate_partitions(count, order)


class TestMultisetPhaseSum:
    def test_all_same_label_is_single_arrangement(self):
        # only one distinct arrangement, so the sum is a pure phase
        deltas = (0.4, 1.3, 2.2)
        value = pathsum._split_amplitudes((1,), deltas)[(3,)]
        assert value == pytest.approx(np.exp(1j * sum(deltas)), abs=1e-12)

    def test_zero_labels_give_unity(self):
        value = pathsum._split_amplitudes((0,), (0.1, 0.9, 3.0, 5.5))[(4,)]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_balanced_pair_cancels_at_magic_positions(self):
        # the {0,1} multiset interferes destructively on the magic comb
        value = pathsum._split_amplitudes((0, 1), tuple(magic_positions(2)))[(1, 1)]
        assert abs(value) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_uniform_multiset_on_magic_comb_alternates_sign(self, m):
        # sum of the comb is pi*(m-1), so the lone arrangement carries
        # the parity factor (-1)**(m-1)
        value = pathsum._split_amplitudes((1,), tuple(magic_positions(m)))[(m,)]
        assert value == pytest.approx((-1.0) ** (m - 1), abs=1e-12)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            order = int(rng.integers(2, 7))
            labels = tuple(int(v) for v in rng.integers(0, 3, size=order))
            deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
            seen = set()
            expected = 0.0 + 0.0j
            for arrangement in itertools.permutations(labels):
                if arrangement in seen:
                    continue
                seen.add(arrangement)
                expected += np.exp(
                    1j * sum(a * d for a, d in zip(arrangement, deltas))
                )
            values = sorted(set(labels))
            split = tuple(labels.count(v) for v in values)
            assert pathsum._split_amplitudes(values, deltas)[split] == pytest.approx(
                expected, abs=1e-10
            )

    def test_modulus_bounded_by_arrangement_count(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            order = int(rng.integers(2, 7))
            labels = tuple(int(v) for v in rng.integers(0, 4, size=order))
            deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
            counts = Counter(labels)
            arrangements = math.factorial(order)
            for repeat in counts.values():
                arrangements //= math.factorial(repeat)
            values = sorted(counts)
            split = tuple(counts[v] for v in values)
            value = pathsum._split_amplitudes(values, deltas)[split]
            assert abs(value) <= arrangements + 1e-9

    def test_rejects_length_mismatch(self):
        # a split of two photons has no paths over one detector
        with pytest.raises(KeyError):
            pathsum._split_amplitudes((0, 1), (0.0,))[(1, 1)]


class TestCorrelationPathsum:
    def test_balanced_pair_at_coincident_detectors(self):
        sources = SourceArray()
        assert correlation_pathsum(sources, (0.0, 0.0)) == pytest.approx(8.0)

    def test_single_source_is_factorial(self):
        sources = SourceArray(nbar=(1.0,))
        assert correlation_pathsum(sources, (0.3, 1.1, 2.9)) == pytest.approx(6.0)

    @pytest.mark.parametrize("delta", [0.0, 0.4, math.pi / 2, math.pi, 4.0])
    def test_pair_correlation_is_hbt_curve(self, delta):
        # two balanced sources, two detectors: G2 = 6 + 2 cos(delta)
        sources = SourceArray()
        value = correlation_pathsum(sources, (delta, 0.0))
        assert value == pytest.approx(6.0 + 2.0 * math.cos(delta), rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_coincident_detectors_closed_form(self, order):
        # all detectors on top of each other: G = M! * 2**M for a
        # balanced pair, independent of the common position
        sources = SourceArray()
        for delta in (0.0, 0.7, 2.9):
            value = correlation_pathsum(sources, (delta,) * order)
            assert value == pytest.approx(
                math.factorial(order) * 2.0**order, rel=1e-12
            )

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_single_source_has_no_interference(self, order):
        # one source: every arrangement shares one phase, G = M! * nbar**M
        rng = np.random.default_rng(order)
        sources = SourceArray(nbar=(0.7,))
        deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
        assert correlation_pathsum(sources, deltas) == pytest.approx(
            math.factorial(order) * 0.7**order, rel=1e-12
        )

    def test_spread_comb_fourth_order(self):
        sources = SourceArray()
        layout = DetectorLayout.spread(2)
        value = correlation_pathsum(sources, tuple(layout.detector_phases(math.pi / 4)))
        assert value == pytest.approx(56.0, rel=1e-12)

    def test_magic_pair_second_order(self):
        sources = SourceArray()
        value = correlation_pathsum(sources, tuple(magic_positions(2)))
        assert value == pytest.approx(4.0, rel=1e-12)

    def test_detector_permutation_invariance(self):
        rng = np.random.default_rng(17)
        sources = SourceArray(nbar=(0.5, 1.0, 2.0))
        deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=4))
        reference = correlation_pathsum(sources, deltas)
        for _ in range(5):
            shuffled = tuple(rng.permutation(deltas))
            assert correlation_pathsum(sources, shuffled) == pytest.approx(
                reference, rel=1e-12
            )

    def test_two_pi_periodicity(self):
        sources = SourceArray()
        deltas = (0.3, 1.7, 4.4)
        shifted = tuple(d + 2 * math.pi for d in deltas)
        assert correlation_pathsum(sources, shifted) == pytest.approx(
            correlation_pathsum(sources, deltas), rel=1e-9
        )

    def test_nonnegative_on_random_configs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            count = int(rng.integers(1, 4))
            order = int(rng.integers(1, 6))
            sources = SourceArray(
                nbar=tuple(float(v) for v in rng.uniform(0.2, 2.5, size=count))
            )
            deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
            assert correlation_pathsum(sources, deltas) >= 0.0

    def test_matches_brute_force_expansion(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            count = int(rng.integers(1, 4))
            order = int(rng.integers(1, 6))
            sources = SourceArray(
                nbar=tuple(float(v) for v in rng.uniform(0.2, 2.5, size=count))
            )
            deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
            assert correlation_pathsum(sources, deltas) == pytest.approx(
                brute_force_correlation(sources, deltas), rel=1e-10
            )

    def test_order_capacity_guard(self):
        sources = SourceArray()
        with pytest.raises(CapacityError) as err:
            correlation_pathsum(sources, (0.0,) * (PATHSUM_MAX_ORDER + 1))
        assert "correlation_permanent" in str(err.value)

    def test_rejects_empty_detectors(self):
        with pytest.raises(ValueError):
            correlation_pathsum(SourceArray(), ())


class TestBlockedPathSum:
    # K**M paths split into one block of the last b detectors, K**b <=
    # _PATH_BLOCK, per source prefix of the leading M - b detectors: b = 0,
    # 1, 3 and M.
    @pytest.mark.parametrize("count,order", [(2, 7), (3, 6), (4, 4)])
    def test_block_size_does_not_change_the_value(self, monkeypatch, count, order):
        rng = np.random.default_rng(10 * count + order)
        sources = SourceArray(
            nbar=tuple(float(v) for v in rng.uniform(0.2, 2.5, size=count))
        )
        deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
        reference = correlation_pathsum(sources, deltas)
        for block in (1, count, count**3, count**order + 1):
            monkeypatch.setattr(pathsum, "_PATH_BLOCK", block)
            assert correlation_pathsum(sources, deltas) == pytest.approx(
                reference, rel=1e-14
            )

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7])
    def test_three_sources_match_brute_force(self, order):
        rng = np.random.default_rng(60 + order)
        sources = SourceArray(
            nbar=tuple(float(v) for v in rng.uniform(0.2, 2.5, size=3))
        )
        deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
        assert correlation_pathsum(sources, deltas) == pytest.approx(
            brute_force_correlation(sources, deltas), rel=1e-10
        )

    def test_traced_memory_is_bounded_by_the_block(self):
        # 4**12 = 16.8M paths would take 268 MB as one complex array
        sources = SourceArray.equidistant(4)
        deltas = tuple(magic_positions(12))
        tracemalloc.start()
        try:
            value = correlation_pathsum(sources, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert value == pytest.approx(correlation_permanent(sources, deltas), rel=1e-9)

    def test_split_keys_must_fit_int64(self):
        # keys sum_l n_l * (M+1)**l: 3**39 fits in int64, 3**40 does not
        deltas = (0.3, 1.2)
        value = correlation_pathsum(SourceArray.equidistant(39), deltas)
        assert value == pytest.approx(
            correlation_permanent(SourceArray.equidistant(39), deltas), rel=1e-12
        )
        with pytest.raises(CapacityError):
            correlation_pathsum(SourceArray.equidistant(40), deltas)


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(4, dtype=complex)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_ones_is_factorial(self, n):
        matrix = np.ones((n, n), dtype=complex)
        assert permanent(matrix) == pytest.approx(math.factorial(n), rel=1e-12)

    def test_two_by_two(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert permanent(matrix) == pytest.approx(10.0)

    def test_matches_brute_force_on_random_complex(self):
        rng = np.random.default_rng(41)
        for n in (3, 4, 5, 6):
            matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            expected = brute_force_permanent(matrix)
            assert permanent(matrix) == pytest.approx(expected, rel=1e-10)


class TestBlockedRyser:
    # The first column's sign is fixed, so n = 7 and 8 with 1 or 3 low
    # columns draw 5 to 6 or 3 to 4 high columns from the half tables; with
    # 8 low columns the same sizes, and n = 1, have no high columns at all.
    @pytest.mark.parametrize(
        "low_columns,n",
        [(1, 7), (1, 8), (3, 7), (3, 8), (8, 1), (8, 7), (8, 8)],
    )
    def test_matches_brute_force(self, monkeypatch, low_columns, n):
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", low_columns)
        rng = np.random.default_rng(100 + n)
        matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        value = permanent(matrix)
        assert isinstance(value, complex)
        assert value == pytest.approx(brute_force_permanent(matrix), rel=1e-10)

    def test_empty_matrix_has_unit_permanent(self):
        assert permanent(np.zeros((0, 0), dtype=complex)) == 1

    def test_zero_row_gives_zero(self):
        matrix = np.ones((5, 5), dtype=complex)
        matrix[2] = 0.0
        assert pathsum._glynn(matrix) == (0, 0.0)

    def test_row_sums_lie_within_the_assumed_error(self, monkeypatch):
        # the error bound assumes |computed g_i - exact g_i| <= n eps rho_i;
        # two low columns leave four high ones, split over both half tables
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", 2)
        n = 7
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        matrix[0] *= 1e-12
        matrix[1, 2] = 1e-30
        matrix /= 3  # fills every significand bit
        eps = np.finfo(float).eps
        allowed = [Fraction(n * eps * rho) ** 2 for rho in np.abs(matrix).sum(axis=1)]
        re = [[exact(v.real) for v in row] for row in matrix]
        im = [[exact(v.imag) for v in row] for row in matrix]
        width = 1 << 2
        rounded = k = 0
        for k, (rows, parity) in enumerate(pathsum._sign_blocks(matrix), 1):
            for c in range(width):
                number = c + (k - 1) * width
                signs = [1] + [-1 if number >> j & 1 else 1 for j in range(n - 1)]
                assert parity[c] == math.prod(signs)
                for i in range(n):
                    want_re = sum(s * v for s, v in zip(signs, re[i]))
                    want_im = sum(s * v for s, v in zip(signs, im[i]))
                    off = (exact(rows[i, c].real) - want_re) ** 2 + (
                        exact(rows[i, c].imag) - want_im
                    ) ** 2
                    assert off <= allowed[i]
                    rounded += off > 0
        assert k * width == 2 ** (n - 1)
        assert rounded > 0  # the case does exercise rounding

    def test_bound_covers_the_exact_error(self):
        # a cancelling case: the coherence matrix of a co-located (4, 2) layout
        phases = DetectorLayout.colocated(4, 2).detector_phases(0.9)
        matrix = coherence_matrix(SourceArray(), phases)
        value, error = pathsum._glynn(matrix)
        want_re, want_im = exact_permanent(matrix)
        assert abs(exact(value.real) - want_re) <= Fraction(error)
        assert abs(exact(value.imag) - want_im) <= Fraction(error)
        assert error < 1e-6 * abs(float(want_re))
        # rounding scales with eps * sum |term|; a bound below that is no bound
        n = len(phases)
        signs = itertools.product((1, -1), repeat=n - 1)
        terms = [np.prod(matrix @ np.array((1,) + s)) / 2 ** (n - 1) for s in signs]
        assert error >= np.finfo(float).eps * sum(abs(t) for t in terms)

    def test_bound_covers_entry_errors(self):
        # entries known only to within 1e-6 move the permanent far more than
        # rounding does; the bound must cover that move
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        noise = 1e-6 * np.exp(2j * np.pi * rng.uniform(size=(6, 6)))
        value, error = pathsum._glynn(matrix, 1e-6)
        shift = abs(brute_force_permanent(matrix + noise) - value)
        assert shift <= error


# Fixed layouts at M = 14 ... 20.  The co-located M = 14, 16 and 18 ones are
# the benchmark's fixed exact-oracle layouts (generator seed 1).  A plain
# double-precision Ryser sum misses 1e-9 on (9, 7) and returns a visibly
# complex value on (16, 4); Glynn's sum in double certifies every one.
ORACLE_LAYOUTS = [
    (DetectorLayout.colocated(12, 2), 4.825508068727313),
    (DetectorLayout.spread(7), 1.3),
    (DetectorLayout.colocated(9, 7), 4.171168219661755),
    (DetectorLayout.colocated(3, 13), 2.5865169151616487),
    (DetectorLayout.spread(8), 0.4),
    (DetectorLayout.colocated(8, 10), 3.4512302843504057),
    (DetectorLayout.spread(9), 2.2),
    (DetectorLayout.colocated(16, 4), 0.7),
    (DetectorLayout.spread(10), 5.1),
]


class TestPermanentOracle:
    @pytest.mark.parametrize(
        "layout,delta1",
        ORACLE_LAYOUTS,
        ids=[f"M{lay.order}-{lay.m1}_{lay.m2}" for lay, _ in ORACLE_LAYOUTS],
    )
    def test_closed_form_within_bound_or_refused(self, layout, delta1):
        phases = layout.detector_phases(delta1)
        value, bound = correlation_permanent_bounded(SourceArray(), phases)
        expected = closed_form(layout).g(delta1)
        gap = abs(value - expected) / expected
        assert gap <= bound <= 1e-9

    @pytest.mark.parametrize(
        "layout,delta1", [ORACLE_LAYOUTS[2], ORACLE_LAYOUTS[5]], ids=["M16", "M18"]
    )
    def test_bound_is_honest_in_double_precision(self, monkeypatch, layout, delta1):
        # a bound above the tolerance refuses the value and names the bound
        phases = layout.detector_phases(delta1)
        _, bound = correlation_permanent_bounded(SourceArray(), phases)
        monkeypatch.setattr(pathsum, "ORACLE_TOLERANCE", bound / 2)
        with pytest.raises(NumericalError, match=f"error bound {bound:.2e} exceeds"):
            correlation_permanent(SourceArray(), phases)


class TestCoherenceMatrix:
    def test_balanced_pair_coincident(self):
        sources = SourceArray()
        matrix = coherence_matrix(sources, (0.0, 0.0))
        np.testing.assert_allclose(matrix, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)

    def test_hermitian_with_brightness_diagonal(self):
        rng = np.random.default_rng(43)
        sources = SourceArray(nbar=(0.4, 1.1, 0.8))
        deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=4))
        matrix = coherence_matrix(sources, deltas)
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.diag(matrix).real, sum(sources.nbar))


class TestCorrelationPermanent:
    def test_balanced_pair_at_coincident_detectors(self):
        assert correlation_permanent(SourceArray(), (0.0, 0.0)) == pytest.approx(8.0)

    def test_agrees_with_pathsum_on_random_configs(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            count = int(rng.integers(1, 4))
            order = int(rng.integers(1, 7))
            sources = SourceArray(
                nbar=tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], size=count))
            )
            deltas = tuple(float(v) for v in rng.uniform(0, 2 * math.pi, size=order))
            lhs = correlation_pathsum(sources, deltas)
            rhs = correlation_permanent(sources, deltas)
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_far_phases_are_refused(self):
        # phases 3 * d three million radians out round by up to 3e-10; the
        # bound must count that, and it exceeds 1e-9 here (about 5e-8)
        phases = DetectorLayout.colocated(4, 4).detector_phases(0.9) + 1e6
        with pytest.raises(NumericalError, match="error bound"):
            correlation_permanent(SourceArray.equidistant(4), phases)

    def test_order_capacity_guard(self):
        with pytest.raises(CapacityError):
            correlation_permanent(SourceArray(), (0.0,) * (PERMANENT_MAX_ORDER + 1))
