import itertools
import math
import re
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from thermalnoon import fockstate, pathsum
from thermalnoon.analytic import closed_form
from thermalnoon.curves import CorrelationCurve
from thermalnoon.errors import CapacityError, NumericalError
from thermalnoon.fockstate import g_detectors, thermal_two_mode, verify_isomorphism
from thermalnoon.geometry import DetectorLayout, SourceArray, magic_positions
from thermalnoon.pathsum import (
    PATHSUM_MAX_TABLE,
    PERMANENT_MAX_TERMS,
    coherence_matrix,
    correlation_pathsum,
    correlation_pathsum_bounded,
    correlation_permanent,
    correlation_permanent_bounded,
)
from thermalnoon.speckle import SpeckleConfig, dominant_frequency


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


def repeated(kind, n, seed):
    # a random complex n x n matrix; "columns", "rows" or "both" repeat in
    # shuffled groups of 3, 1, 2, 1, 3, ... equal ones, and "ones" is the
    # all-ones matrix, one group of n whose permanent is n!
    rng = np.random.default_rng(seed)
    if kind == "ones":
        return np.ones((n, n), dtype=complex)
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    pattern = np.repeat(np.arange(n), np.resize([3, 1, 2, 1], n))[:n]
    if kind in ("columns", "both"):
        matrix = matrix[:, rng.permutation(pattern)]
    if kind in ("rows", "both"):
        matrix = matrix[rng.permutation(pattern)]
    return matrix


def uncentred_matrix(sources, deltas):
    # the coherence matrix with phases alpha_l * d rather than centred ones:
    # complex128 at any brightness, with the same permanent
    phases = np.asarray(deltas, dtype=float)
    matrix = np.zeros((len(phases), len(phases)), dtype=complex)
    for alpha, nbar in zip(sources.prefactors, sources.nbar):
        e = np.exp(1j * (alpha * phases))
        matrix += nbar * np.outer(e, e.conj())
    return matrix


def split_amplitudes(alphas, phases):
    # {split: amplitude} for every photon-number split, from `_split_table`,
    # with the unit phase of source K-1 that the table divides out put back
    splits, amplitudes = pathsum._split_table(alphas, phases)
    amplitudes *= np.exp(1j * alphas[-1] * math.fsum(phases))
    return dict(zip(map(tuple, splits.tolist()), amplitudes.tolist()))


def bits(array):
    # the stored bits, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(array).view(np.uint8)


def brute_force_correlation(sources, deltas):
    # reference oracle: expand the partition sum with raw permutation
    # counting (each distinct arrangement once, multiplicity in the weight)
    total = 0.0
    for labels in itertools.combinations_with_replacement(
        range(sources.count), len(deltas)
    ):
        weight = 1.0
        for source, count in Counter(labels).items():
            weight *= math.factorial(count) * sources.nbar[source] ** count
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


class TestSplitTable:
    # at zero phase every path is 1, so a split's amplitude is its path count
    def test_two_sources_order_two(self):
        amplitudes = split_amplitudes((0, 1), (0.0, 0.0))
        assert amplitudes == pytest.approx({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_single_source(self):
        deltas = (0.4, 1.3, 2.2, 0.5, 3.1)
        splits, amplitudes = pathsum._split_table((0,), deltas)
        assert splits.tolist() == [[5]]
        assert amplitudes.tolist() == [1]

    @pytest.mark.parametrize("count,order", [(2, 4), (3, 3), (4, 2), (3, 6)])
    def test_counts_and_sums(self, count, order):
        splits, amplitudes = pathsum._split_table(tuple(range(count)), (0.0,) * order)
        partitions = [tuple(split) for split in splits.tolist()]
        assert len(partitions) == math.comb(order + count - 1, count - 1)
        assert len(set(partitions)) == len(partitions)
        assert splits.shape == (len(partitions), count)
        assert (splits >= 0).all() and (splits.sum(axis=1) == order).all()
        paths = [
            math.factorial(order) // math.prod(map(math.factorial, split))
            for split in partitions
        ]
        assert amplitudes == pytest.approx(paths, rel=1e-15)
        assert sum(paths) == count**order

    def test_zero_photons_has_single_empty_split(self):
        splits, amplitudes = pathsum._split_table((0, 1, 2), ())
        assert splits.tolist() == [[0, 0, 0]]
        assert amplitudes.tolist() == [1]

    @pytest.mark.parametrize("count,order", [(2, 7), (3, 6), (4, 4)])
    def test_detector_order_does_not_change_the_value(self, count, order):
        # the recursion takes the detectors one at a time, in the order given
        rng = np.random.default_rng(10 * count + order)
        sources = SourceArray(
            nbar=tuple(float(v) for v in rng.uniform(0.2, 2.5, size=count))
        )
        deltas = rng.uniform(0, 2 * math.pi, size=order)
        reference = correlation_pathsum(sources, deltas)
        for _ in range(4):
            assert correlation_pathsum(sources, rng.permutation(deltas)) == (
                pytest.approx(reference, rel=1e-13)
            )

    @pytest.mark.parametrize("count,order", [(2, 40), (3, 20), (4, 12)])
    def test_traced_memory_is_bounded_by_the_table(self, count, order):
        # 4**12 = 16.8M paths would take 268 MB as one complex array; the
        # recursion holds a few tables of (M+1)**(K-1) complex entries
        sources = SourceArray.equidistant(count)
        layout = DetectorLayout.spread(order // 2)
        deltas = layout.detector_phases(0.9)
        tracemalloc.start()
        try:
            value = correlation_pathsum(sources, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (count + 4) * 16 * (order + 1) ** (count - 1) + 65536
        if count == 2:
            assert value == pytest.approx(closed_form(layout).g(0.9), rel=1e-12)
        else:
            expected = correlation_permanent(sources, deltas)
            assert value == pytest.approx(expected, rel=1e-9)

    def test_capacity_is_checked_before_the_table_is_built(self):
        # 33**4 entries would take 19 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                correlation_pathsum(SourceArray.equidistant(5), (0.0,) * 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestMultisetPhaseSum:
    def test_all_same_label_is_single_arrangement(self):
        # only one distinct arrangement, so the sum is a pure phase
        deltas = (0.4, 1.3, 2.2)
        value = split_amplitudes((1,), deltas)[(3,)]
        assert value == pytest.approx(np.exp(1j * sum(deltas)), abs=1e-12)

    def test_zero_labels_give_unity(self):
        value = split_amplitudes((0,), (0.1, 0.9, 3.0, 5.5))[(4,)]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_balanced_pair_cancels_at_magic_positions(self):
        # the {0,1} multiset interferes destructively on the magic comb
        value = split_amplitudes((0, 1), tuple(magic_positions(2)))[(1, 1)]
        assert abs(value) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_uniform_multiset_on_magic_comb_alternates_sign(self, m):
        # sum of the comb is pi*(m-1), so the lone arrangement carries
        # the parity factor (-1)**(m-1)
        value = split_amplitudes((1,), tuple(magic_positions(m)))[(m,)]
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
            assert split_amplitudes(values, deltas)[split] == pytest.approx(
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
            value = split_amplitudes(values, deltas)[split]
            assert abs(value) <= arrangements + 1e-9

    def test_rejects_length_mismatch(self):
        # a split of two photons has no paths over one detector
        with pytest.raises(KeyError):
            split_amplitudes((0, 1), (0.0,))[(1, 1)]


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

    def test_table_capacity_guard(self):
        # (M+1)**(K-1) = 2**20 entries: 21 sources at M = 1, and 5 at M = 31
        for count, order in ((21, 1), (5, 31)):
            value = correlation_pathsum(SourceArray.equidistant(count), (0.0,) * order)
            assert value == pytest.approx(
                math.factorial(order) * count**order, rel=1e-12
            )
        for count, order in ((22, 1), (5, 32)):
            with pytest.raises(CapacityError, match="PATHSUM_MAX_TABLE"):
                correlation_pathsum(SourceArray.equidistant(count), (0.0,) * order)
        assert PATHSUM_MAX_TABLE == 32**4

    def test_rejects_empty_detectors(self):
        with pytest.raises(ValueError):
            correlation_pathsum(SourceArray(), ())


def decimal_phasor(phase):
    # (cos, sin) of a Decimal phase by the Taylor series, in the caller's
    # context: the terms pass 1e8 before they shrink, at |phase| <= 20
    total_re, total_im = Decimal(0), Decimal(0)
    term_re, term_im, k = Decimal(1), Decimal(0), 0
    while abs(term_re) + abs(term_im) > Decimal(10) ** -70:
        total_re, total_im = total_re + term_re, total_im + term_im
        k += 1
        term_re, term_im = -term_im * phase / k, term_re * phase / k
    return total_re, total_im


def decimal_correlation(sources, deltas):
    # the path sum over all K**M paths in 60-digit decimal arithmetic
    with localcontext() as context:
        context.prec = 60
        phasors = [
            [decimal_phasor(alpha * Decimal(d)) for alpha in sources.prefactors]
            for d in deltas
        ]
        sums = {}
        for path in itertools.product(range(sources.count), repeat=len(deltas)):
            re, im = Decimal(1), Decimal(0)
            for row, source in zip(phasors, path):
                c, s = row[source]
                re, im = re * c - im * s, re * s + im * c
            split = tuple(path.count(l) for l in range(sources.count))
            old_re, old_im = sums.get(split, (0, 0))
            sums[split] = (old_re + re, old_im + im)
        total = Decimal(0)
        for split, (re, im) in sums.items():
            weight = Decimal(1)
            for n, nbar in zip(split, sources.nbar):
                weight *= math.factorial(n) * Decimal(nbar) ** n
            total += weight * (re * re + im * im)
        return total


class TestSplitRecursion:
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

    def test_spread_matches_closed_form(self):
        rng = np.random.default_rng(71)
        for m in range(1, 25):
            layout = DetectorLayout.spread(m)
            for delta1 in rng.uniform(0, 2 * math.pi, size=3):
                phases = layout.detector_phases(delta1)
                assert correlation_pathsum(SourceArray(), phases) == pytest.approx(
                    closed_form(layout).g(delta1), rel=1e-12
                )

    def test_colocated_matches_closed_form(self):
        rng = np.random.default_rng(73)
        for order in range(2, 49):
            for m1 in range(1, order):
                layout = DetectorLayout.colocated(m1, order - m1)
                delta1 = rng.uniform(0, 2 * math.pi)
                phases = layout.detector_phases(delta1)
                assert correlation_pathsum(SourceArray(), phases) == pytest.approx(
                    closed_form(layout).g(delta1), rel=1e-12
                )

    def test_bound_covers_the_exact_error(self):
        # random sources and phases, and the cancelling comb layouts, against
        # the sum over every path in 60 digits
        rng = np.random.default_rng(79)
        cases = [
            (SourceArray(), DetectorLayout.colocated(3, 3).detector_phases(0.9)),
            (SourceArray.equidistant(4, 0.7), tuple(magic_positions(5))),
        ]
        for _ in range(14):
            count = int(rng.integers(1, 5))
            order = int(rng.integers(1, 6 if count == 4 else 7))
            nbar = tuple(float(v) for v in rng.uniform(0.2, 2.5, size=count))
            cases.append((SourceArray(nbar=nbar), rng.uniform(0, 2 * math.pi, order)))
        for sources, deltas in cases:
            value, bound = correlation_pathsum_bounded(sources, deltas)
            exact_value = decimal_correlation(sources, deltas)
            assert abs(Decimal(value) - exact_value) <= Decimal(bound) * Decimal(value)
            assert 0 < bound <= 1e-12

    def test_bound_above_the_tolerance_is_refused(self, monkeypatch):
        # colocated(30, 30) cancels too far for the bound to certify 1e-9
        phases = DetectorLayout.colocated(30, 30).detector_phases(1.1)
        with pytest.raises(NumericalError, match="path-sum error bound"):
            correlation_pathsum(SourceArray(), phases)
        phases = DetectorLayout.colocated(24, 24).detector_phases(1.1)
        _, bound = correlation_pathsum_bounded(SourceArray(), phases)
        monkeypatch.setattr(pathsum, "ORACLE_TOLERANCE", bound / 2)
        with pytest.raises(NumericalError, match=f"error bound {bound:.2e} exceeds"):
            correlation_pathsum(SourceArray(), phases)

    def test_far_phases_are_refused(self):
        # 3 * d rounds by up to 1.5 eps * |3 d| with d a million radians out
        phases = DetectorLayout.colocated(4, 4).detector_phases(0.9) + 1e6
        with pytest.raises(NumericalError, match="error bound"):
            correlation_pathsum(SourceArray.equidistant(4), phases)

    def test_factorial_overflow_is_refused(self):
        # 170! fits in a double and 171! does not
        sources = SourceArray.equidistant(2, 0.05)
        value = correlation_pathsum(sources, (0.0,) * 170)
        assert value == pytest.approx(math.factorial(170) * 0.1**170, rel=1e-12)
        with pytest.raises(NumericalError, match="double range"):
            correlation_pathsum(sources, (0.0,) * 171)
        with pytest.raises(NumericalError, match="double range"):
            correlation_pathsum(SourceArray(), (0.0,) * 170)

    def test_permanent_overflow_is_refused(self):
        # with no minus sign among the 150 equal columns, their rows sum to
        # about 300, and 150 such factors pass 1e308 in the first block
        phases = DetectorLayout.colocated(150, 10).detector_phases(0.9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="M = 160 leaves the double range"):
                correlation_permanent_bounded(SourceArray(), phases)
        assert caught == []


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


def reference_sign_sums(columns, choices):
    # the per-choice loop that the broadcast in `_sign_sums` replaced
    width = math.prod(map(len, choices))
    table = np.empty((columns.shape[0], width), dtype=columns.dtype)
    table[:, 0] = 0
    weights = np.ones(width)
    size = 1
    for column, choice in zip(columns.T, choices):
        for k, (q, w) in enumerate(choice[1:], 1):
            block = slice(k * size, (k + 1) * size)
            np.add(table[:, :size], (q * column)[:, None], out=table[:, block])
            np.multiply(weights[:size], float(w), out=weights[block])
        table[:, :size] += (choice[0][0] * column)[:, None]
        size *= len(choice)
    return table, weights


def reference_repeats(vectors):
    # the per-row loop that `_repeats` replaced
    groups = {}
    for i, vector in enumerate(vectors):
        groups.setdefault(vector.tobytes(), []).append(i)
    firsts = [group[0] for group in groups.values()]
    return firsts, [len(group) for group in groups.values()]


class TestSignTables:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "counts", [(1, 3, 2, 1), (1,) * 7, (5,)], ids=["grouped", "distinct", "one"]
    )
    def test_broadcast_matches_the_per_choice_loop(self, counts, dtype):
        rng = np.random.default_rng(len(counts))
        columns = rng.normal(size=(6, len(counts))) / 3
        if dtype is np.complex128:
            columns = columns + 1j * rng.normal(size=columns.shape) / 3
        columns[0] = 0.0
        columns[1, 0] = -0.0
        # the choices (m - 2k, (-1)**k C(free, k)) of the old `_sign_choices`
        free = (counts[0] - 1,) + counts[1:]
        choices = [
            [(m - 2 * k, (-1) ** k * math.comb(f, k)) for k in range(f + 1)]
            for m, f in zip(counts, free)
        ]
        table, weights = pathsum._sign_sums(columns, list(zip(counts, free)))
        want_table, want_weights = reference_sign_sums(columns, choices)
        assert table.dtype == want_table.dtype and table.shape == want_table.shape
        assert np.array_equal(bits(table), bits(want_table))
        assert np.array_equal(bits(weights), bits(want_weights))

    @pytest.mark.parametrize("kind", ["distinct", "columns", "rows", "both", "ones"])
    def test_repeats_match_the_per_row_loop(self, kind):
        matrix = repeated(kind, 9, 21)
        # bit-identical, not equal in value: -0.0 is a vector of its own
        matrix[:, 4] = 0.0
        matrix[:, 5] = -0.0
        for vectors in (matrix, matrix.T, matrix.real, matrix.real.T):
            assert pathsum._repeats(vectors) == reference_repeats(vectors)


class TestBlockedGlynn:
    # The first column's sign is fixed, so n = 7 and 8 with 1 or 3 low
    # columns draw 5 to 6 or 3 to 4 high columns from the high table; with
    # 8 low columns the same sizes, and n = 1, have no high columns at all.
    # Groups of equal columns shift those splits: a group of m columns takes
    # m + 1 choices of its minus-sign count where a distinct column takes 2.
    @pytest.mark.parametrize("kind", ["distinct", "columns", "rows", "both", "ones"])
    @pytest.mark.parametrize(
        "low_columns,n",
        [(1, 7), (1, 8), (3, 7), (3, 8), (8, 1), (8, 7), (8, 8)],
    )
    def test_matches_brute_force(self, monkeypatch, low_columns, n, kind):
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", low_columns)
        matrix = repeated(kind, n, 100 + n)
        value = permanent(matrix)
        assert isinstance(value, complex)
        assert value == pytest.approx(brute_force_permanent(matrix), rel=1e-10)

    @pytest.mark.parametrize("kind", ["distinct", "columns", "rows", "both", "ones"])
    def test_real_matrix_is_summed_in_float64(self, monkeypatch, kind):
        # a real matrix keeps its dtype through the row sums, products and
        # sums of terms, and its permanent is still returned as a complex number
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", 3)
        matrix = repeated(kind, 7, 107).real
        dtypes = []
        pairwise_sum = pathsum._pairwise_sum

        def recorded(values):
            dtypes.append(values.dtype)
            return pairwise_sum(values)

        monkeypatch.setattr(pathsum, "_pairwise_sum", recorded)
        value = permanent(matrix)
        assert isinstance(value, complex) and value.imag == 0
        assert value == pytest.approx(brute_force_permanent(matrix), rel=1e-10)
        assert set(dtypes) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("kind", ["columns", "rows", "both", "ones"])
    def test_grouped_sum_is_within_its_bound_of_the_exact_value(
        self, monkeypatch, kind
    ):
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", 2)
        matrix = repeated(kind, 6, 5)
        value, error = pathsum._glynn(matrix)
        want_re, want_im = exact_permanent(matrix)
        assert abs(exact(value.real) - want_re) <= Fraction(error)
        assert abs(exact(value.imag) - want_im) <= Fraction(error)

    def test_empty_matrix_has_unit_permanent(self):
        assert permanent(np.zeros((0, 0), dtype=complex)) == 1

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            pathsum._glynn(np.ones((2, 3), dtype=complex))

    def test_zero_row_gives_zero(self):
        matrix = np.ones((5, 5), dtype=complex)
        matrix[2] = 0.0
        assert pathsum._glynn(matrix) == (0, 0.0)

    @pytest.mark.parametrize(
        "counts", [(1,) * 7, (2, 1, 1, 3)], ids=["distinct", "grouped"]
    )
    def test_row_sums_lie_within_the_assumed_error(self, monkeypatch, counts):
        # the error bound assumes |computed g_i - exact g_i| <= n eps rho_i,
        # rho_i = sum_j |a_ij| over all n columns.  Four low choices leave
        # the other groups to the high table, whose sums of several groups
        # join the low table's; the group of 3 adds the rounded products 3c
        # and -3c.
        monkeypatch.setattr(pathsum, "_LOW_COLUMNS", 2)
        n, groups = sum(counts), len(counts)
        rng = np.random.default_rng(3)
        columns = rng.normal(size=(n, groups)) + 1j * rng.normal(size=(n, groups))
        columns[0] *= 1e-12
        columns[1, 2] = 1e-30
        columns /= 3  # fills every significand bit
        eps = np.finfo(float).eps
        full = columns[:, np.repeat(np.arange(groups), counts)]
        allowed = [Fraction(n * eps * rho) ** 2 for rho in np.abs(full).sum(axis=1)]
        re = [[exact(v.real) for v in row] for row in columns]
        im = [[exact(v.imag) for v in row] for row in columns]
        # the group holding the fixed sign has one free column fewer
        free = (counts[0] - 1,) + counts[1:]
        number = rounded = 0
        for rows, weights in pathsum._sign_blocks(columns, counts):
            for c in range(rows.shape[1]):
                minus, rest = [], number
                for f in free:
                    minus.append(rest % (f + 1))
                    rest //= f + 1
                number += 1
                assert weights[c] == math.prod(
                    (-1) ** k * math.comb(f, k) for k, f in zip(minus, free)
                )
                factors = [m - 2 * k for m, k in zip(counts, minus)]
                for i in range(n):
                    want_re = sum(q * v for q, v in zip(factors, re[i]))
                    want_im = sum(q * v for q, v in zip(factors, im[i]))
                    off = (exact(rows[i, c].real) - want_re) ** 2 + (
                        exact(rows[i, c].imag) - want_im
                    ) ** 2
                    assert off <= allowed[i]
                    rounded += off > 0
        assert number == math.prod(f + 1 for f in free)
        assert rounded > 0  # the case does exercise rounding

    def test_bound_covers_the_exact_error(self):
        # a cancelling case: the coherence matrix of a co-located (4, 2)
        # layout, complex with its phases taken from source 0
        phases = DetectorLayout.colocated(4, 2).detector_phases(0.9)
        self.check_bound_covers_the_exact_error(
            uncentred_matrix(SourceArray(), phases), len(phases)
        )

    def test_bound_covers_the_exact_error_real(self):
        # the same layout's centred coherence matrix, summed in float64
        phases = DetectorLayout.colocated(4, 2).detector_phases(0.9)
        matrix = coherence_matrix(SourceArray(), phases)
        assert matrix.dtype == np.float64
        self.check_bound_covers_the_exact_error(matrix, len(phases))

    @staticmethod
    def check_bound_covers_the_exact_error(matrix, n):
        value, error = pathsum._glynn(matrix)
        want_re, want_im = exact_permanent(matrix)
        assert abs(exact(value.real) - want_re) <= Fraction(error)
        assert abs(exact(value.imag) - want_im) <= Fraction(error)
        assert error < 1e-6 * abs(float(want_re))
        # rounding scales with eps * sum |term|; a bound below that is no bound
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

    @pytest.mark.parametrize("kind", ["distinct", "columns", "rows", "both", "ones"])
    def test_grouped_bound_is_the_bound_over_sign_vectors(self, kind):
        # a term of weight w stands for |w| sign vectors, and a row that
        # occurs r times for r rows: the bound must add up as if every sign
        # vector and row were taken one by one
        self.check_bound_over_sign_vectors(repeated(kind, 6, 9))

    @pytest.mark.parametrize("kind", ["distinct", "columns", "rows", "both", "ones"])
    def test_grouped_bound_is_the_bound_over_sign_vectors_real(self, kind):
        # the same in float64, with the same c = 2n
        self.check_bound_over_sign_vectors(repeated(kind, 6, 9).real)

    @staticmethod
    def check_bound_over_sign_vectors(matrix):
        n, entry_error = len(matrix), 1e-9
        _, error = pathsum._glynn(matrix, entry_error)
        eps = np.finfo(float).eps
        d = n * (eps * np.abs(matrix).sum(axis=1) + entry_error)
        signs = np.array([(1,) + s for s in itertools.product((1, -1), repeat=n - 1)])
        sums = np.abs(matrix @ signs.T)
        reach = sums + d[:, None]
        magnitude = np.prod(sums, axis=0).sum()
        moved = np.prod(reach, axis=0) @ (d @ (1 / reach))
        want = (2 * n * eps * magnitude + moved) / 2 ** (n - 1)
        assert error == pytest.approx(want, rel=1e-12)

    # colocated(m1, m2): one group of m1 equal columns and m2 distinct ones,
    # 1/2 * (m1 + 1) * 2**m2 terms; spread(7): 14 distinct columns, 2**13
    @pytest.mark.parametrize(
        "layout,terms",
        [
            (DetectorLayout.colocated(8, 10), 4608),
            (DetectorLayout.colocated(3, 13), 16384),
            (DetectorLayout.spread(7), 8192),
        ],
        ids=["colocated-8-10", "colocated-3-13", "spread-7"],
    )
    def test_terms_summed(self, monkeypatch, layout, terms):
        widths = []
        sign_blocks = pathsum._sign_blocks

        def counted(*args):
            for rows, weights in sign_blocks(*args):
                widths.append(rows.shape[1])
                yield rows, weights

        monkeypatch.setattr(pathsum, "_sign_blocks", counted)
        correlation_permanent(SourceArray(), layout.detector_phases(0.9))
        assert sum(widths) == terms
        assert max(widths) <= 1 << pathsum._LOW_COLUMNS

    @pytest.mark.parametrize(
        "layout", [DetectorLayout.colocated(3, 13), DetectorLayout.spread(8)]
    )
    def test_blocking_moves_the_value_only_within_its_bounds(self, monkeypatch, layout):
        # M = 16: 16384 or 32768 terms, cut into 16 to 4096 blocks of 8 to
        # 1024 by the width of the low table
        phases = layout.detector_phases(0.7)
        expected = closed_form(layout).g(0.7)
        results = []
        for low_columns in (3, 6, 10):
            monkeypatch.setattr(pathsum, "_LOW_COLUMNS", low_columns)
            value, bound = correlation_permanent_bounded(SourceArray(), phases)
            assert abs(value - expected) <= bound * value
            results.append((value, bound * value))
        for (a, a_error), (b, b_error) in itertools.combinations(results, 2):
            assert abs(a - b) <= a_error + b_error

    def test_traced_memory_is_bounded_by_the_block(self):
        # 2**19 terms at M = 20 would take 4.2 MB as one float64 vector (the
        # equal-brightness matrix is real), and their 20 row sums 84 MB; a
        # block holds 2**10 of them
        phases = DetectorLayout.spread(10).detector_phases(0.9)
        tracemalloc.start()
        try:
            correlation_permanent(SourceArray(), phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


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

    @pytest.mark.parametrize(
        "layout,delta1",
        ORACLE_LAYOUTS,
        ids=[f"M{lay.order}-{lay.m1}_{lay.m2}" for lay, _ in ORACLE_LAYOUTS],
    )
    def test_real_and_complex_sums_agree_within_their_bounds(self, layout, delta1):
        matrix = coherence_matrix(SourceArray(), layout.detector_phases(delta1))
        assert matrix.dtype == np.float64
        real, real_error = pathsum._glynn(matrix)
        value, error = pathsum._glynn(matrix.astype(np.complex128))
        assert abs(real - value) <= real_error + error

    def test_colocated_9_16_is_certified(self):
        # M = 25 and 327680 terms, past the distinct-phase cap of M = 20: the
        # real sum at centred phases bounds it at about 2e-10
        layout = DetectorLayout.colocated(9, 16)
        value, bound = correlation_permanent_bounded(
            SourceArray(), layout.detector_phases(1.35299)
        )
        gap = abs(value - closed_form(layout).g(1.35299)) / value
        assert gap <= bound <= 1e-9


def decimal_pi():
    # pi in the caller's context, by the series of the decimal module's recipes
    total, term, n, na, d, da, last = Decimal(3), Decimal(3), 1, 0, 0, 24, 0
    while total != last:
        last = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        term = term * n / d
        total += term
    return total


class TestCoherenceMatrix:
    @pytest.mark.parametrize(
        "nbar,dtype",
        [
            ((1.0,), np.float64),
            ((1.0, 1.0), np.float64),
            ((0.5, 2.0, 0.5), np.float64),
            ((0.7, 1.3, 1.3, 0.7), np.float64),
            ((1.0, 1.5), np.complex128),
            ((0.5, 2.0, 1.0), np.complex128),
            ((0.7, 1.3, 0.7, 0.7), np.complex128),
        ],
    )
    def test_real_exactly_for_mirror_symmetric_brightness(self, nbar, dtype):
        sources = SourceArray(nbar=nbar)
        phases = DetectorLayout.colocated(3, 2).detector_phases(0.9)
        matrix = coherence_matrix(sources, phases)
        assert matrix.dtype == dtype
        # a diagonal unitary similarity of the uncentred matrix
        uncentred = uncentred_matrix(sources, phases)
        np.testing.assert_allclose(np.abs(matrix), np.abs(uncentred), rtol=1e-14)
        assert permanent(matrix) == pytest.approx(permanent(uncentred), rel=1e-12)

    @pytest.mark.parametrize(
        "nbar",
        [
            (1.0, 1.0),
            (0.6, 1.7),
            (0.5, 2.0, 0.5),
            (0.5, 2.0, 1.0),
            (0.7, 1.3, 1.3, 0.7),
            (0.7, 1.3, 0.9, 2.5),
        ],
    )
    def test_entries_lie_within_the_entry_error(self, nbar):
        # against the centred matrix in 60 digits, at phases up to 1e6 rad:
        # K = 2 and 3 round no phase, K = 4 rounds (3/2) d
        sources = SourceArray(nbar=nbar)
        rng = np.random.default_rng(len(nbar))
        phases = np.concatenate(
            [rng.uniform(-1e6, 1e6, size=3), rng.uniform(0, 2 * math.pi, size=3)]
        )
        matrix = coherence_matrix(sources, phases)
        real = matrix.dtype == np.float64
        allowed = Decimal(pathsum._entry_error(sources, phases, real))
        half = Decimal(sources.count - 1) / 2
        with localcontext() as context:
            context.prec = 60
            turn = 2 * decimal_pi()
            phasors = []
            for d in phases:
                row = []
                for alpha in sources.prefactors:
                    angle = (alpha - half) * Decimal(d)
                    row.append(decimal_phasor(angle - turn * round(angle / turn)))
                phasors.append(row)
            for j, k in itertools.product(range(len(phases)), repeat=2):
                want_re = want_im = Decimal(0)
                for nbar_l, (c_j, s_j), (c_k, s_k) in zip(
                    sources.nbar, phasors[j], phasors[k]
                ):
                    want_re += Decimal(nbar_l) * (c_j * c_k + s_j * s_k)
                    want_im += Decimal(nbar_l) * (s_j * c_k - c_j * s_k)
                entry = complex(matrix[j, k])
                off_re = Decimal(entry.real) - want_re
                off_im = Decimal(entry.imag) - want_im
                assert (off_re**2 + off_im**2).sqrt() <= allowed
                if real:
                    assert abs(want_im) < Decimal(10) ** -40

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

    def test_agrees_with_pathsum_on_repeated_phases(self):
        # every phase drawn from a pool of three, so rows and columns of the
        # coherence matrix repeat and Glynn's grouped terms are exercised, in
        # float64 and complex128 alike; the two routes meet within the sum of
        # their own bounds
        rng = np.random.default_rng(25)
        complex_runs = most_repeated = 0
        for _ in range(200):
            count = int(rng.integers(1, 4))
            nbar = tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], size=count))
            order = int(rng.integers(2, 13))
            pool = rng.uniform(0, 2 * math.pi, size=3)
            deltas = tuple(float(v) for v in rng.choice(pool, size=order))
            sources = SourceArray(nbar=nbar)
            perm, perm_bound = correlation_permanent_bounded(sources, deltas)
            path, path_bound = correlation_pathsum_bounded(sources, deltas)
            assert abs(perm - path) <= perm_bound * abs(perm) + path_bound * abs(path)
            complex_runs += nbar != nbar[::-1]
            most_repeated = max(most_repeated, *Counter(deltas).values())
        assert complex_runs > 0 and most_repeated > 4

    def test_hopeless_sum_is_refused_before_it_is_done(self, monkeypatch):
        # clustered phases at M = 91: 32400 blocks, whose bound would end near
        # 1e5 relative.  It passes 2e-9 of M! prod J_jj within a few blocks,
        # and the call is refused there
        counts = (4, 2, 71, 1, 4, 4, 2, 1, 2)
        phases = np.repeat([0.3 + 0.7 * g for g in range(len(counts))], counts)
        blocks = []
        sign_blocks = pathsum._sign_blocks

        def counted(columns, groups):
            for block in sign_blocks(columns, groups):
                blocks.append(block[0].shape)
                yield block

        monkeypatch.setattr(pathsum, "_sign_blocks", counted)
        with pytest.raises(NumericalError, match="before the sum is done"):
            correlation_permanent_bounded(SourceArray(), phases)
        assert 1 <= len(blocks) <= 10

    def test_ceiling_bounds_exact_permanents_of_psd_matrices(self):
        # perm(J) <= M! prod_j J_jj for a positive semidefinite J, with
        # equality at rank one.  J = V V^H for a small integer V is PSD and
        # exact in floating point, and its permanent is taken in rationals
        rng = np.random.default_rng(26)
        ranks_one = 0
        for case in range(30):
            n, rank = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            vectors = rng.integers(-3, 4, size=(n, rank)).astype(float)
            if case % 2:
                vectors = vectors + 1j * rng.integers(-3, 4, size=(n, rank))
            matrix = vectors @ vectors.conj().T
            diagonal = np.diagonal(matrix).real
            ceiling = pathsum._permanent_ceiling(np.diagonal(matrix), 0.0)
            value, imag = exact_permanent(matrix)
            product = math.factorial(n) * math.prod(int(d) for d in diagonal)
            assert imag == 0 and 0 <= value <= product <= ceiling
            if rank == 1:
                ranks_one += 1
                assert value == product
                assert ceiling <= product * (1 + 1e-12)
        assert ranks_one > 3
        # a rank-one coherence matrix, every detector at one phase, reaches
        # the ceiling and is still certified
        value, bound = correlation_permanent_bounded(SourceArray(), (0.3,) * 20)
        assert value == pytest.approx(math.factorial(20) * 2.0**20, rel=1e-12)
        assert bound <= 1e-9

    def test_needs_a_detector(self):
        refused = re.escape("deltas must be a 1-d sequence of reals of length >= 1: []")
        with pytest.raises(ValueError, match=refused):
            correlation_permanent_bounded(SourceArray(), [])

    def test_far_phases_are_refused(self):
        # phases 3 * d three million radians out round by up to 3e-10; the
        # bound must count that, and it exceeds 1e-9 here (about 5e-8)
        phases = DetectorLayout.colocated(4, 4).detector_phases(0.9) + 1e6
        with pytest.raises(NumericalError, match="error bound"):
            correlation_permanent(SourceArray.equidistant(4), phases)

    def test_order_capacity_guard(self):
        # spread(10): 20 distinct phases, 2**19 terms; one more phase doubles it
        phases = DetectorLayout.spread(10).detector_phases(0.9)
        value, bound = correlation_permanent_bounded(SourceArray(), phases)
        expected = closed_form(DetectorLayout.spread(10)).g(0.9)
        assert abs(value - expected) <= bound * value
        with pytest.raises(CapacityError, match=f"has {2 * PERMANENT_MAX_TERMS} terms"):
            correlation_permanent(SourceArray(), (*phases, 0.1))

    def test_matrix_capacity_guard(self, monkeypatch):
        # co-located detectors sum M terms, but their M x M matrix is built
        monkeypatch.setattr(pathsum, "PERMANENT_MAX_TERMS", 64)
        assert correlation_permanent(SourceArray(), (0.0,) * 8) == pytest.approx(
            math.factorial(8) * 2**8, rel=1e-12
        )
        with pytest.raises(CapacityError, match="9 x 9 coherence matrix"):
            correlation_permanent(SourceArray(), (0.0,) * 9)


BOTH_ROUTES = pytest.mark.parametrize(
    "route",
    [correlation_pathsum_bounded, correlation_permanent_bounded],
    ids=["pathsum", "permanent"],
)


class TestNonFinitePhases:
    @BOTH_ROUTES
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_is_an_input_error(self, monkeypatch, route, bad, where):
        # refused before any table or matrix is built
        def no_work(*args):
            raise AssertionError("built from a non-finite phase")

        monkeypatch.setattr(pathsum, "_split_table", no_work)
        monkeypatch.setattr(pathsum, "coherence_matrix", no_work)
        deltas = [0.1, 0.4, 2.5]
        deltas[where] = bad
        with pytest.raises(ValueError, match="deltas must be finite"):
            route(SourceArray(), deltas)


class TestPhaseReader:
    @BOTH_ROUTES
    @pytest.mark.parametrize(
        "bad,match",
        [
            ([[0.1, 0.4], [2.5, 1.0]], "deltas must be a 1-d"),
            ([[0.1], [0.4, 2.5]], "deltas must be a 1-d"),
            (np.zeros((2, 2)), "deltas must be a 1-d"),
            (0.5, "deltas must be a 1-d"),
            ("0.5", "deltas must be a 1-d"),
            ([True, False], "deltas must be a 1-d"),
            ([0.1, 0.4 + 0.1j], "deltas must be a 1-d"),
            ([0.1, None], "deltas must be a 1-d"),
            ([], "deltas must be a 1-d sequence of reals of length >= 1: "),
            (np.zeros(0), "deltas must be a 1-d sequence of reals of length >= 1: "),
        ],
        ids=[
            "nested",
            "ragged",
            "2-d",
            "scalar",
            "string",
            "bools",
            "complex",
            "none",
            "empty",
            "empty-array",
        ],
    )
    def test_malformed_phases_are_an_input_error(self, monkeypatch, route, bad, match):
        # one reader refuses them for both routes, before any work is done;
        # TestNonFinitePhases holds the NaN and infinite phases
        def no_work(*args):
            raise AssertionError("built from malformed phases")

        monkeypatch.setattr(pathsum, "_split_table", no_work)
        monkeypatch.setattr(pathsum, "coherence_matrix", no_work)
        with pytest.raises(ValueError, match=match):
            route(SourceArray(), bad)

    @BOTH_ROUTES
    @pytest.mark.parametrize(
        "deltas",
        [[0, 1, 3], (0.0, 1.0, 3.0), np.array([0, 1, 3]), np.array([0.0, 1.0, 3.0])],
        ids=["int-list", "tuple", "int-array", "float-array"],
    )
    def test_returns_python_floats(self, route, deltas):
        value, bound = route(SourceArray.equidistant(3), deltas)
        assert type(value) is float and type(bound) is float
        assert (value, bound) == route(SourceArray.equidistant(3), [0.0, 1.0, 3.0])

    # every entry point that takes a sequence of reals from outside, called on
    # it: (name of the argument, call); the 2-d scan is one object array of two
    # rows, the only 2-d form that keeps what a numeric array would convert
    ENTRY_POINTS = {
        "pathsum": ("deltas", lambda v: correlation_pathsum_bounded(SourceArray(), v)),
        "permanent": (
            "deltas",
            lambda v: correlation_permanent_bounded(SourceArray(), v),
        ),
        "coherence-matrix": ("deltas", lambda v: coherence_matrix(SourceArray(), v)),
        "g-detectors": ("deltas", lambda v: g_detectors(thermal_two_mode(0.5, 20), v)),
        "g-detectors-2d": (
            "deltas",
            lambda v: g_detectors(
                thermal_two_mode(0.5, 20), np.array([v, v], dtype=object)
            ),
        ),
        "verify-isomorphism": ("deltas", lambda v: verify_isomorphism(0.5, 2, 2, v)),
        "speckle-grid": (
            "grid",
            lambda v: SpeckleConfig(
                SourceArray(), DetectorLayout.colocated(1, 1), 10, 1, grid=v
            ),
        ),
        "curve-grid": (
            "grid",
            lambda v: CorrelationCurve(grid=v, values=[1, 2, 3, 4], order=2, layout="t"),
        ),
        "curve-values": (
            "values",
            lambda v: CorrelationCurve(grid=[1, 2, 3, 4], values=v, order=2, layout="t"),
        ),
        "detector-phases": (
            "delta1",
            lambda v: DetectorLayout.colocated(1, 1).detector_phases(v),
        ),
        "dominant-frequency-grid": ("grid", lambda v: dominant_frequency(v, [1, 2, 3, 2])),
        "dominant-frequency-values": (
            "values",
            lambda v: dominant_frequency([1, 2, 3, 4], v),
        ),
        "nbar": ("nbar", lambda v: SourceArray(nbar=v)),
        "fixed-phases": (
            "fixed_phases",
            lambda v: DetectorLayout(fixed_phases=v, moving_offsets=(0.0,)),
        ),
        "moving-offsets": (
            "moving_offsets",
            lambda v: DetectorLayout(fixed_phases=(0.0,), moving_offsets=v),
        ),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, True],
            [0.1, 0.4 + 0.1j],
            "0.5",
            [0.1, None],
            [[0.1, 0.4], [2.5, 1.0]],
            [[0.1], [0.4, 2.5]],
            [0.1, math.nan],
        ],
        ids=["bool", "complex", "string", "none", "nested", "ragged", "nan"],
    )
    def test_every_entry_point_refuses_malformed_reals(self, monkeypatch, entry, bad):
        # named, and before any table, matrix, state or band is built
        def no_work(*args, **kwargs):
            raise AssertionError("built from malformed reals")

        # pathsum reads its phases before any numpy work: a use is an AttributeError
        monkeypatch.setattr(pathsum, "np", None)
        for name in ("thermal_two_mode", "_moments", "_sandwich"):
            monkeypatch.setattr(fockstate, name, no_work)
        name, call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call(bad)

    # a 2-d scan is an array: a list of rows is refused as nested
    @pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if "2d" not in e])
    @pytest.mark.parametrize(
        "form",
        [
            [1, 2, 3, 4],
            (1, 2.0, 3, 4),
            np.array([1, 2, 3, 4]),
            np.array([1, 2, 3, 4], dtype=np.float32),
            [np.float64(1), np.float64(2), np.float64(3), np.float64(4)],
        ],
        ids=["int-list", "tuple", "int-array", "float32-array", "np-float64"],
    )
    def test_every_entry_point_reads_valid_forms_as_float64(self, entry, form):
        # the same bytes as from a float64 array
        _, call = self.ENTRY_POINTS[entry]
        assert as_bytes(call(form)) == as_bytes(call(np.array([1.0, 2.0, 3.0, 4.0])))

    @pytest.mark.parametrize("dtype", [int, np.float32])
    def test_a_2d_scan_reads_valid_dtypes_as_float64(self, dtype):
        rho = thermal_two_mode(0.5, 20)
        rows = np.array([[1, 2, 3], [3, 0, 1]])
        scan = g_detectors(rho, rows.astype(dtype))
        assert scan.tobytes() == g_detectors(rho, rows.astype(float)).tobytes()


def as_bytes(result):
    """Every float a result holds, as the bytes of one float64 array."""
    if isinstance(result, CorrelationCurve):
        return as_bytes([result.grid, result.values])
    if isinstance(result, SpeckleConfig):
        return as_bytes(result.grid)
    if isinstance(result, (SourceArray, DetectorLayout)):
        return repr(result).encode()
    if hasattr(result, "lhs"):
        return as_bytes([result.deltas, result.lhs, result.rhs])
    return np.concatenate([np.ravel(part) for part in np.atleast_1d(result)]).tobytes()
