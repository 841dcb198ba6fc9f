"""Unit tests of the PUF quality metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.entropy import (
    min_entropy_per_bit,
    response_entropy_report,
    shannon_entropy_per_bit,
)
from repro.metrics.hamming import (
    hamming_distance,
    hamming_distance_histogram,
    pairwise_hamming_distances,
)
from repro.metrics.reliability import bit_flip_report, flip_positions
from repro.metrics.uniformity import bit_aliasing, uniformity, uniformity_report
from repro.metrics.uniqueness import uniqueness_report

bit_matrices = st.integers(2, 8).flatmap(
    lambda rows: st.integers(1, 16).flatmap(
        lambda cols: st.lists(
            st.lists(st.booleans(), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestHamming:
    def test_basic_distance(self):
        assert hamming_distance([1, 0, 1], [0, 0, 1]) == 1
        assert hamming_distance([1, 1], [1, 1]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance([1, 0], [1, 0, 1])

    def test_pairwise_matches_naive(self, rng):
        bits = rng.integers(0, 2, (10, 32)).astype(bool)
        fast = pairwise_hamming_distances(bits)
        naive = []
        for i in range(10):
            for j in range(i + 1, 10):
                naive.append(int(np.sum(bits[i] != bits[j])))
        assert fast.tolist() == naive

    def test_pairwise_single_row(self):
        assert len(pairwise_hamming_distances(np.ones((1, 4), dtype=bool))) == 0

    def test_histogram_counts_sum_to_pairs(self, rng):
        bits = rng.integers(0, 2, (12, 16)).astype(bool)
        _, counts = hamming_distance_histogram(bits)
        assert counts.sum() == 12 * 11 // 2

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pairwise_hamming_distances(np.array([[0, 2], [1, 0]]))

    @given(bit_matrices)
    def test_pairwise_bounds(self, matrix):
        bits = np.array(matrix, dtype=bool)
        distances = pairwise_hamming_distances(bits)
        assert np.all(distances >= 0)
        assert np.all(distances <= bits.shape[1])


class TestUniqueness:
    def test_identical_rows_collide(self):
        bits = np.zeros((3, 8), dtype=bool)
        report = uniqueness_report(bits)
        assert report.has_collision
        assert report.mean_distance == 0.0

    def test_complementary_rows(self):
        bits = np.array([[0] * 8, [1] * 8], dtype=bool)
        report = uniqueness_report(bits)
        assert report.mean_distance == 8.0
        assert report.uniqueness_percent == pytest.approx(100.0)

    def test_random_rows_near_half(self, rng):
        bits = rng.integers(0, 2, (40, 256)).astype(bool)
        report = uniqueness_report(bits)
        assert abs(report.uniqueness_percent - 50.0) < 3.0
        assert not report.has_collision
        assert report.min_distance > 0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            uniqueness_report(np.ones((1, 8), dtype=bool))

    def test_pair_count(self, rng):
        bits = rng.integers(0, 2, (5, 8)).astype(bool)
        assert uniqueness_report(bits).pair_count == 10

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rows=st.integers(min_value=2, max_value=40),
        bit_count=st.integers(min_value=1, max_value=64),
    )
    def test_single_pass_matches_the_two_explicit_calls(
        self, seed, rows, bit_count
    ):
        # The report computes the pairwise distances once; its statistics
        # must equal the separate distance and histogram calls bit for bit.
        bits = np.random.default_rng(seed).integers(
            0, 2, (rows, bit_count)
        ).astype(bool)
        report = uniqueness_report(bits)
        distances = pairwise_hamming_distances(bits)
        axis, counts = hamming_distance_histogram(bits)
        assert report.mean_distance == float(np.mean(distances))
        assert report.std_distance == float(np.std(distances))
        assert np.array_equal(report.histogram_distances, axis)
        assert np.array_equal(report.histogram_counts, counts)
        assert report.histogram_counts.dtype == counts.dtype


class TestReliability:
    def test_no_flips(self):
        reference = np.array([1, 0, 1, 0], dtype=bool)
        observations = np.tile(reference, (3, 1))
        report = bit_flip_report(reference, observations)
        assert report.is_perfectly_stable
        assert report.flip_percent == 0.0

    def test_flip_positions_union_semantics(self):
        reference = np.array([0, 0, 0, 0], dtype=bool)
        observations = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=bool
        )
        positions = flip_positions(reference, observations)
        assert positions.tolist() == [0, 2]

    def test_paper_metric_counts_positions_once(self):
        # A position flipping in several observations counts once.
        reference = np.zeros(10, dtype=bool)
        observations = np.zeros((5, 10), dtype=bool)
        observations[:, 3] = True
        report = bit_flip_report(reference, observations)
        assert report.flip_count == 1
        assert report.flip_percent == pytest.approx(10.0)

    def test_mean_intra_hd(self):
        reference = np.zeros(4, dtype=bool)
        observations = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=bool)
        report = bit_flip_report(reference, observations)
        assert report.mean_intra_hd_percent == pytest.approx(100 * 1.5 / 4)

    def test_single_observation_vector(self):
        reference = np.array([1, 1, 0], dtype=bool)
        report = bit_flip_report(reference, np.array([1, 0, 0], dtype=bool))
        assert report.flip_count == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bit_flip_report(np.ones(3, dtype=bool), np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            bit_flip_report(np.array([], dtype=bool), np.ones((1, 0), dtype=bool))

    def test_zero_observations_mean_zero_flips(self):
        """No observations carry no evidence of instability: 0%, not nan."""
        reference = np.array([1, 0, 1, 1], dtype=bool)
        report = bit_flip_report(reference, np.empty((0, 4), dtype=bool))
        assert report.observation_count == 0
        assert report.flip_count == 0
        assert report.flip_percent == 0.0
        assert report.mean_intra_hd_percent == 0.0
        assert report.is_perfectly_stable

    def test_all_flipped_input(self):
        reference = np.array([1, 0, 1, 0], dtype=bool)
        observations = np.stack([~reference, ~reference])
        report = bit_flip_report(reference, observations)
        assert report.flip_count == 4
        assert report.flip_percent == pytest.approx(100.0)
        assert report.mean_intra_hd_percent == pytest.approx(100.0)
        assert not report.is_perfectly_stable


class TestUniformity:
    def test_vector_input(self):
        assert uniformity(np.array([1, 1, 0, 0], dtype=bool))[0] == 0.5

    def test_matrix_input(self):
        bits = np.array([[1, 1, 1, 1], [0, 0, 0, 0]], dtype=bool)
        assert uniformity(bits).tolist() == [1.0, 0.0]

    def test_bit_aliasing(self):
        bits = np.array([[1, 0], [1, 0], [1, 1]], dtype=bool)
        aliasing = bit_aliasing(bits)
        assert aliasing[0] == 1.0
        assert aliasing[1] == pytest.approx(1 / 3)

    def test_report_on_random(self, rng):
        bits = rng.integers(0, 2, (50, 64)).astype(bool)
        report = uniformity_report(bits)
        assert abs(report.mean_uniformity_percent - 50.0) < 5.0
        assert abs(report.mean_aliasing_percent - 50.0) < 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniformity(np.zeros((2, 0), dtype=bool))
        with pytest.raises(ValueError):
            bit_aliasing(np.zeros((0, 4), dtype=bool))


class TestEntropy:
    def test_constant_positions_have_zero_entropy(self):
        bits = np.zeros((10, 4), dtype=bool)
        assert np.all(shannon_entropy_per_bit(bits) == 0.0)
        assert np.all(min_entropy_per_bit(bits) == 0.0)

    def test_balanced_positions_have_full_entropy(self):
        bits = np.array([[0, 1], [1, 0], [0, 1], [1, 0]], dtype=bool)
        assert np.allclose(shannon_entropy_per_bit(bits), 1.0)
        assert np.allclose(min_entropy_per_bit(bits), 1.0)

    def test_min_entropy_below_shannon(self, rng):
        bits = rng.integers(0, 2, (64, 32)).astype(bool)
        shannon = shannon_entropy_per_bit(bits)
        minimum = min_entropy_per_bit(bits)
        assert np.all(minimum <= shannon + 1e-12)

    def test_report_totals(self, rng):
        bits = rng.integers(0, 2, (64, 32)).astype(bool)
        report = response_entropy_report(bits)
        assert report["total_shannon_entropy"] == pytest.approx(
            np.sum(shannon_entropy_per_bit(bits))
        )
        assert 0.0 <= report["mean_min_entropy"] <= 1.0
