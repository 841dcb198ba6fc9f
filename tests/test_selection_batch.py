"""Batch selectors: byte-identity with the scalar selectors and exhaustive search."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.backends.numpy_backend import _SEQUENTIAL_SUM_WIDTH
from repro.core.selection import (
    select_case1,
    select_case2,
    select_exhaustive,
    select_traditional,
)
from repro.core.selection_batch import (
    BATCH_SELECTION_METHODS,
    masked_row_sums,
    select_case1_batch,
    select_case2_batch,
    select_traditional_batch,
)

SCALAR_BY_METHOD = {
    "case1": select_case1,
    "case2": select_case2,
    "traditional": select_traditional,
}


# Integer-valued float delays keep every sum exact in any evaluation order,
# so batch / scalar / exhaustive must agree deterministically (including
# ties, which integers produce often).
delta_rows = st.lists(
    st.lists(
        st.integers(min_value=-50, max_value=50).map(float),
        min_size=1,
        max_size=10,
    ),
    min_size=1,
    max_size=8,
)


def _pair_matrices(rows: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    width = len(rows[0])
    usable = [r for r in rows if len(r) == width]
    alpha = np.array(usable)
    beta = -alpha[::-1] if len(usable) > 1 else np.zeros_like(alpha)
    return alpha, beta


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("method", sorted(BATCH_SELECTION_METHODS))
    @pytest.mark.parametrize("require_odd", [False, True])
    @given(rows=delta_rows, data=st.data())
    def test_batch_matches_scalar(self, method, require_odd, rows, data):
        width = len(rows[0])
        alpha = np.array([r for r in rows if len(r) == width])
        beta = np.array(
            [
                data.draw(
                    st.lists(
                        st.integers(min_value=-50, max_value=50).map(float),
                        min_size=width,
                        max_size=width,
                    )
                )
                for _ in range(len(alpha))
            ]
        )
        batch = BATCH_SELECTION_METHODS[method](alpha, beta, require_odd=require_odd)
        selections = batch.to_selections()
        scalar = SCALAR_BY_METHOD[method]
        for i in range(len(alpha)):
            expected = scalar(alpha[i], beta[i], require_odd=require_odd)
            assert selections[i] == expected
            assert batch.margins[i] == expected.margin

    @pytest.mark.parametrize("method", ["case1", "case2"])
    @pytest.mark.parametrize("require_odd", [False, True])
    @example(rows=[[0.0, 0.0, 0.0], [-2.0, -2.0, 3.0]])
    @given(rows=delta_rows)
    def test_batch_matches_exhaustive_margin(self, method, require_odd, rows):
        alpha, beta = _pair_matrices(rows)
        batch = BATCH_SELECTION_METHODS[method](alpha, beta, require_odd=require_odd)
        greedy_optimal = not (method == "case2" and require_odd)
        for i in range(len(alpha)):
            reference = select_exhaustive(
                alpha[i],
                beta[i],
                same_config=method == "case1",
                require_odd=require_odd,
            )
            if greedy_optimal:
                assert abs(batch.margins[i]) == abs(reference.margin)
            else:
                # Case-2 picks its direction from the pre-repair prefix
                # sums, so parity repair can leave it short of exhaustive
                # (e.g. alpha=[0,0,0], beta=[2,2,-3]); exhaustive is still
                # an upper bound, and batch == scalar is pinned above.
                assert abs(batch.margins[i]) <= abs(reference.margin)


class TestEdgeCases:
    def test_all_negative_delta_case1(self):
        # Every unit hurts the positive direction: the positive branch must
        # fall back to the single least-bad unit, and the negative branch
        # should win overall.
        alpha = np.array([[1.0, 2.0, 3.0]])
        beta = np.array([[5.0, 7.0, 9.0]])
        batch = select_case1_batch(alpha, beta)
        scalar = select_case1(alpha[0], beta[0])
        assert batch.to_selections()[0] == scalar
        assert batch.margins[0] < 0

    def test_parity_add_and_drop_branches(self):
        # Row 0: cheaper to add a unit; row 1: cheaper to drop one.  Both
        # must mirror the scalar repair (and each other's counts stay odd).
        alpha = np.array([[10.0, 8.0, -0.5, -9.0], [10.0, 8.0, -6.0, -9.0]])
        beta = np.zeros_like(alpha)
        batch = select_case1_batch(alpha, beta, require_odd=True)
        for i in range(2):
            scalar = select_case1(alpha[i], beta[i], require_odd=True)
            assert batch.to_selections()[i] == scalar
            assert batch.top_masks[i].sum() % 2 == 1

    def test_tied_delays(self):
        # Exact ties exercise every first-index tie-break at once.
        alpha = np.array([[3.0, 3.0, 3.0, 3.0], [1.0, 1.0, 2.0, 2.0]])
        beta = np.array([[3.0, 3.0, 3.0, 3.0], [2.0, 2.0, 1.0, 1.0]])
        for method, scalar in SCALAR_BY_METHOD.items():
            for require_odd in (False, True):
                batch = BATCH_SELECTION_METHODS[method](
                    alpha, beta, require_odd=require_odd
                )
                for i in range(2):
                    assert batch.to_selections()[i] == scalar(
                        alpha[i], beta[i], require_odd=require_odd
                    )

    def test_shared_config_object_for_case1(self):
        batch = select_case1_batch(np.ones((3, 5)), np.zeros((3, 5)))
        selections = batch.to_selections()
        for selection in selections:
            assert selection.top_config is selection.bottom_config

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            select_case1_batch(np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="differ in shape"):
            select_case2_batch(np.ones((2, 5)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="empty"):
            select_traditional_batch(np.ones((2, 0)), np.ones((2, 0)))

    def test_bits_follow_margin_sign(self):
        alpha = np.array([[5.0, 5.0], [1.0, 1.0]])
        beta = np.array([[1.0, 1.0], [5.0, 5.0]])
        batch = select_traditional_batch(alpha, beta)
        assert batch.bits.tolist() == [True, False]


class TestMaskedRowSums:
    def test_matches_scalar_np_sum(self):
        # Continuous data, widths straddling numpy's pairwise-summation
        # threshold: the helper must be bit-identical to np.sum over the
        # compressed row in every case (this is what the batch selectors'
        # byte-identity rests on — a numpy upgrade that changes summation
        # internals must fail here, loudly).
        rng = np.random.default_rng(42)
        for width in range(1, 17):
            values = rng.normal(1e-9, 1e-10, size=(64, width))
            mask = rng.random(size=(64, width)) < rng.random((64, 1))
            sums = masked_row_sums(values, mask)
            for i in range(64):
                assert sums[i] == np.sum(values[i, mask[i]])

    def test_empty_rows_sum_to_zero(self):
        values = np.full((3, 5), 7.0)
        mask = np.zeros((3, 5), dtype=bool)
        assert masked_row_sums(values, mask).tolist() == [0.0, 0.0, 0.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-shape"):
            masked_row_sums(np.ones((2, 3)), np.ones((3, 2), dtype=bool))


@given(
    values=st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=_SEQUENTIAL_SUM_WIDTH,
        max_size=_SEQUENTIAL_SUM_WIDTH,
    ),
    scale=st.sampled_from([1.0, 1e-10]),
)
@example(values=[1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16], scale=1.0)
def test_sequential_sum_width_invariant(values, scale):
    # exact_masked_row_sums rests on this: up to the sequential width, a
    # left-packed zero-padded row reduced with .sum(axis=1) equals np.sum
    # of its compressed values.  A numpy change to the summation regime
    # (or a wider constant) must fail here.
    values = np.array(values) * scale
    for width in range(1, _SEQUENTIAL_SUM_WIDTH + 1):
        # One row per selected count 0..width, as the kernel packs them.
        padded = np.zeros((width + 1, width))
        for count in range(width + 1):
            padded[count, :count] = values[:count]
        sums = padded.sum(axis=1)
        for count in range(width + 1):
            assert sums[count] == np.sum(values[:count])
