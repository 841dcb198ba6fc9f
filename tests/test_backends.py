"""The dense kernels: bit-identity with the reference loops.

Every kernel of :class:`~repro.backends.numpy_backend.NumpyBackend` — masked
row sums, pair/sweep delay sums, the leave-one-out solve, the integer Gram
update — is pinned **bit-for-bit** against the code it was factored out
of, directly and through the real engines, so dispatching through the
kernel layer changes no output anywhere.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import NumpyBackend, kernels


def _reference_masked_row_sums(values: np.ndarray, mask: np.ndarray):
    return np.array(
        [np.sum(values[p, mask[p]]) for p in range(len(values))]
    )


@st.composite
def masked_rows(draw):
    rows = draw(st.integers(min_value=1, max_value=40))
    cols = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=draw(st.sampled_from([1.0, 1e-10])), size=(rows, cols))
    mask = rng.random((rows, cols)) < draw(st.floats(0.0, 1.0))
    return values, mask


@st.composite
def sweep_problems(draw):
    ops = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(st.integers(min_value=1, max_value=24))
    stages = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    rings = 2 * pairs
    stacked = rng.normal(size=(ops, rings, stages))
    order = rng.permutation(rings)
    top_rings, bottom_rings = order[:pairs], order[pairs:]
    top_masks = (rng.random((pairs, stages)) < 0.5).astype(float)
    bottom_masks = (rng.random((pairs, stages)) < 0.5).astype(float)
    return stacked, top_rings, bottom_rings, top_masks, bottom_masks


@st.composite
def loo_problems(draw):
    rings = draw(st.integers(min_value=1, max_value=24))
    stages = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    selected = rng.normal(loc=1.0, scale=0.05, size=(rings, stages))
    bypass = rng.normal(loc=0.4, scale=0.02, size=(rings, stages))
    config_masks = np.ones((stages + 1, stages), dtype=bool)
    config_masks[1:] ^= np.eye(stages, dtype=bool)
    return selected, bypass, config_masks


class TestNumpyBackendBitIdentity:
    """The default backend reproduces the reference loops bit-for-bit."""

    @given(problem=masked_rows())
    def test_masked_row_sums_exact(self, problem):
        values, mask = problem
        got = NumpyBackend().masked_row_sums(values, mask)
        assert np.array_equal(got, _reference_masked_row_sums(values, mask))

    @given(problem=sweep_problems())
    def test_pair_and_sweep_sums_exact(self, problem):
        stacked, top_rings, bottom_rings, top_masks, bottom_masks = problem
        backend = NumpyBackend()
        top, bottom = backend.sweep_pair_delay_sums(
            stacked, top_rings, bottom_rings, top_masks, bottom_masks
        )
        want_top = np.einsum("ops,ps->op", stacked[:, top_rings, :], top_masks)
        want_bottom = np.einsum(
            "ops,ps->op", stacked[:, bottom_rings, :], bottom_masks
        )
        assert np.array_equal(top, want_top)
        assert np.array_equal(bottom, want_bottom)
        # the single-op kernel is the sweep's row: same reduction, same bits
        row = backend.pair_delay_sums(stacked[0, top_rings, :], top_masks)
        assert np.array_equal(row, want_top[0])

    @given(problem=loo_problems())
    def test_loo_solve_exact(self, problem):
        selected, bypass, config_masks = problem
        backend = NumpyBackend()
        delays = backend.loo_delay_matrix(selected, bypass, config_masks)
        want = np.where(
            config_masks[None, :, :], selected[:, None, :], bypass[:, None, :]
        ).sum(axis=2)
        assert np.array_equal(delays, want)
        assert np.array_equal(
            backend.loo_ddiffs(delays), delays[:, 0:1] - delays[:, 1:]
        )


def _reference_gram(x: np.ndarray) -> np.ndarray:
    """The oracle: numpy's int64 matmul (exact, but a slow C loop)."""
    return x.T @ x


class TestGramUpdate:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rows=st.integers(min_value=1, max_value=200),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_gram_update_integer_exact(self, seed, rows, bits):
        # The streaming accumulators fold shard after shard into one
        # running Gram: the kernel must add exactly, never overwrite.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(rows, bits)).astype(np.int64)
        initial = rng.integers(0, 10**6, size=(bits, bits), dtype=np.int64)
        gram = initial.copy()
        kernels.gram_update(gram, x)
        assert gram.dtype == np.int64
        assert np.array_equal(gram, initial + _reference_gram(x))

    def test_gram_update_all_ones_worst_case(self):
        # Every product is 1, so every entry reaches its maximum: rows.
        rows, bits = 4096, 128
        gram = np.zeros((bits, bits), dtype=np.int64)
        kernels.gram_update(gram, np.ones((rows, bits), dtype=np.int64))
        assert np.array_equal(gram, np.full((bits, bits), rows))

    def test_gram_update_at_the_fleet_shard_shape(self):
        # One fixed example at the fleet benchmark's shard: 4096 devices
        # x 128 response bits.
        rng = np.random.default_rng(20140601)
        x = rng.integers(0, 2, size=(4096, 128)).astype(np.int64)
        gram = np.zeros((128, 128), dtype=np.int64)
        kernels.gram_update(gram, x)
        assert np.array_equal(gram, _reference_gram(x))


def _board_puf(method: str = "case1", seed: int = 7):
    from repro.core.pairing import RingAllocation
    from repro.core.puf import BoardROPUF
    from repro.variation.noise import NoiselessMeasurement

    data_rng = np.random.default_rng(42)
    base = data_rng.normal(1.0, 0.02, 120)
    sensitivity = data_rng.normal(0.05, 0.01, 120)

    def provider(op):
        return base * (1.0 + sensitivity * (1.20 - op.voltage))

    return BoardROPUF(
        delay_provider=provider,
        allocation=RingAllocation(stage_count=5, ring_count=24),
        method=method,
        response_noise=NoiselessMeasurement(),
        rng=np.random.default_rng(seed),
    )


class TestEngineLevelIdentity:
    """Through the real engines: the kernels reproduce the historical loops."""

    def test_batch_selectors_match_loop_reference(self):
        from repro.core.batch import enroll_loop_reference
        from repro.variation.environment import NOMINAL_OPERATING_POINT

        puf = _board_puf()
        batch = puf.enroll()
        loop = enroll_loop_reference(puf, NOMINAL_OPERATING_POINT)
        assert np.array_equal(batch.bits, loop.bits)
        assert np.array_equal(batch.margins, loop.margins)
        assert batch.selections == loop.selections

    def test_sweep_engine_matches_reference_loop(self):
        from repro.core.batch import BatchEvaluator, response_loop_reference
        from repro.variation.environment import OperatingPoint

        ops = [
            OperatingPoint(voltage=v, temperature=25.0)
            for v in (0.98, 1.20, 1.44)
        ]
        puf = _board_puf(method="case2")
        enrollment = puf.enroll()
        looped = np.stack(
            [response_loop_reference(puf, enrollment, op) for op in ops]
        )
        swept = BatchEvaluator.from_puf(puf, enrollment).response_sweep(ops)
        assert np.array_equal(swept, looped)


class TestSelectionAndConfig:
    def test_backend_counters_recorded(self):
        from repro import obs

        obs.reset_metrics()
        obs.enable_metrics()
        try:
            NumpyBackend().masked_row_sums(
                np.ones((4, 3)), np.ones((4, 3), dtype=bool)
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable_metrics()
            obs.reset_metrics()
        assert counters["backend.numpy.calls"] == 1
        assert counters["backend.numpy.masked_row_sums.elements"] == 12
