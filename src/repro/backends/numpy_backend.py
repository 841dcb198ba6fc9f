"""The dense kernels every hot path reduces to, byte-identity pinned.

Every kernel here is the *exact* code the core engines ran before the
kernels were factored out — moved, not rewritten, except that
:meth:`NumpyBackend.gram_update` is an integer ``einsum`` where it was
``x.T @ x``, the same int64 result — so dispatching through
:class:`NumpyBackend` changes nothing about any output: the draw-order
golden tests, the batch-vs-scalar selector pins, and the sharded==dense
fleet oracles all hold bit-for-bit.

Every kernel invocation records ``backend.numpy.calls`` and a per-kernel
``backend.numpy.<kernel>.elements`` counter when :mod:`repro.obs` metrics
are enabled (no-ops otherwise).
"""

from __future__ import annotations

import numpy as np

from .. import obs

__all__ = ["NumpyBackend", "exact_masked_row_sums", "_SEQUENTIAL_SUM_WIDTH"]

#: numpy's pairwise summation reduces sums of fewer than 8 elements with a
#: plain left-to-right loop, so a left-packed zero-padded row of this width
#: sums bit-identically to ``np.sum`` of its compressed values.  Pinned by
#: ``tests/test_selection_batch.py::test_sequential_sum_width_invariant``.
_SEQUENTIAL_SUM_WIDTH = 7


def exact_masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum(values[p, mask[p]])`` for every row ``p``, bit-for-bit.

    Rows selecting at most :data:`_SEQUENTIAL_SUM_WIDTH` entries are summed
    vectorized, as left-packed zero-padded rows (sequential-summation
    regime, where trailing zeros are exact no-ops); wider rows fall back to
    a per-row ``np.sum`` over the compressed values.  Inputs must already
    be validated/cast (see :meth:`NumpyBackend._validate_masked`).
    """
    counts = mask.sum(axis=1)
    sums = np.zeros(len(values), dtype=float)
    narrow = counts <= _SEQUENTIAL_SUM_WIDTH
    if narrow.any():
        sub_values = values[narrow]
        sub_mask = mask[narrow]
        sub_counts = counts[narrow]
        width = int(sub_counts.max(initial=0))
        if width:
            flat = sub_values[sub_mask]
            rows = np.repeat(np.arange(len(sub_values)), sub_counts)
            starts = np.cumsum(sub_counts) - sub_counts
            cols = np.arange(len(flat)) - np.repeat(starts, sub_counts)
            padded = np.zeros((len(sub_values), width))
            padded[rows, cols] = flat
            sums[narrow] = padded.sum(axis=1)
    if not narrow.all():
        for row in np.flatnonzero(~narrow):
            sums[row] = np.sum(values[row, mask[row]])
    return sums


class NumpyBackend:
    """The six exact kernels; see the module docstring for the pin."""

    def masked_row_sums(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``np.sum(values[p, mask[p]])`` for every row ``p`` (batch selectors)."""
        values, mask = self._validate_masked(values, mask)
        self._count("masked_row_sums", values.size)
        return exact_masked_row_sums(values, mask)

    def pair_delay_sums(self, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Row-wise masked sums: one operating point, or a coalesced batch."""
        self._count("pair_delay_sums", rows.size)
        return np.einsum("ps,ps->p", rows, masks)

    def sweep_pair_delay_sums(
        self,
        stacked: np.ndarray,
        top_rings: np.ndarray,
        bottom_rings: np.ndarray,
        top_masks: np.ndarray,
        bottom_masks: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) delay sums, each ``(op, pair)``, over an
        ``(op, ring, stage)`` sweep (the response-sweep kernel)."""
        self._count("sweep_pair_delay_sums", stacked.shape[0] * top_masks.size)
        top = np.einsum("ops,ps->op", stacked[:, top_rings, :], top_masks)
        bottom = np.einsum(
            "ops,ps->op", stacked[:, bottom_rings, :], bottom_masks
        )
        return top, bottom

    def loo_delay_matrix(
        self,
        selected: np.ndarray,
        bypass: np.ndarray,
        config_masks: np.ndarray,
    ) -> np.ndarray:
        """``(ring, config)`` chain delays for the leave-one-out solve.

        Entry ``(r, c)`` sums ``selected[r]`` where config ``c`` selects
        the stage and ``bypass[r]`` elsewhere.
        """
        self._count("loo_delay_matrix", selected.size * len(config_masks))
        # (ring, 1, stage) vs (1, config, stage) -> (ring, config) delays;
        # each entry is the same stage vector summed along the last axis,
        # hence bit-identical to the per-call ConfigurableRO.chain_delay.
        return np.where(
            config_masks[None, :, :], selected[:, None, :], bypass[:, None, :]
        ).sum(axis=2)

    def loo_ddiffs(self, measurements: np.ndarray) -> np.ndarray:
        """Per-unit ddiffs: the all-ones column 0 minus each leave-one-out column."""
        self._count("loo_ddiffs", measurements.size)
        return measurements[:, 0:1] - measurements[:, 1:]

    def gram_update(self, gram: np.ndarray, x: np.ndarray) -> None:
        """Fold ``x.T @ x`` into ``gram`` in place (integer, exact).

        Computed as an int64 ``einsum``: numpy runs integer ``@`` as a
        plain C loop that is ~9x slower, and float64 BLAS would oversubscribe
        the cores when pool workers run it at once (docs/pipeline.md).
        """
        self._count("gram_update", x.size)
        gram += np.einsum("ij,ik->jk", x, x)

    @staticmethod
    def _count(kernel: str, elements: int) -> None:
        """Record one kernel invocation (no-op while obs metrics are off)."""
        obs.counter_add("backend.numpy.calls")
        obs.counter_add(f"backend.numpy.{kernel}.elements", elements)

    @staticmethod
    def _validate_masked(
        values: np.ndarray, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 2:
            raise ValueError(
                f"values and mask must be equal-shape 2-D, got {values.shape} "
                f"and {mask.shape}"
            )
        return values, mask
