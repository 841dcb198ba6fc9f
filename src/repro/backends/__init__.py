"""repro.backends — the dense kernels under every numerical hot path.

Response sweeps, batch enrollment, the serve coalescer dispatch and the
fleet-shard statistics all reduce to six masked-sum kernels.  They live
on :class:`~repro.backends.numpy_backend.NumpyBackend`, and the core
engines call them through the one module-level instance, :data:`kernels`.
Every kernel is bit-identical to the code it was factored out of; see
``docs/pipeline.md`` for the kernel table.
"""

from __future__ import annotations

from .numpy_backend import NumpyBackend, exact_masked_row_sums

__all__ = ["NumpyBackend", "exact_masked_row_sums", "kernels"]

#: The instance every engine dispatches through.
kernels = NumpyBackend()
