"""Inter-chip uniqueness metrics (Fig. 3 of the paper).

Different chips must produce different responses.  The standard measure is
the distribution of pairwise Hamming distances between the chips' response
bit-streams: ideally binomial with mean ``bit_count / 2``.  The paper
reports mean 46.88 / 46.79 bits and sigma 4.89 / 4.95 bits over 97
96-bit streams for Case-1 / Case-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamming import distance_histogram, pairwise_hamming_distances

__all__ = ["UniquenessReport", "uniqueness_report"]


@dataclass
class UniquenessReport:
    """Summary of the inter-chip Hamming-distance distribution.

    Attributes:
        bit_count: length of each response bit-stream.
        stream_count: number of chips/streams compared.
        mean_distance: mean pairwise HD in bits.
        std_distance: standard deviation of pairwise HD in bits.
        uniqueness_percent: normalised uniqueness ``100 * mean / bits``
            (ideal: 50%).
        histogram_distances: HD axis of the histogram.
        histogram_counts: pair counts per HD value.
    """

    bit_count: int
    stream_count: int
    mean_distance: float
    std_distance: float
    uniqueness_percent: float
    histogram_distances: np.ndarray
    histogram_counts: np.ndarray

    @property
    def pair_count(self) -> int:
        return self.stream_count * (self.stream_count - 1) // 2

    @property
    def min_distance(self) -> int:
        """Smallest observed pairwise distance (0 means a collision)."""
        nonzero = np.nonzero(self.histogram_counts)[0]
        return int(nonzero[0]) if len(nonzero) else 0

    @property
    def has_collision(self) -> bool:
        """True when two chips produced identical responses."""
        return self.histogram_counts[0] > 0 if len(self.histogram_counts) else False


def uniqueness_report(bits: np.ndarray) -> UniquenessReport:
    """Compute the inter-chip uniqueness report for a response matrix.

    Args:
        bits: boolean matrix, one row per chip.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two response rows")
    distances = pairwise_hamming_distances(bits)
    bit_count = bits.shape[1]
    axis, counts = distance_histogram(distances, bit_count)
    mean = float(np.mean(distances))
    return UniquenessReport(
        bit_count=bit_count,
        stream_count=bits.shape[0],
        mean_distance=mean,
        std_distance=float(np.std(distances)),
        uniqueness_percent=100.0 * mean / bit_count,
        histogram_distances=axis,
        histogram_counts=counts,
    )
