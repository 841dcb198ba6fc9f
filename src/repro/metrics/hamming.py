"""Hamming-distance utilities over bit matrices.

All PUF quality metrics in the paper reduce to Hamming distances between
response bit-streams: uniqueness (Fig. 3), configuration diversity
(Tables III/IV), reliability (Fig. 4).  These helpers operate on boolean
numpy arrays; rows are bit-streams.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hamming_distance",
    "pairwise_hamming_distances",
    "hamming_distance_histogram",
    "distance_histogram",
]


def _as_bit_matrix(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    if bits.dtype != bool:
        unique = np.unique(bits)
        if not np.all(np.isin(unique, (0, 1))):
            raise ValueError("bit matrix entries must be boolean or 0/1")
        bits = bits.astype(bool)
    return bits


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two equal-length bit vectors."""
    a = np.asarray(a).astype(bool).ravel()
    b = np.asarray(b).astype(bool).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.sum(a != b))


def pairwise_hamming_distances(bits: np.ndarray) -> np.ndarray:
    """All pairwise Hamming distances between the rows of a bit matrix.

    Returns a 1-D array of length ``m * (m - 1) / 2`` (condensed form,
    row-pair order matching ``itertools.combinations``).
    """
    bits = _as_bit_matrix(bits)
    m = bits.shape[0]
    if m < 2:
        return np.zeros(0, dtype=int)
    ones = bits.astype(np.int32)
    # HD(a, b) = popcount(a) + popcount(b) - 2 * dot(a, b), vectorised.
    weights = ones.sum(axis=1)
    gram = ones @ ones.T
    distances = weights[:, None] + weights[None, :] - 2 * gram
    upper = np.triu_indices(m, k=1)
    return distances[upper].astype(int)


def hamming_distance_histogram(
    bits: np.ndarray, max_distance: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of pairwise Hamming distances.

    Returns:
        (distances, counts): ``distances`` is ``0..max_distance`` and
        ``counts[i]`` the number of row pairs at distance ``i``.
    """
    bits = _as_bit_matrix(bits)
    if max_distance is None:
        max_distance = bits.shape[1]
    return distance_histogram(pairwise_hamming_distances(bits), max_distance)


def distance_histogram(
    distances: np.ndarray, max_distance: int
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of already-computed pairwise distances.

    Same ``(distances, counts)`` pair as :func:`hamming_distance_histogram`,
    for callers that also need the distances themselves.
    """
    counts = np.bincount(distances, minlength=max_distance + 1)
    return np.arange(max_distance + 1), counts[: max_distance + 1]
