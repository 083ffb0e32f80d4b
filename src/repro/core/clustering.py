"""K-means clustering (k-means++ initialisation, Lloyd iterations).

Substrate for the paper's future-work direction of grouping users by
preference before making new-arrival predictions (Section VI).  Operates
on the user-tower vectors, so clusters are taste segments in the model's
own geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["KMeansResult", "kmeans"]


@dataclass
class KMeansResult:
    """Fitted clustering.

    Attributes
    ----------
    centroids:
        ``(k, dim)`` cluster centres.
    assignments:
        Cluster index per input row.
    inertia:
        Sum of squared distances to assigned centroids.
    n_iterations:
        Lloyd iterations executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign new points to the nearest fitted centroid."""
        points = np.asarray(points, dtype=np.float64)  # repro-lint: disable=ATN002 -- centroid assignment must match fit(), which runs float64 for stable convergence
        if points.ndim != 2 or points.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"points must be (n, {self.centroids.shape[1]}), got {points.shape}"
            )
        return _affinity(points, self.centroids).argmax(axis=1)


def _affinity(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``x·c - |c|^2/2``: ``|x - c|^2 = |x|^2 - 2 * affinity``, one GEMM."""
    affinity = points @ centroids.T
    affinity -= 0.5 * (centroids ** 2).sum(axis=1)
    return affinity


def _kmeans_pp_init(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D^2.

    D^2 = ``|x|^2 - 2x·c + |c|^2`` (cached norms, one matrix-vector product
    per centroid), clamped at zero against cancellation for coincident points.
    """
    def sq_distances(centroid: np.ndarray) -> np.ndarray:
        distance = sq_norms - 2.0 * (points @ centroid)
        distance += (centroid ** 2).sum()
        return np.maximum(distance, 0.0, out=distance)

    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    closest = sq_distances(centroids[0])
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fill uniformly.
            centroids[index:] = points[rng.integers(0, n, size=k - index)]
            break
        centroids[index] = points[rng.choice(n, p=closest / total)]
        np.minimum(closest, sq_distances(centroids[index]), out=closest)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups.

    Parameters
    ----------
    points:
        ``(n, dim)`` finite float matrix.
    k:
        Number of clusters (``1 <= k <= n``).
    rng:
        Generator for seeding; a fresh default generator when omitted.
    max_iterations:
        Lloyd iteration budget.
    tolerance:
        Stop when the total centroid movement falls below this value.
    """
    points = np.asarray(points, dtype=np.float64)  # repro-lint: disable=ATN002 -- Lloyd iterations accumulate tiny centroid movements; float64 keeps the tolerance test meaningful regardless of engine dtype
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    non_finite = int(n - np.isfinite(points).all(axis=1).sum())
    if non_finite:
        raise ValueError(f"points contain {non_finite} non-finite row(s) of {n}")
    rng = rng if rng is not None else np.random.default_rng()

    sq_norms = (points ** 2).sum(axis=1)
    centroids = _kmeans_pp_init(points, sq_norms, k, rng)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        assignments = _affinity(points, centroids).argmax(axis=1)
        # Stable: each cluster's rows stay in input order, so every mean
        # sums the same rows in the same order as a boolean mask would.
        order = np.argsort(assignments, kind="stable")
        bounds = np.searchsorted(assignments[order], np.arange(k + 1))
        new_centroids = centroids.copy()
        for cluster in np.flatnonzero(np.diff(bounds)):
            members = order[bounds[cluster] : bounds[cluster + 1]]
            new_centroids[cluster] = points[members].mean(axis=0)
        movement = float(np.abs(new_centroids - centroids).sum())
        centroids = new_centroids
        if movement < tolerance:
            break

    affinity = _affinity(points, centroids)
    assignments = affinity.argmax(axis=1)
    distances = sq_norms - 2.0 * affinity[np.arange(n), assignments]
    inertia = float(np.maximum(distances, 0.0).sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iterations=iteration,
    )
