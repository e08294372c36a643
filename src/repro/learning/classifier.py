"""Nearest-centroid recognition and embedding-space deduplication.

- :class:`NearestCentroidClassifier` — the recognition model: maintains a
  centroid *estimate* per identity and classifies an embedding to the
  nearest estimate within an acceptance radius (else "unknown"). Estimates
  improve as labeled observations accumulate — the hook continuous learning
  (Fig 15) exploits.
- :class:`DeduplicationEngine` — S5/Scenario B: greedy threshold clustering
  of face embeddings across devices to count unique people.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["NearestCentroidClassifier", "DeduplicationEngine"]


class NearestCentroidClassifier:
    """Incremental nearest-centroid model with an acceptance radius."""

    def __init__(self, dim: int, accept_radius: float = 0.8):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if accept_radius <= 0:
            raise ValueError("acceptance radius must be positive")
        self.dim = dim
        self.accept_radius = accept_radius
        self._sums: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, int] = {}
        # Stacked centroid estimates (ascending identity order) for
        # vectorized predict: a retrain overwrites its identity's row, a
        # new identity drops the matrix for a rebuild.
        self._matrix_ids: List[int] = []
        self._rows: Dict[int, int] = {}
        self._matrix: Optional[np.ndarray] = None

    @property
    def known_identities(self) -> List[int]:
        return sorted(self._sums)

    def observations_of(self, identity: int) -> int:
        return self._counts.get(identity, 0)

    def _checked(self, embedding: np.ndarray) -> np.ndarray:
        embedding = np.asarray(embedding, dtype=float)
        if embedding.shape != (self.dim,):
            raise ValueError(
                f"embedding shape {embedding.shape} != ({self.dim},)")
        if not np.isfinite(embedding).all():
            raise ValueError("embedding has non-finite values")
        return embedding

    def add_observation(self, identity: int,
                        embedding: np.ndarray) -> None:
        """Fold one labeled observation into the identity's estimate."""
        embedding = self._checked(embedding)
        if identity in self._sums:
            total = self._sums[identity]
            total += embedding
            self._counts[identity] += 1
            if self._matrix is not None:
                self._matrix[self._rows[identity]] = (
                    total / self._counts[identity])
        else:
            self._sums[identity] = embedding.copy()
            self._counts[identity] = 1
            self._matrix = None

    def centroid_estimate(self, identity: int) -> np.ndarray:
        if identity not in self._sums:
            raise KeyError(f"unknown identity {identity}")
        return self._sums[identity] / self._counts[identity]

    def _centroid_matrix(self) -> Optional[np.ndarray]:
        if not self._sums:
            return None
        if self._matrix is None:
            self._matrix_ids = sorted(self._sums)
            self._rows = {identity: row for row, identity
                          in enumerate(self._matrix_ids)}
            self._matrix = np.stack([
                self._sums[i] / self._counts[i] for i in self._matrix_ids])
        return self._matrix

    def predict(self, embedding: np.ndarray) -> Optional[int]:
        """Nearest identity within the acceptance radius, else None."""
        embedding = self._checked(embedding)
        matrix = self._centroid_matrix()
        if matrix is None:
            return None
        distances = np.linalg.norm(matrix - embedding, axis=1)
        best = int(np.argmin(distances))
        if distances[best] > self.accept_radius:
            return None
        return self._matrix_ids[best]


class DeduplicationEngine:
    """Counts unique entities from embeddings via threshold clustering.

    Greedy: an embedding joins the first cluster whose running centroid is
    within ``merge_radius``; otherwise it founds a new cluster. The unique
    count is the number of clusters — Scenario B's "number of unique people".

    All cluster distances come from one row-wise norm over the centroid
    matrix. That norm can differ from the scalar ``np.linalg.norm`` of one
    row by an ulp, so a cluster within :attr:`CONFIRM_BAND` of the radius
    is confirmed with the scalar distance, in index order.
    """

    CONFIRM_BAND = 1e-9

    def __init__(self, merge_radius: float = 0.8):
        if merge_radius <= 0:
            raise ValueError("merge radius must be positive")
        self.merge_radius = merge_radius
        self._sums: List[np.ndarray] = []
        self._counts: List[int] = []
        # Running centroids, one row per cluster, grown by doubling.
        self._centroids: Optional[np.ndarray] = None
        self.observations = 0

    def add(self, embedding: np.ndarray) -> int:
        """Assign the embedding to a cluster; returns the cluster index."""
        embedding = np.asarray(embedding, dtype=float)
        centroids = self._centroids
        if centroids is None:
            if embedding.ndim != 1 or not embedding.size:
                raise ValueError(
                    f"embedding shape {embedding.shape} is not a 1-D vector")
        elif embedding.shape != centroids.shape[1:]:
            raise ValueError(f"embedding shape {embedding.shape} != "
                             f"({centroids.shape[1]},)")
        if not np.isfinite(embedding).all():
            raise ValueError("embedding has non-finite values")
        self.observations += 1
        clusters = len(self._sums)
        if clusters:
            radius = self.merge_radius
            distances = np.linalg.norm(centroids[:clusters] - embedding,
                                       axis=1)
            near = distances <= radius + self.CONFIRM_BAND
            for index in np.flatnonzero(near).tolist():
                if (distances[index] > radius - self.CONFIRM_BAND and
                        float(np.linalg.norm(centroids[index] - embedding))
                        > radius):
                    continue
                total = self._sums[index]
                total += embedding
                self._counts[index] += 1
                centroids[index] = total / self._counts[index]
                return index
        if centroids is None:
            centroids = self._centroids = np.empty((8, embedding.size))
        elif clusters == len(centroids):
            grown = np.empty((2 * clusters, centroids.shape[1]))
            grown[:clusters] = centroids
            centroids = self._centroids = grown
        centroids[clusters] = embedding
        self._sums.append(embedding.copy())
        self._counts.append(1)
        return clusters

    def add_all(self, embeddings: Sequence[np.ndarray]) -> None:
        for embedding in embeddings:
            self.add(embedding)

    @property
    def unique_count(self) -> int:
        return len(self._sums)

    def cluster_sizes(self) -> List[int]:
        return list(self._counts)
