"""Weighted k-nearest-neighbor regressor, the comparison baseline."""

from __future__ import annotations

from dataclasses import dataclass

from .network import StoredPairs, euclidean_distances, select_k_min
from .series import EmbeddedDataset

# Guard added to distances so an exact match dominates without dividing by zero.
DISTANCE_EPSILON = 1e-12


@dataclass(frozen=True)
class WknnModel(StoredPairs):
    """Stored training pairs plus a neighbor count (clamped to the sample count)."""

    @classmethod
    def from_dataset(cls, dataset: EmbeddedDataset, k: int) -> "WknnModel":
        return cls(dataset.inputs, dataset.targets, k)


def wknn_predict(model: WknnModel, query) -> float:
    """Inverse-distance weighted mean of the k nearest neighbors' targets."""
    nb = select_k_min(euclidean_distances(query, model), model.k)
    raw = 1.0 / (nb.distances + DISTANCE_EPSILON)
    weights = raw / raw.sum()  # normalize first so k=1 recalls targets exactly
    return float(weights @ model.train_targets[nb.indices])
