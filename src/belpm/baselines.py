"""Weighted k-nearest-neighbor regressor, the comparison baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import StoredPairs, _nearest_one
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
    """Inverse-distance weighted mean of the k nearest neighbors' targets, or
    their plain mean when all k distances overflow to inf. A query holding
    NaN or inf raises ``InvalidParameter``."""
    indices, distances = _nearest_one(model, query)
    raw = 1.0 / (distances + DISTANCE_EPSILON)
    total = raw.sum()  # normalize first so k=1 recalls targets exactly
    weights = raw / total if total > 0.0 else np.full(indices.size, 1.0 / indices.size)
    return float(weights @ model.train_targets[indices])
