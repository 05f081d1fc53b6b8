"""Weighted k-nearest-neighbor regressor, the comparison baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import StoredPairs, _nearest, _nearest_one
from .series import EmbeddedDataset, _query

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


def wknn_predict_many(model: WknnModel, inputs) -> np.ndarray:
    """``wknn_predict`` for each row of an (m, r) matrix, bit for bit, in one
    search: a stacked matmul takes each row's dot as the 1-D ``@`` does."""
    indices, distances = _nearest(model, _query(inputs, model.dim, batch=True))
    raw = 1.0 / (distances + DISTANCE_EPSILON)
    total = raw.sum(axis=1, keepdims=True)
    live = total > 0.0
    weights = np.where(live, raw / np.where(live, total, 1.0), 1.0 / raw.shape[1])
    return np.matmul(weights[:, None, :], model.train_targets[indices][:, :, None])[:, 0, 0]
