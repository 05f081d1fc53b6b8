"""Weighted k-nearest-neighbor regressor, the comparison baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import StoredPairs, _nearest, _weigh
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
    return float(_wknn(model, _query(query, model.dim)[None])[0])


def wknn_predict_many(model: WknnModel, inputs) -> np.ndarray:
    """``wknn_predict`` for each row of an (m, r) matrix, in one search."""
    return _wknn(model, _query(inputs, model.dim, batch=True))


def _wknn(model: WknnModel, queries: np.ndarray) -> np.ndarray:
    indices, distances = _nearest(model, queries)
    return _weigh(1.0 / (distances.T + DISTANCE_EPSILON), model.train_targets[indices.T])[1]
