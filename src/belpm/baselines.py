"""Weighted k-nearest-neighbor regressor, the comparison baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewSamples
from .network import StoredPairs, _nearest, _weigh
from .series import EmbeddedDataset, _check_embedding, _check_type, _query

# Guard added to distances so an exact match dominates without dividing by zero.
DISTANCE_EPSILON = 1e-12


@dataclass(frozen=True)
class WknnModel(StoredPairs):
    """Stored training pairs plus a neighbor count (clamped to the sample
    count), and the horizon of the pairs; the inputs' width is ``r``."""

    horizon: int = 1

    def __post_init__(self):
        super().__post_init__()
        _check_embedding(self.r, self.horizon)

    @property
    def r(self) -> int:
        return self.dim

    @classmethod
    def from_dataset(cls, dataset: EmbeddedDataset, k: int) -> "WknnModel":
        _check_type("dataset", dataset, EmbeddedDataset)
        if len(dataset) == 0:
            raise TooFewSamples("training needs at least one embedded pair")
        return cls(dataset.inputs, dataset.targets, k, horizon=dataset.horizon)


def wknn_predict(model: WknnModel, query) -> float:
    """Inverse-distance weighted mean of the k nearest neighbors' targets, or
    their plain mean when all k distances overflow to inf. A query holding
    NaN or inf raises ``InvalidParameter``."""
    return float(_wknn(model, _query(query, model.r)[None])[0])


def wknn_predict_many(model: WknnModel, inputs) -> np.ndarray:
    """``wknn_predict`` for each row of an (m, r) matrix, in one search."""
    return _wknn(model, _query(inputs, model.r, batch=True))


def _wknn(model: WknnModel, queries: np.ndarray) -> np.ndarray:
    indices, distances = _nearest(model, queries)
    return _weigh(1.0 / (distances.T + DISTANCE_EPSILON), model.train_targets[indices.T])[1]
