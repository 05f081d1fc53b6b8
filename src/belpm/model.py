"""The full prediction pipeline built from two adaptive networks.

Signal path for a query vector: a thalamic stage appends the window's max and
min to the raw stimulus, the primary (BL) network predicts the target from
that widened feature vector, the secondary (MO) network predicts the primary
network's own error from the raw stimulus, and a fusion stage combines the
two responses linearly. Training is hybrid: steepest descent fits each
network's kernel bandwidths on its leave-one-out loss, then regularized least
squares fits the fusion weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    LengthMismatch,
    SingularSystem,
    TooFewSamples,
)
from .network import AdaptiveNetwork, KernelKind, _forward_many, _train_sd_loo, forward
from .series import EmbeddedDataset, TimeSeries, embed

# Relative tolerance for verifying an unregularized normal-equation solution;
# beyond it the system counts as numerically singular.
_NORMAL_EQ_TOL = 1e-10


@dataclass(frozen=True)
class CmWeights:
    """Fusion weights of the fused response w1 * r_a + w2 * r_o + w3."""

    w1: float
    w2: float
    w3: float


@dataclass(frozen=True)
class BelpmConfig:
    """Training hyperparameters for both networks and the fusion fit."""

    k_a: int = 8
    k_o: int = 8
    bl_kernel: KernelKind = KernelKind.EXPONENTIAL
    mo_kernel: KernelKind = KernelKind.EXPONENTIAL
    lr: float = 0.05
    epochs: int = 50
    ridge: float = 1e-8

    def __post_init__(self):
        if self.k_a < 1 or self.k_o < 1:
            raise InvalidParameter("neighbor counts must be >= 1")
        if self.lr <= 0:
            raise InvalidParameter(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise InvalidParameter(f"epochs must be >= 0, got {self.epochs}")
        if self.ridge < 0:
            raise InvalidParameter(f"ridge must be >= 0, got {self.ridge}")


@dataclass(frozen=True)
class BelpmModel:
    """Trained artifact: both networks, fusion weights, and the embedding shape."""

    r: int
    horizon: int
    bl: AdaptiveNetwork
    mo: AdaptiveNetwork
    cm: CmWeights
    config: BelpmConfig = field(default_factory=BelpmConfig)

    def __post_init__(self):
        if self.bl.dim != self.r + 2:
            raise InvalidParameter(
                f"primary network expects dimension r+2={self.r + 2}, got {self.bl.dim}"
            )
        if self.mo.dim != self.r:
            raise InvalidParameter(
                f"secondary network expects dimension r={self.r}, got {self.mo.dim}"
            )
        if self.bl.n_samples != self.mo.n_samples:
            raise InvalidParameter("both networks must store the same sample count")


def _bl_feature_matrix(inputs: np.ndarray) -> np.ndarray:
    """Primary-network features: each window (last axis) followed by its max
    and min. Serves a single window and a matrix of windows alike."""
    return np.concatenate([inputs, inputs.max(axis=-1, keepdims=True),
                           inputs.min(axis=-1, keepdims=True)], axis=-1)


def cm_lse_fit(r_a_list, r_o_list, r_u_list, ridge: float = 1e-8) -> CmWeights:
    """Least-squares fit of the fusion weights over per-sample responses.

    Minimizes sum((w1*r_a + w2*r_o + w3 - r_u)^2) + ridge * |w|^2 through the
    3x3 normal equations. Rank-deficient designs resolve to the minimum-norm
    minimizer; ``SingularSystem`` is raised only when, at ridge=0, even that
    fails to satisfy the normal equations numerically (retry with ridge > 0).
    """
    ra = np.asarray(r_a_list, dtype=np.float64)
    ro = np.asarray(r_o_list, dtype=np.float64)
    ru = np.asarray(r_u_list, dtype=np.float64)
    if not ra.shape == ro.shape == ru.shape or ra.ndim != 1 or ra.size < 1:
        raise LengthMismatch("response sequences must be equal-length and non-empty")
    if ridge < 0:
        raise InvalidParameter(f"ridge must be >= 0, got {ridge}")
    x = np.column_stack([ra, ro, np.ones(ra.size)])
    a = x.T @ x + ridge * np.eye(3)
    b = x.T @ ru
    try:
        w, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if ridge == 0.0:
        if not np.all(np.isfinite(w)):
            raise SingularSystem("normal equations produced non-finite weights; "
                                 "use ridge > 0")
        scale = max(float(np.abs(a).max() * np.abs(w).max()),
                    float(np.abs(b).max()), 1.0)
        if float(np.abs(a @ w - b).max()) > _NORMAL_EQ_TOL * scale:
            raise SingularSystem("normal equations are numerically singular; "
                                 "use ridge > 0")
    return CmWeights(w1=float(w[0]), w2=float(w[1]), w3=float(w[2]))


def train(train_set: EmbeddedDataset, config: BelpmConfig = BelpmConfig()) -> BelpmModel:
    """Fit the full pipeline on embedded training pairs.

    In order: build the widened features and descend the primary network's
    bandwidths on its leave-one-out loss; take the leave-one-out primary
    responses and their residuals; fit the secondary network to those
    residuals (independent descent); then least-squares fit the fusion
    weights over the two networks' leave-one-out responses. Deterministic
    for fixed data and config.
    """
    if len(train_set) < 2:
        raise TooFewSamples("training needs at least two embedded pairs")
    bl = AdaptiveNetwork(_bl_feature_matrix(train_set.inputs), train_set.targets,
                         k=config.k_a, kernel=config.bl_kernel)
    bl, _, r_a = _train_sd_loo(bl, lr=config.lr, epochs=config.epochs)
    residuals = train_set.targets - r_a

    mo = AdaptiveNetwork(train_set.inputs, residuals, k=config.k_o, kernel=config.mo_kernel)
    mo, _, r_o = _train_sd_loo(mo, lr=config.lr, epochs=config.epochs)
    cm = cm_lse_fit(r_a, r_o, train_set.targets, ridge=config.ridge)
    return BelpmModel(r=train_set.r, horizon=train_set.horizon,
                      bl=bl, mo=mo, cm=cm, config=config)


def predict(model: BelpmModel, i) -> float:
    """Fused prediction w1 * r_a + w2 * r_o + w3 for one query vector."""
    arr = np.asarray(i, dtype=np.float64)
    if arr.shape != (model.r,):
        raise DimensionMismatch(
            f"query has shape {arr.shape}, model expects ({model.r},)"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("query must be finite")
    r_a, _ = forward(model.bl, _bl_feature_matrix(arr))
    r_o, _ = forward(model.mo, arr)
    return model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3


def predict_many(model: BelpmModel, inputs) -> np.ndarray:
    """``predict`` for each row of an (m, r) matrix of query vectors, bit for
    bit, with the neighbor search run over blocks of rows."""
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.r:
        raise DimensionMismatch(
            f"queries have shape {arr.shape}, model expects (m, {model.r})"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("query must be finite")
    r_a = _forward_many(model.bl, _bl_feature_matrix(arr))
    r_o = _forward_many(model.mo, arr)
    return model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3


def predict_series(model: BelpmModel, series: TimeSeries) -> TimeSeries:
    """One prediction per embeddable window of ``series``.

    Only the direct multi-step strategy is supported: the lookahead is baked
    into the model's embedding, one model per horizon. The output series
    starts at the epoch of the first predictable target, so it aligns
    index-for-index with the observed values it forecasts.
    """
    dataset = embed(series, model.r, model.horizon)
    preds = predict_many(model, dataset.inputs)
    start = series.start_time + (model.r - 1 + model.horizon) * series.step
    return TimeSeries(preds, start_time=start, step=series.step)
