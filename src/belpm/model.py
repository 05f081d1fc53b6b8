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

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    LengthMismatch,
    SingularSystem,
    TooFewSamples,
)
from .network import AdaptiveNetwork, KernelKind, _forward_many, _train_sd_loo
from .series import EmbeddedDataset, TimeSeries, _query, embed

# Relative tolerance for verifying an unregularized normal-equation solution;
# beyond it the system counts as numerically singular.
_NORMAL_EQ_TOL = 1e-10


@dataclass(frozen=True)
class CmWeights:
    """Fusion weights of the fused response w1 * r_a + w2 * r_o + w3; all finite."""

    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        if not np.isfinite([self.w1, self.w2, self.w3]).all():
            raise InvalidParameter(f"fusion weights must be finite, got {self}")


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
        if not 0 < self.lr < np.inf:
            raise InvalidParameter(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 0:
            raise InvalidParameter(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.ridge < np.inf:
            raise InvalidParameter(f"ridge must be >= 0 and finite, got {self.ridge}")


@dataclass(frozen=True)
class BelpmModel:
    """Trained artifact: both networks, fusion weights, and the embedding shape.
    The primary network stores exactly the thalamic features of the secondary
    network's windows, so the windows are the one copy of the training inputs."""

    r: int
    horizon: int
    bl: AdaptiveNetwork
    mo: AdaptiveNetwork
    cm: CmWeights

    def __post_init__(self):
        if self.mo.dim != self.r:
            raise InvalidParameter(
                f"secondary network expects dimension r={self.r}, got {self.mo.dim}"
            )
        if not np.array_equal(self.bl.train_inputs, _bl_feature_matrix(self.mo.train_inputs)):
            raise InvalidParameter("primary network must store each window, its max and min")


def _bl_feature_matrix(inputs: np.ndarray) -> np.ndarray:
    """Primary-network features: each window (last axis) followed by its max
    and min. Serves a single window and a matrix of windows alike."""
    return np.concatenate([inputs, inputs.max(axis=-1, keepdims=True),
                           inputs.min(axis=-1, keepdims=True)], axis=-1)


def cm_lse_fit(r_a_list, r_o_list, r_u_list, ridge: float = 1e-8) -> CmWeights:
    """Least-squares fit of the fusion weights over per-sample responses.

    Minimizes sum((w1*r_a + w2*r_o + w3 - r_u)^2) + ridge * |w|^2 through the
    3x3 normal equations. Rank-deficient designs resolve to the minimum-norm
    minimizer. ``SingularSystem`` means the normal equations are not finite,
    or at ridge=0 even that minimizer fails them numerically (retry ridge > 0).
    """
    ra = np.asarray(r_a_list, dtype=np.float64)
    ro = np.asarray(r_o_list, dtype=np.float64)
    ru = np.asarray(r_u_list, dtype=np.float64)
    if not ra.shape == ro.shape == ru.shape or ra.ndim != 1 or ra.size < 1:
        raise LengthMismatch("response sequences must be equal-length and non-empty")
    if not 0 <= ridge < np.inf:
        raise InvalidParameter(f"ridge must be >= 0 and finite, got {ridge}")
    x = np.column_stack([ra, ro, np.ones(ra.size)])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        a = x.T @ x + ridge * np.eye(3)
        b = x.T @ ru
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # LAPACK's least squares can spin without end on a non-finite system.
        raise SingularSystem("normal equations are not finite; rescale the data")
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
                      bl=bl, mo=mo, cm=cm)


def predict(model: BelpmModel, i) -> float:
    """Fused prediction w1 * r_a + w2 * r_o + w3 for one query vector."""
    return float(_fuse(model, _query(i, model.r)[None])[0])


def predict_many(model: BelpmModel, inputs) -> np.ndarray:
    """``predict`` for each row of an (m, r) matrix of query vectors, bit for
    bit, with the neighbor search run over blocks of rows."""
    return _fuse(model, _query(inputs, model.r, batch=True))


def _fuse(model: BelpmModel, arr: np.ndarray) -> np.ndarray:
    """Fused predictions for the rows of a checked (m, r) query matrix."""
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
