"""The full prediction pipeline built from two adaptive networks.

Signal path for a query vector: a thalamic stage appends the window's max and
min to the raw stimulus, the primary (BL) network predicts the target from
that widened feature vector, the secondary (MO) network predicts the primary
network's own error from the raw stimulus, and a fusion stage combines the
two responses linearly. Training is hybrid: steepest descent fits each
network's kernel bandwidths on its leave-one-out loss, then regularized least
squares fits the fusion weights: normal equations summed over the samples in
plain order, solved by a written-out 3x3 Cholesky in Python floats, so the
default fit makes no BLAS or LAPACK call. LAPACK's least squares serves only
ridge=0 and a system whose Cholesky pivot vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    LengthMismatch,
    SingularSystem,
    TooFewSamples,
)
from .network import AdaptiveNetwork, KernelKind, _forward_many, _sample_sum, train_bandwidths_sd
from .series import EmbeddedDataset, TimeSeries, _check_embedding, _query, embed

# Relative tolerance for verifying an unregularized normal-equation solution;
# beyond it the system counts as numerically singular.
_NORMAL_EQ_TOL = 1e-10
# A Cholesky pivot at or below this share of the normal equations' largest
# diagonal entry sends a ridge > 0 system to least squares.
_PIVOT_FLOOR = 3 * 2.0 ** -52


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
    """Training hyperparameters for both networks and the fusion fit. ``epochs``
    is an upper bound: each descent ends after an epoch that lowers its finite
    loss by at most ``network._SD_RTOL`` (1e-6) of it."""

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
        _check_embedding(self.r, self.horizon)
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
    3x3 normal equations, whose eight sums (``_normal_equations``) run over
    the samples in plain order. With ridge > 0 a written-out Cholesky in
    Python floats solves them, unless a pivot is not above ``_PIVOT_FLOOR``
    times the largest diagonal entry; that system, and every ridge=0 one, goes
    to LAPACK's least squares, so only those depend on the numpy build.
    Rank-deficient designs resolve to the minimum-norm minimizer.
    ``SingularSystem`` means the normal equations or weights are not finite,
    or at ridge=0 even that minimizer fails them numerically (retry ridge > 0).
    """
    ra = np.asarray(r_a_list, dtype=np.float64)
    ro = np.asarray(r_o_list, dtype=np.float64)
    ru = np.asarray(r_u_list, dtype=np.float64)
    if not ra.shape == ro.shape == ru.shape or ra.ndim != 1 or ra.size < 1:
        raise LengthMismatch("response sequences must be equal-length and non-empty")
    if not 0 <= ridge < np.inf:
        raise InvalidParameter(f"ridge must be >= 0 and finite, got {ridge}")
    a, b = _normal_equations(ra, ro, ru, ridge)
    if not all(map(math.isfinite, (*a[0], *a[1], *a[2], *b))):
        # LAPACK's least squares can spin without end on a non-finite system.
        raise SingularSystem("normal equations are not finite; rescale the data")
    w = _cholesky_solve(a, b) if ridge > 0.0 else None
    if w is None:
        w = _lstsq(np.array(a), np.array(b))
    if not all(map(math.isfinite, w)):
        raise SingularSystem("normal equations produced non-finite weights; rescale the data")
    if ridge == 0.0:
        a, v = np.array(a), np.array(w)
        with np.errstate(over="ignore", invalid="ignore"):  # inf scale accepts, NaN miss refuses
            scale = max(float(np.abs(a).max() * np.abs(v).max()), max(map(abs, b)), 1.0)
            miss = float(np.abs(a @ v - b).max())
        if not miss <= _NORMAL_EQ_TOL * scale:
            raise SingularSystem("normal equations are numerically singular; use ridge > 0")
    return CmWeights(w1=w[0], w2=w[1], w3=w[2])


def _normal_equations(ra: np.ndarray, ro: np.ndarray, ru: np.ndarray, ridge: float):
    """The 3x3 normal equations of the fusion fit, with ridge on the diagonal,
    as nested tuples of Python floats: one ``_sample_sum`` over the stacked
    products ra*ra, ra*ro, ra, ro*ro, ro, ra*ru, ro*ru, ru, and n for the
    intercept's entry."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the caller
        sums = _sample_sum(np.stack([ra * ra, ra * ro, ra, ro * ro, ro, ra * ru, ro * ru, ru]))
    aa, ao, a1, oo, o1, au, ou, u1 = sums.tolist()
    a = ((aa + ridge, ao, a1), (ao, oo + ridge, o1), (a1, o1, ra.size + ridge))
    return a, (au, ou, u1)


def _cholesky_solve(a, b):
    """Solution of the symmetric 3x3 system ``a w = b`` by Cholesky in Python
    floats, or None when a pivot is not above ``_PIVOT_FLOOR`` times the
    largest diagonal entry."""
    (a11, a12, a13), (_, a22, a23), (_, _, a33) = a
    floor = _PIVOT_FLOOR * max(a11, a22, a33)
    if not a11 > floor:
        return None
    l11 = math.sqrt(a11)
    l21, l31 = a12 / l11, a13 / l11
    p2 = a22 - l21 * l21
    if not p2 > floor:
        return None
    l22 = math.sqrt(p2)
    l32 = (a23 - l31 * l21) / l22
    p3 = a33 - l31 * l31 - l32 * l32
    if not p3 > floor:
        return None
    l33 = math.sqrt(p3)
    y1 = b[0] / l11
    y2 = (b[1] - l21 * y1) / l22
    y3 = (b[2] - l31 * y1 - l32 * y2) / l33
    w3 = y3 / l33
    w2 = (y2 - l32 * w3) / l22
    return (y1 - l21 * w2 - l31 * w3) / l11, w2, w3


def _lstsq(a: np.ndarray, b: np.ndarray):
    """LAPACK's minimum-norm least-squares solution of the finite system ``a w = b``."""
    try:
        w, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return w.tolist()


def train(train_set: EmbeddedDataset, config: BelpmConfig = BelpmConfig()) -> BelpmModel:
    """Fit the full pipeline on embedded training pairs.

    In order: build the widened features and descend the primary network's
    bandwidths on its leave-one-out loss (``train_bandwidths_sd``, which also
    gives its leave-one-out responses); fit the secondary network to their
    residuals (independent descent); then least-squares fit the fusion
    weights over the two networks' leave-one-out responses. Each descent runs
    at most ``config.epochs`` epochs and ends after one that lowers its finite
    loss by at most ``network._SD_RTOL`` (1e-6) of it. Deterministic for fixed
    data and config.
    """
    if len(train_set) < 2:
        raise TooFewSamples("training needs at least two embedded pairs")
    bl = AdaptiveNetwork(_bl_feature_matrix(train_set.inputs), train_set.targets,
                         k=config.k_a, kernel=config.bl_kernel)
    bl, _, r_a = train_bandwidths_sd(bl, lr=config.lr, epochs=config.epochs)
    residuals = train_set.targets - r_a

    mo = AdaptiveNetwork(train_set.inputs, residuals, k=config.k_o, kernel=config.mo_kernel)
    mo, _, r_o = train_bandwidths_sd(mo, lr=config.lr, epochs=config.epochs)
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
    return TimeSeries(preds, start_time=dataset.start_time, step=dataset.step)
