"""Classic linear amygdala-orbitofrontal learner, kept as a baseline.

Two weight banks see the same stimulus: the amygdala bank V accumulates
associations and never unlearns (its update clamps at zero once its summed
output reaches the reinforcement), while the orbitofrontal bank W tracks the
signed output error and inhibits whatever the amygdala over-predicts. The
model output is the difference of the two summed responses.

Training can diverge past the float range. Each public call runs under one
``np.errstate`` that silences numpy's overflow and invalid warnings, and
``bel_train`` warns once (``UserWarning``) when it returns non-finite weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, TooFewSamples
from .series import EmbeddedDataset, _frozen_f64, _query


@dataclass(frozen=True)
class ClassicBelModel:
    """Per-component weights for the excitatory (v) and inhibitory (w) banks."""

    v: np.ndarray
    w: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        # Training can diverge to non-finite weights; they are kept as they are.
        v, w = _frozen_f64(self.v, ndim=1), _frozen_f64(self.w, ndim=1)
        if v.shape != w.shape:
            raise InvalidParameter("v and w must be 1-D arrays of equal length")
        if not 0.0 < self.alpha <= 1.0 or not 0.0 < self.beta <= 1.0:
            raise InvalidParameter("alpha and beta must lie in (0, 1]")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @classmethod
    def zeros(cls, dim: int, alpha: float = 0.5, beta: float = 0.5) -> "ClassicBelModel":
        return cls(v=np.zeros(dim), w=np.zeros(dim), alpha=alpha, beta=beta)

    @property
    def dim(self) -> int:
        return self.v.size


def bel_forward(model: ClassicBelModel, s) -> tuple[float, np.ndarray, np.ndarray]:
    """Output E = sum(A) - sum(O) with per-node responses A = v*s, O = w*s."""
    arr = _query(s, model.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        a = model.v * arr
        o = model.w * arr
        return float(a.sum() - o.sum()), a, o


def _step(v, w, alpha, beta, s, rew):
    """Weight arrays ``v`` and ``w`` after one update on stimulus array ``s``."""
    a_sum = (v * s).sum()
    e = a_sum - (w * s).sum()
    return v + alpha * s * max(0.0, rew - a_sum), w + beta * s * (e - rew)


def bel_update(model: ClassicBelModel, s, rew: float) -> ClassicBelModel:
    """One associative update toward reinforcement ``rew``, a finite number.

    The amygdala step is alpha * s * max(0, rew - sum(A)); the orbitofrontal
    step is beta * s * (E - rew), which keeps E = rew as the stable fixed
    point. Both use the pre-update responses.
    """
    if not np.isfinite(rew):
        raise InvalidParameter(f"reinforcement must be finite, got {rew}")
    with np.errstate(over="ignore", invalid="ignore"):
        v, w = _step(model.v, model.w, model.alpha, model.beta, _query(s, model.dim), float(rew))
    return replace(model, v=v, w=w)


def bel_train(model: ClassicBelModel, dataset: EmbeddedDataset, epochs: int) -> ClassicBelModel:
    """``bel_update`` over the dataset's pairs in order, repeated ``epochs``
    times; a dataset with no pairs raises ``TooFewSamples``. Warns once when
    the returned weights are not finite."""
    if epochs < 0:
        raise InvalidParameter(f"epochs must be >= 0, got {epochs}")
    if len(dataset) == 0:
        raise TooFewSamples("training needs at least one embedded pair")
    v, w, inputs = model.v, model.w, _query(dataset.inputs, model.dim, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for s, rew in zip(inputs, dataset.targets.tolist()):
                v, w = _step(v, w, model.alpha, model.beta, s, rew)
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        warnings.warn("classic BEL training diverged: its weights are not finite",
                      UserWarning, stacklevel=2)
    return replace(model, v=v, w=w)


def bel_predict(model: ClassicBelModel, s) -> float:
    """Model output for a stimulus (forward pass, weights frozen)."""
    e, _, _ = bel_forward(model, s)
    return e


def bel_predict_many(model: ClassicBelModel, inputs) -> np.ndarray:
    """``bel_predict`` for each row of an (m, r) matrix, bit for bit."""
    x = _query(inputs, model.dim, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return (x * model.v).sum(1) - (x * model.w).sum(1)
