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
from .series import (EmbeddedDataset, _check_embedding, _check_int, _check_type, _frozen_f64, _query,
                     _real)


@dataclass(frozen=True)
class ClassicBelModel:
    """Per-component weights for the excitatory (v) and inhibitory (w) banks,
    and the horizon of the pairs trained on; the input width is ``r``."""

    v: np.ndarray
    w: np.ndarray
    alpha: float
    beta: float
    horizon: int = 1

    def __post_init__(self):
        # Training can diverge to non-finite weights; they are kept as they are.
        v, w = _frozen_f64(self.v, 1, "v", finite=False), _frozen_f64(self.w, 1, "w", finite=False)
        if v.shape != w.shape:
            raise InvalidParameter("v and w must be 1-D arrays of equal length")
        for name in ("alpha", "beta"):
            _real(name, getattr(self, name), lambda x: 0.0 < x <= 1.0, "lie in (0, 1]")
        _check_embedding(v.size, self.horizon)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @classmethod
    def zeros(cls, dim: int, alpha: float = 0.5, beta: float = 0.5) -> "ClassicBelModel":
        _check_int("dim", dim)
        return cls(v=np.zeros(dim), w=np.zeros(dim), alpha=alpha, beta=beta)

    @property
    def r(self) -> int:
        return self.v.size


def bel_forward(model: ClassicBelModel, s) -> tuple[float, np.ndarray, np.ndarray]:
    """Output E = sum(A) - sum(O) with per-node responses A = v*s, O = w*s."""
    arr = _query(s, model.r)
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
    _real("reinforcement", rew, np.isfinite, "be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        v, w = _step(model.v, model.w, model.alpha, model.beta, _query(s, model.r), float(rew))
    return replace(model, v=v, w=w)


def bel_train(model: ClassicBelModel, dataset: EmbeddedDataset, epochs: int) -> ClassicBelModel:
    """``bel_update`` over the dataset's pairs in order, repeated ``epochs``
    times, recording the dataset's horizon; a dataset with no pairs raises
    ``TooFewSamples``. Warns once when the returned weights are not finite."""
    _check_type("dataset", dataset, EmbeddedDataset)
    _check_int("epochs", epochs, 0)
    if len(dataset) == 0:
        raise TooFewSamples("training needs at least one embedded pair")
    v, w, inputs = model.v, model.w, _query(dataset.inputs, model.r, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for s, rew in zip(inputs, dataset.targets.tolist()):
                v, w = _step(v, w, model.alpha, model.beta, s, rew)
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        warnings.warn("classic BEL training diverged: its weights are not finite",
                      UserWarning, stacklevel=2)
    return replace(model, v=v, w=w, horizon=dataset.horizon)


def bel_predict(model: ClassicBelModel, s) -> float:
    """Model output for a stimulus (forward pass, weights frozen)."""
    e, _, _ = bel_forward(model, s)
    return e


def bel_predict_many(model: ClassicBelModel, inputs) -> np.ndarray:
    """``bel_predict`` for each row of an (m, r) matrix, bit for bit."""
    x = _query(inputs, model.r, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return (x * model.v).sum(1) - (x * model.w).sum(1)
