"""Independent brute-force reference forward passes built from model fields.

Written against the documented model (README "How the model works"), not
against the library's code: full distance vectors, a lexicographic
(distance, index) sort, the kernel on the k nearest, normalized weights with
a uniform fallback, then the linear fusion. A query whose k-th and (k+1)-th
distances agree to 1e-12 relative is reported as ambiguous, because rounding
alone can then decide the neighbour set.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9
_TIE_TOL = 1e-12


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b)
                and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300))


def _nearest(inputs: np.ndarray, q: np.ndarray, k: int):
    d = np.sqrt(((inputs - q) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(d.size), d))
    k = min(k, d.size)
    ambiguous = k < d.size and d[order[k]] - d[order[k - 1]] <= _TIE_TOL * d[order[k]]
    return order[:k], d[order[:k]], ambiguous


def _kernel_net(net, q: np.ndarray) -> tuple[float, bool]:
    sel, d, ambiguous = _nearest(net.train_inputs, q, net.k)
    kind = getattr(net.kernel, "value", net.kernel)
    if kind == "linear_rescale":
        raw = (d.max() - (d - d.min())) / d.max() if d.max() > 0 else np.zeros(d.size)
    elif kind == "exponential":
        raw = np.exp(-d * net.bandwidths[:d.size])
    else:
        raw = 1.0 / (1.0 + (d * net.bandwidths[:d.size]) ** 2)
    total = raw.sum()
    weights = raw / total if total > 0 else np.full(d.size, 1.0 / d.size)
    return float(weights @ net.train_targets[sel]), ambiguous


def belpm_forward(model, x) -> tuple[float, bool]:
    """Fused w1*r_a + w2*r_o + w3 for window ``x``; also the ambiguity flag."""
    x = np.asarray(x, dtype=np.float64)
    feats = np.concatenate([x, [x.max(), x.min()]])
    r_a, amb_a = _kernel_net(model.bl, feats)
    r_o, amb_o = _kernel_net(model.mo, x)
    return model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3, amb_a or amb_o


def wknn_forward(model, x) -> tuple[float, bool]:
    """Inverse-distance weighted mean of the k nearest targets."""
    sel, d, ambiguous = _nearest(model.train_inputs, np.asarray(x, dtype=np.float64), model.k)
    raw = 1.0 / (d + 1e-12)
    return float((raw / raw.sum()) @ model.train_targets[sel]), ambiguous


def classic_forward(model, x) -> tuple[float, bool]:
    """Amygdala minus orbitofrontal response, sum(v*s) - sum(w*s)."""
    x = np.asarray(x, dtype=np.float64)
    return float((model.v * x).sum() - (model.w * x).sum()), False


FORWARD = {"belpm": belpm_forward, "wknn": wknn_forward, "classic_bel": classic_forward}


def nmse(y, yhat) -> float:
    y = np.asarray(y, dtype=np.float64)
    return float(((y - yhat) ** 2).sum() / ((y - y.mean()) ** 2).sum())


def windows(values: np.ndarray, r: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Delay-embedded (inputs, targets) of a series, written out directly."""
    n = values.size - r - horizon + 1
    inputs = np.stack([values[j:j + r] for j in range(n)])
    return inputs, values[r - 1 + horizon:]
