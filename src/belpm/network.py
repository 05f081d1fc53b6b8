"""Kernel-weighted nearest-neighbor network with trainable per-rank bandwidths.

A network stores its training pairs and answers a query in four stages:
rank the stored samples by Euclidean distance, evaluate a kernel on the k
smallest distances (one bandwidth per neighbor rank), normalize the kernel
values into weights, and return the weighted sum of the selected neighbors'
targets. The bandwidths are the only learnable parameters; they are fitted
by steepest descent on the leave-one-out squared error, with backtracking
so the loss never ends above where it started.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NoEligibleSamples,
    TooFewSamples,
    UnsupportedKernel,
)
from .series import _frozen_f64

# Lower bound keeping parametric kernels parametric during descent.
BANDWIDTH_FLOOR = 1e-8
_MAX_BACKTRACKS = 30
# Distances computed at once by the batched neighbor search (8 query rows at
# n = 2000). Larger blocks add memory and save little time.
_BLOCK_DISTANCES = 2 ** 14


class KernelKind(enum.Enum):
    """Kernel applied to a neighbor distance scaled by its rank's bandwidth."""

    EXPONENTIAL = "exponential"          # exp(-d * b)
    INVERSE_QUADRATIC = "inverse_quadratic"  # 1 / (1 + (d * b)^2)
    LINEAR_RESCALE = "linear_rescale"    # (max - (d - min)) / max, no parameter

    @property
    def parametric(self) -> bool:
        return self is not KernelKind.LINEAR_RESCALE

    @classmethod
    def from_name(cls, name: str) -> "KernelKind":
        try:
            return cls(name)
        except ValueError:
            raise UnsupportedKernel(f"unknown kernel {name!r}") from None


@dataclass(frozen=True)
class NeighborSet:
    """Indices of the selected training samples and their distances, ascending."""

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class StoredPairs:
    """Training pairs kept by a memory-based model, and its neighbor count.

    Inputs and targets become read-only float64 copies and must be finite,
    and ``k`` is clamped to the stored sample count at construction. Inputs
    are stored column-major: ``train_inputs.T`` is a C-contiguous (d, n) array.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    k: int

    def __post_init__(self):
        inputs = _frozen_f64(np.asfortranarray(self.train_inputs, dtype=np.float64), ndim=2)
        targets = _frozen_f64(self.train_targets, ndim=1)
        if 0 in inputs.shape:
            raise InvalidParameter("train_inputs must be a non-empty (n, d) array")
        if targets.shape != (inputs.shape[0],):
            raise InvalidParameter("train_targets must align with train_inputs")
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise InvalidParameter("stored inputs and targets must be finite")
        if self.k < 1:
            raise InvalidParameter(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "train_inputs", inputs)
        object.__setattr__(self, "train_targets", targets)
        object.__setattr__(self, "k", min(self.k, inputs.shape[0]))

    @property
    def n_samples(self) -> int:
        return self.train_inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.train_inputs.shape[1]


@dataclass(frozen=True)
class AdaptiveNetwork(StoredPairs):
    """Memory-based kernel regressor over stored (feature, target) pairs.

    ``bandwidths`` holds one finite value per neighbor rank, positive for a
    parametric kernel; it defaults to all ones. Instances are immutable, so
    concurrent forward passes are safe; training returns a new network.
    """

    kernel: KernelKind = KernelKind.EXPONENTIAL
    bandwidths: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        bw = _frozen_f64(np.ones(self.k) if self.bandwidths is None else self.bandwidths, ndim=1)
        if bw.shape != (self.k,):
            raise InvalidParameter(f"bandwidths must have length k={self.k}")
        if not np.isfinite(bw).all() or self.kernel.parametric and not np.all(bw > 0):
            raise InvalidParameter("bandwidths must be finite, and positive for a parametric kernel")
        object.__setattr__(self, "bandwidths", bw)


def _distances(net: StoredPairs, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances (m, n) from each of the m query rows to every
    stored sample: the one distance formula of every neighbor search.

    Squares are summed in one fixed order, even coordinates ascending, then
    odd ones ascending, then the two sums, so a distance has the same bits in
    any block. An overflow gives an infinite distance without a warning.
    """
    lanes = []  # running sums of the even and of the odd coordinates' squares
    with np.errstate(over="ignore"):
        for j, col in enumerate(net.train_inputs.T):
            sq = col - queries[:, j, None]  # (m, n): the inner loop runs over n
            sq *= sq
            if j < 2:
                lanes.append(sq)
            else:
                lanes[j % 2] += sq
        if len(lanes) == 2:
            lanes[0] += lanes[1]
    return np.sqrt(lanes[0], out=lanes[0])


def euclidean_distances(query, net: StoredPairs) -> np.ndarray:
    """Distance from ``query`` to every stored sample, in storage order."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (net.dim,):
        raise DimensionMismatch(
            f"query has shape {q.shape}, stored features have dimension {net.dim}"
        )
    return _distances(net, q[None])[0]


def select_k_min(distances, k: int, exclude: int | None = None) -> NeighborSet:
    """The k smallest distances with their indices; ties go to the lower index.

    ``k`` larger than the eligible count is clamped, not an error.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    d = np.asarray(distances, dtype=np.float64)
    order = np.argsort(d, kind="stable")
    if exclude is not None:
        if not 0 <= exclude < d.size:
            raise IndexOutOfRange(f"exclude index {exclude} outside [0, {d.size})")
        order = order[order != exclude]
    if order.size == 0:
        raise NoEligibleSamples("no candidates left after exclusion")
    chosen = order[: min(k, order.size)]
    return NeighborSet(indices=chosen, distances=d[chosen])


def _kernel(kind: KernelKind, dists: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Kernel values for rows of ranked neighbor distances (last axis = rank).

    A linear-rescale row whose distances are all zero gives zeros, which
    ``_outputs`` turns into uniform weights.
    """
    if kind is KernelKind.LINEAR_RESCALE:
        d_max = dists.max(axis=-1, keepdims=True)
        # Distances are non-negative, so a zero max means a zero numerator.
        return (d_max - (dists - dists.min(axis=-1, keepdims=True))) / np.where(
            d_max == 0, 1.0, d_max)
    scaled = dists * bw[: dists.shape[-1]]
    if kind is KernelKind.EXPONENTIAL:
        return np.exp(-scaled)
    return 1.0 / (1.0 + scaled ** 2)


def _outputs(kind: KernelKind, dists: np.ndarray, targets: np.ndarray,
             bw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw kernel values, their row sums (axis kept) and the network outputs:
    kernel values normalized to sum to one, then applied to the neighbors'
    targets. A row whose kernel mass vanishes (underflow, or the rescale
    kernel with all-zero distances) falls back to uniform weights. Normalizing
    first keeps k=1 recalling a stored target exactly."""
    raw = _kernel(kind, dists, bw)
    total = raw.sum(axis=-1, keepdims=True)
    dead = total == 0.0
    weights = raw / total if not dead.any() else np.where(
        dead, 1.0 / dists.shape[-1], raw / np.where(dead, 1.0, total))
    return raw, total, (weights * targets).sum(axis=-1)


def forward(net: AdaptiveNetwork, query, exclude: int | None = None) -> tuple[float, NeighborSet]:
    """Predict the target for ``query``; also returns the selected neighbors.

    The output is ``_outputs`` over the k nearest stored samples (skipping
    index ``exclude``): normalized kernel weights, uniform when the kernel
    mass vanishes, applied to the neighbors' targets. The query must be finite.
    """
    distances = euclidean_distances(query, net)
    if not np.isfinite(query).all():
        raise InvalidParameter("query must be finite")
    nb = select_k_min(distances, net.k, exclude=exclude)
    *_, out = _outputs(net.kernel, nb.distances, net.train_targets[nb.indices], net.bandwidths)
    return float(out), nb


def _rank_smallest(d: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the m smallest entries in each row of ``d``, ranked
    as a stable argsort ranks them: by value, ties to the lower index."""
    rows = np.arange(len(d))[:, None]
    if m < d.shape[1]:
        part = np.argpartition(d, m, axis=1)
        top = np.sort(part[:, :m], axis=1)
        largest = d[rows, top].max(axis=1)
        # argpartition breaks a tie at the m-th value arbitrarily, so a row whose
        # largest winner recurs at position m is ranked in full instead.
        tie = largest == d[rows[:, 0], part[:, m]]
        top[tie] = np.argsort(d[tie], axis=1, kind="stable")[:, :m]
    else:
        top = np.broadcast_to(np.arange(m), d.shape)
    vals = d[rows, top]
    order = np.argsort(vals, axis=1, kind="stable")
    return top[rows, order], vals[rows, order]


def _nearest(net: StoredPairs, queries: np.ndarray,
             loo: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (each (len(queries), kk)) of the ``net.k``
    nearest stored samples to each query row, exactly as ``select_k_min``
    over ``euclidean_distances`` picks and ranks them. With ``loo``, query
    row j is stored sample j and is left out of its own neighbors.

    Rows go in blocks of at most ``_BLOCK_DISTANCES`` distances, which bounds
    the scratch memory whatever the number of queries.
    """
    n = net.n_samples
    kk = min(net.k, n - 1) if loo else net.k
    rows = max(1, _BLOCK_DISTANCES // n)
    indices = np.empty((len(queries), kk), dtype=np.intp)
    dists = np.empty((len(queries), kk))
    for lo in range(0, len(queries), rows):
        d = _distances(net, queries[lo:lo + rows])
        if loo:
            # Rank one extra, then drop the query's own index, or the extra
            # one when the own index is not among them.
            top, near = _rank_smallest(d, kk + 1)
            keep = top != np.arange(lo, lo + len(d))[:, None]
            keep[keep.all(axis=1), -1] = False
            top, near = top[keep].reshape(len(d), kk), near[keep].reshape(len(d), kk)
        else:
            top, near = _rank_smallest(d, kk)
        indices[lo:lo + len(d)] = top
        dists[lo:lo + len(d)] = near
    return indices, dists


def _forward_many(net: AdaptiveNetwork, queries: np.ndarray) -> np.ndarray:
    """``forward``'s output for each query row, bit for bit."""
    indices, dists = _nearest(net, queries)
    return _outputs(net.kernel, dists, net.train_targets[indices], net.bandwidths)[2]


def _loo_table(net: AdaptiveNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Ranked neighbor distances and targets (each (n, kk)) for every stored
    sample, with the sample itself excluded.

    Selection depends only on distances, never on bandwidths, so one table
    serves a whole descent and the trained network's LOO responses.
    """
    if net.n_samples < 2:
        raise TooFewSamples("leave-one-out needs at least two stored samples")
    indices, dists = _nearest(net, net.train_inputs, loo=True)
    return dists, net.train_targets[indices]


def loo_predictions(net: AdaptiveNetwork) -> np.ndarray:
    """Prediction for each stored sample with that sample excluded from its
    own neighbor set. Needed so training residuals are not trivially zero."""
    dists, targets = _loo_table(net)
    return _outputs(net.kernel, dists, targets, net.bandwidths)[2]


def _loss(net: AdaptiveNetwork, outputs: np.ndarray) -> float:
    resid = outputs - net.train_targets
    return float(resid @ resid)


def _grad(net: AdaptiveNetwork, table: tuple, bw: np.ndarray, weighed: tuple) -> np.ndarray:
    """Gradient of the leave-one-out squared error with respect to each
    rank's bandwidth, at ``bw`` whose ``_outputs`` over ``table`` is ``weighed``.

    Only rank m's kernel value depends on b_m, so with raw values n1, mass
    S = sum(n1) and output y = sum(n1 * t) / S,

        dy/db_m = (dK_m/db_m) * (t_m - y) / S

    and the loss contributions sum over samples. Samples on the uniform
    fallback have constant weights and contribute nothing.
    """
    dists, targets = table
    raw, total, y = weighed
    kk = dists.shape[1]
    if net.kernel is KernelKind.EXPONENTIAL:
        draw = -dists * raw
    else:
        draw = -2.0 * dists ** 2 * bw[:kk] * raw ** 2
    truth = net.train_targets
    live = total[:, 0] > 0.0
    if not live.all():
        y, truth, draw, targets, total = (a[live] for a in (y, truth, draw, targets, total))
    contrib = 2.0 * (y - truth)[:, None] * draw * (targets - y[:, None]) / total
    grad = np.zeros(net.k)
    grad[:kk] = contrib.sum(axis=0)
    return grad


def grad_bandwidths(net: AdaptiveNetwork) -> np.ndarray:
    """Analytic gradient of the leave-one-out squared-error loss.

    The linear-rescale kernel has no parameter; its gradient is the zero
    vector and descent is a no-op.
    """
    if not net.kernel.parametric:
        return np.zeros(net.k)
    table = _loo_table(net)
    return _grad(net, table, net.bandwidths, _outputs(net.kernel, *table, net.bandwidths))


def train_bandwidths_sd(
    net: AdaptiveNetwork,
    lr: float,
    epochs: int,
) -> tuple[AdaptiveNetwork, np.ndarray]:
    """Steepest descent on the leave-one-out loss with per-epoch backtracking.

    Each epoch proposes ``b - lr * grad`` (floored at ``BANDWIDTH_FLOOR``) and
    halves the step until the loss stops increasing; if no step helps, the
    bandwidths stay put for that epoch. Returns the trained network and the
    loss trace (initial loss first, one entry per epoch after)."""
    trained, trace, _ = _train_sd_loo(net, lr, epochs)
    return trained, trace


def _train_sd_loo(net: AdaptiveNetwork, lr: float,
                  epochs: int) -> tuple[AdaptiveNetwork, np.ndarray, np.ndarray]:
    """``train_bandwidths_sd``, plus the trained network's leave-one-out
    responses (``loo_predictions``) from the same neighbor table."""
    if not 0 < lr < np.inf:
        raise InvalidParameter(f"lr must be positive and finite, got {lr}")
    if epochs < 0:
        raise InvalidParameter(f"epochs must be >= 0, got {epochs}")
    table = _loo_table(net)
    b = net.bandwidths
    # One kernel evaluation per candidate: the accepted candidate's values
    # serve the next gradient and the returned responses.
    weighed = _outputs(net.kernel, *table, b)
    loss = _loss(net, weighed[2])
    if not net.kernel.parametric:
        # No learnable parameter: descent is a no-op with a flat trace.
        return net, np.full(epochs + 1, loss), weighed[2]
    trace = [loss]
    for _ in range(epochs):
        g = _grad(net, table, b, weighed)
        step = lr
        for _attempt in range(_MAX_BACKTRACKS):
            cand = np.maximum(b - step * g, BANDWIDTH_FLOOR)
            cand_weighed = _outputs(net.kernel, *table, cand)
            cand_loss = _loss(net, cand_weighed[2])
            if cand_loss <= loss:
                b, loss, weighed = cand, cand_loss, cand_weighed
                break
            step *= 0.5
        trace.append(loss)
    return replace(net, bandwidths=b), np.asarray(trace), weighed[2]
