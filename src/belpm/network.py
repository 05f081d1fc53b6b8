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

    Inputs and targets become read-only float64 copies, and ``k`` is clamped
    to the stored sample count at construction.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    k: int

    def __post_init__(self):
        inputs = np.array(self.train_inputs, dtype=np.float64, copy=True)
        targets = np.array(self.train_targets, dtype=np.float64, copy=True)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise InvalidParameter("train_inputs must be a non-empty (n, d) array")
        if targets.shape != (inputs.shape[0],):
            raise InvalidParameter("train_targets must align with train_inputs")
        if self.k < 1:
            raise InvalidParameter(f"k must be >= 1, got {self.k}")
        inputs.flags.writeable = False
        targets.flags.writeable = False
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

    ``bandwidths`` holds one positive value per neighbor rank; it defaults to
    all ones. Instances are immutable, so concurrent forward passes are safe;
    training returns a new network.
    """

    kernel: KernelKind = KernelKind.EXPONENTIAL
    bandwidths: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.bandwidths is None:
            bw = np.ones(self.k)
        else:
            bw = np.array(self.bandwidths, dtype=np.float64, copy=True)
            if bw.shape != (self.k,):
                raise InvalidParameter(f"bandwidths must have length k={self.k}")
            if self.kernel.parametric and not np.all(bw > 0):
                raise InvalidParameter("bandwidths must be positive")
        bw.flags.writeable = False
        object.__setattr__(self, "bandwidths", bw)


def euclidean_distances(query, net: StoredPairs) -> np.ndarray:
    """Distance from ``query`` to every stored sample, in storage order."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (net.dim,):
        raise DimensionMismatch(
            f"query has shape {q.shape}, stored features have dimension {net.dim}"
        )
    diff = net.train_inputs - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
             bw: np.ndarray) -> np.ndarray:
    """Network output per row: kernel values normalized to sum to one, then
    applied to the neighbors' targets. When a row's kernel mass vanishes
    (underflow, or the rescale kernel with all-zero distances) its weights
    fall back to uniform. Normalizing before the weighted sum keeps k=1
    recalling a stored target exactly."""
    raw = _kernel(kind, dists, bw)
    total = raw.sum(axis=-1, keepdims=True)
    dead = total == 0.0
    weights = np.where(dead, 1.0 / dists.shape[-1], raw / np.where(dead, 1.0, total))
    return (weights * targets).sum(axis=-1)


def forward(net: AdaptiveNetwork, query, exclude: int | None = None) -> tuple[float, NeighborSet]:
    """Predict the target for ``query``; also returns the selected neighbors.

    The output is ``_outputs`` over the k nearest stored samples (skipping
    index ``exclude``): normalized kernel weights, uniform when the kernel
    mass vanishes, applied to the neighbors' targets.
    """
    nb = select_k_min(euclidean_distances(query, net), net.k, exclude=exclude)
    out = _outputs(net.kernel, nb.distances, net.train_targets[nb.indices], net.bandwidths)
    return float(out), nb


def _rank_smallest(d: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the m smallest entries of each row of ``d``, ranked
    as a stable argsort ranks them: by value, ties to the lower index, NaN last."""
    if m == d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")
    part = np.argpartition(d, (m - 1, m), axis=1)
    edge = np.take_along_axis(d, part[:, m - 1:m + 1], axis=1)
    top = np.sort(part[:, :m], axis=1)
    # argpartition breaks a tie at the m-th value arbitrarily, so a row whose
    # m-th value recurs outside its winners is ranked in full instead.
    tie = (edge[:, 0] == edge[:, 1]) | np.isnan(edge[:, 0])
    top[tie] = np.argsort(d[tie], axis=1, kind="stable")[:, :m]
    order = np.argsort(np.take_along_axis(d, top, axis=1), axis=1, kind="stable")
    return np.take_along_axis(top, order, axis=1)


def _nearest(net: StoredPairs, queries: np.ndarray,
             loo: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (each (len(queries), kk)) of the ``net.k``
    nearest stored samples to each query row, exactly as ``select_k_min``
    over ``euclidean_distances`` picks and ranks them. With ``loo``, query
    row j is stored sample j and is left out of its own neighbors.

    Rows go in blocks of at most ``_BLOCK_DISTANCES`` distances, which bounds
    the scratch memory whatever the number of queries.
    """
    x = net.train_inputs
    n = x.shape[0]
    kk = min(net.k, n - 1) if loo else net.k
    rows = max(1, _BLOCK_DISTANCES // n)
    indices = np.empty((len(queries), kk), dtype=np.intp)
    dists = np.empty((len(queries), kk))
    for lo in range(0, len(queries), rows):
        diff = x - queries[lo:lo + rows, None, :]
        d = np.einsum("bij,bij->bi", diff, diff)
        del diff  # the largest buffer; gone before the next block's is made
        np.sqrt(d, out=d)
        if loo:
            # Rank one extra, then drop the query's own index, or the extra
            # one when the own index is not among them.
            top = _rank_smallest(d, kk + 1)
            keep = top != np.arange(lo, lo + len(d))[:, None]
            keep[keep.all(axis=1), -1] = False
            top = top[keep].reshape(len(d), kk)
        else:
            top = _rank_smallest(d, kk)
        indices[lo:lo + len(d)] = top
        dists[lo:lo + len(d)] = np.take_along_axis(d, top, axis=1)
    return indices, dists


def _forward_many(net: AdaptiveNetwork, queries: np.ndarray) -> np.ndarray:
    """``forward``'s output for each query row, bit for bit."""
    indices, dists = _nearest(net, queries)
    return _outputs(net.kernel, dists, net.train_targets[indices], net.bandwidths)


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
    return _outputs(net.kernel, dists, targets, net.bandwidths)


def _loss(net: AdaptiveNetwork, table: tuple[np.ndarray, np.ndarray], bw: np.ndarray) -> float:
    resid = _outputs(net.kernel, *table, bw) - net.train_targets
    return float(resid @ resid)


def _grad(net: AdaptiveNetwork, table: tuple[np.ndarray, np.ndarray], bw: np.ndarray) -> np.ndarray:
    """Gradient of the leave-one-out squared error with respect to each
    rank's bandwidth.

    Only rank m's kernel value depends on b_m, so with raw values n1, mass
    S = sum(n1) and output y = sum(n1 * t) / S,

        dy/db_m = (dK_m/db_m) * (t_m - y) / S

    and the loss contributions sum over samples. Samples on the uniform
    fallback have constant weights and contribute nothing.
    """
    dists, targets = table
    kk = dists.shape[1]
    raw = _kernel(net.kernel, dists, bw)
    if net.kernel is KernelKind.EXPONENTIAL:
        draw = -dists * raw
    else:
        draw = -2.0 * dists ** 2 * bw[:kk] * raw ** 2
    total = raw.sum(axis=1)
    live = total > 0.0
    y = _outputs(net.kernel, dists, targets, bw)[live]
    resid = y - net.train_targets[live]
    contrib = 2.0 * resid[:, None] * draw[live] * (targets[live] - y[:, None]) / total[live, None]
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
    return _grad(net, _loo_table(net), net.bandwidths)


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
    if lr <= 0:
        raise InvalidParameter(f"lr must be positive, got {lr}")
    if epochs < 0:
        raise InvalidParameter(f"epochs must be >= 0, got {epochs}")
    table = _loo_table(net)
    b = net.bandwidths
    loss = _loss(net, table, b)
    if not net.kernel.parametric:
        # No learnable parameter: descent is a no-op with a flat trace.
        return net, np.full(epochs + 1, loss), _outputs(net.kernel, *table, b)
    trace = [loss]
    for _ in range(epochs):
        g = _grad(net, table, b)
        step = lr
        for _attempt in range(_MAX_BACKTRACKS):
            cand = np.maximum(b - step * g, BANDWIDTH_FLOOR)
            cand_loss = _loss(net, table, cand)
            if cand_loss <= loss:
                b, loss = cand, cand_loss
                break
            step *= 0.5
        trace.append(loss)
    return replace(net, bandwidths=b), np.asarray(trace), _outputs(net.kernel, *table, b)
