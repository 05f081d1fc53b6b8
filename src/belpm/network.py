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
    IndexOutOfRange,
    InvalidParameter,
    TooFewSamples,
    UnsupportedKernel,
)
from .series import _frozen_f64, _query

# Lower bound keeping parametric kernels parametric during descent.
BANDWIDTH_FLOOR = 1e-8
_MAX_BACKTRACKS = 30
# Distances computed at once by the batched neighbor search (8 query rows at
# n = 2000). Larger blocks add memory and save little time.
_BLOCK_DISTANCES = 2 ** 14
# Widest first-coordinate window, as a share of n, that `_nearest` ranks.
_WINDOW_SHARE = 0.5


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


def _distances(cols: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances (m, c) from each of the m query rows to the stored
    samples ``cols``, ``train_inputs.T`` or a column subset of it: the one
    distance formula of every neighbor search.

    Squares are summed in one fixed order, even coordinates ascending, then
    odd ones ascending, then the two sums, so a distance has the same bits in
    any block and subset. An overflow gives inf without a warning.
    """
    lanes = []  # running sums of the even and of the odd coordinates' squares
    with np.errstate(over="ignore"):
        for j, col in enumerate(cols):
            sq = col - queries[:, j, None]  # (m, c): the inner loop runs over c
            sq *= sq
            if j < 2:
                lanes.append(sq)
            else:
                lanes[j % 2] += sq
        if len(lanes) == 2:
            lanes[0] += lanes[1]
    return np.sqrt(lanes[0], out=lanes[0])


def _nearest_one(net: StoredPairs, query,
                 exclude: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_nearest``'s indices and distances for one finite query, leaving out
    stored sample ``exclude``. One stable argsort ranks all n distances: for a
    single row that beats ``_nearest``, which sorts first coordinates per call
    (moving it waits on ROADMAP item 1, the benchmark's per-query memory)."""
    q = _query(query, net.dim)
    d = _distances(net.train_inputs.T, q[None])[0]
    order = np.argsort(d, kind="stable")
    if exclude is not None:
        if not 0 <= exclude < d.size:
            raise IndexOutOfRange(f"exclude index {exclude} outside [0, {d.size})")
        if d.size < 2:
            raise TooFewSamples("leaving a sample out needs at least two stored samples")
        order = order[order != exclude]
    chosen = order[: net.k]
    return chosen, d[chosen]


def _kernel(kind: KernelKind, dists: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Kernel values for rows of ranked neighbor distances (last axis = rank).

    A linear-rescale row whose distances are all zero gives zeros, which
    ``_outputs`` turns into uniform weights. One whose largest distance is
    inf takes the kernel's limit as that maximum grows: 1 at a finite
    distance, 0 at an infinite one, so an all-inf row weighs uniformly too.
    """
    if kind is KernelKind.LINEAR_RESCALE:
        d_max = dists.max(axis=-1, keepdims=True)
        over = d_max == np.inf
        if over.any():
            rest = _kernel(kind, np.where(over, 0.0, dists), bw)
            return np.where(over, np.isfinite(dists), rest)
        # Distances are non-negative, so a zero max means a zero numerator.
        return (d_max - (dists - dists.min(axis=-1, keepdims=True))) / np.where(
            d_max == 0, 1.0, d_max)
    scaled = dists * bw[: dists.shape[-1]]
    if kind is KernelKind.EXPONENTIAL:
        return np.exp(-scaled)
    with np.errstate(over="ignore"):  # a square past the float range: kernel 0
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


def forward(net: AdaptiveNetwork, query, exclude: int | None = None) -> float:
    """Predict the target for ``query``, a finite vector.

    The output is ``_outputs`` over the k nearest stored samples (skipping
    index ``exclude``): normalized kernel weights, uniform when the kernel
    mass vanishes, applied to the neighbors' targets.
    """
    indices, dists = _nearest_one(net, query, exclude)
    return float(_outputs(net.kernel, dists, net.train_targets[indices], net.bandwidths)[2])


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


def _windows(cols: np.ndarray, order: np.ndarray, q: np.ndarray, m: int):
    """Blocks ``(lo, hi, cand)`` of 32 rows of ``q``, sorted by first coordinate,
    with the ascending indices ``cand`` of the samples that can be among a row's
    m nearest, or None for all; 32 rows share a window without widening it much.
    A guess widens the rows' sorted positions by the last window's reach (m
    after a fallback); after f failed guesses in a row, f blocks skip theirs."""
    x0 = cols[0][order]
    pos = np.searchsorted(x0, q[:, 0]).tolist()  # ascending, as q[:, 0] is
    reach, fails, skip, limit = m, 0, 0, _WINDOW_SHARE * len(x0)
    for lo in range(0, len(q), 32):
        hi = min(lo + 32, len(q))
        a, b = max(pos[lo] - reach, 0), min(pos[hi - 1] + reach, len(x0))
        if skip:
            skip -= 1
        elif b - a <= limit and np.isfinite(q[lo:hi]).all():
            guess, step = cols[:, order[a:b]], max(1, _BLOCK_DISTANCES // (b - a))
            bound = np.concatenate([np.partition(_distances(guess, q[s:min(s + step, hi)]), m - 1)
                                    [:, m - 1] for s in range(lo, hi, step)])
            # Finite distances are below 1.4e154, so this cannot overflow.
            bound = bound * (1 + 1e-9) + 2.0 ** -500
            a = np.searchsorted(x0, (q[lo:hi, 0] - bound).min(), "left")
            b = np.searchsorted(x0, (q[lo:hi, 0] + bound).max(), "right")
            if b - a <= limit:
                yield lo, hi, np.sort(order[a:b])
                reach, fails = max(m, pos[lo] - a, b - pos[hi - 1]), 0
                continue
            fails = skip = fails + 1
        reach = m
        yield lo, hi, None


def _nearest(net: StoredPairs, queries: np.ndarray,
             loo: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (each (len(queries), kk)) of the ``net.k``
    nearest stored samples to each query row, exactly as a stable argsort
    of all n distances picks and ranks them (``_nearest_one``). With ``loo``,
    query row j is stored sample j and is left out of its own neighbors.

    A block of queries ranks only the samples whose first coordinate x0 is
    within R' = R * (1 + 1e-9) + 2**-500 of a query's q0, R bounding the
    query's m-th distance (m = kk, or kk + 1 with ``loo``), as in Friedman,
    Baskett & Shustek (1975). A distance is a rounded sqrt of rounded sums of
    non-negative squares, each sum at least the first square, so by monotone
    rounding it is at least fl(sqrt(fl(fl(x0 - q0)**2))). That square is
    normal if |x0 - q0| >= 2**-500, and then rounding shrinks |x0 - q0| by a
    relative 2**-51 at most; below, it may underflow to 0, which the absolute
    term covers; q0 -/+ R' round monotonically too. So no sample within R is
    left out, and ranked by index with ``_distances``' bits the window gives
    the full scan's result, ties included. A block whose window spans over
    ``_WINDOW_SHARE`` of the samples (as an infinite R' does) or holds a NaN
    or inf query is ranked against all, in chunks of ``_BLOCK_DISTANCES``.
    """
    n = net.n_samples
    kk = min(net.k, n - 1) if loo else net.k
    m = kk + 1 if loo else kk
    cols = net.train_inputs.T
    order = np.argsort(cols[0], kind="stable")
    qorder = order if loo else np.argsort(queries[:, 0], kind="stable")
    q = queries[qorder]
    indices = np.empty((len(q), kk), dtype=np.intp)
    dists = np.empty((len(q), kk))
    for lo, hi, cand in _windows(cols, order, q, m):
        sub = cols if cand is None else cols[:, cand]
        step = max(1, _BLOCK_DISTANCES // sub.shape[1])
        for r in (slice(s, min(s + step, hi)) for s in range(lo, hi, step)):
            top, near = _rank_smallest(_distances(sub, q[r]), m)
            if cand is not None:
                top = cand[top]
            if loo:
                # Drop the query's own index, or the extra one when the own
                # index is not among them.
                keep = top != qorder[r, None]
                keep[keep.all(axis=1), -1] = False
                top, near = top[keep].reshape(len(top), kk), near[keep].reshape(len(top), kk)
            indices[qorder[r]] = top
            dists[qorder[r]] = near
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
    with np.errstate(over="ignore"):  # an overflowing sum is inf
        return float(resid @ resid)


def _grad(net: AdaptiveNetwork, table: tuple, bw: np.ndarray, weighed: tuple) -> np.ndarray:
    """Gradient of the leave-one-out squared error with respect to each
    rank's bandwidth, at ``bw`` whose ``_outputs`` over ``table`` is ``weighed``.

    Only rank m's kernel value depends on b_m, so with raw values n1, mass
    S = sum(n1) and output y = sum(n1 * t) / S,

        dy/db_m = (dK_m/db_m) * (t_m - y) / S

    and the loss contributions sum over samples. Samples on the uniform
    fallback have constant weights and contribute nothing. A kernel value
    vanishing at a huge distance has derivative 0 there, not inf * 0 = NaN.
    """
    dists, targets = table
    raw, total, y = weighed
    kk = dists.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        if net.kernel is KernelKind.EXPONENTIAL:
            draw = -dists * raw
        else:
            draw = -2.0 * dists ** 2 * bw[:kk] * raw ** 2
    draw[np.isnan(draw)] = 0.0
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
    halves the step until the loss stops increasing; once no step helps, the
    bandwidths are at a fixed point and the trace repeats the loss. Returns
    the trained network and the loss trace (initial loss first, one entry per
    epoch after)."""
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
        else:
            break  # nothing moved, so every later epoch would reject the same steps
        trace.append(loss)
    trace += [loss] * (epochs + 1 - len(trace))
    return replace(net, bandwidths=b), np.asarray(trace), weighed[2]
