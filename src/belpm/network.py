"""Kernel-weighted nearest-neighbor network with trainable per-rank bandwidths.

A network stores its training pairs and answers a query in four stages:
rank the stored samples by Euclidean distance, evaluate a kernel on the k
smallest distances (one bandwidth per neighbor rank), normalize the kernel
values into weights, and return the weighted sum of the selected neighbors'
targets. The bandwidths are the only learnable parameters; they are fitted
by steepest descent on the leave-one-out squared error, with backtracking
so the loss never ends above where it started.

The kernel, weighting and gradient take rank-major (kk, m) arrays, whose row
j holds each query's j-th neighbor. The descent keeps its table that way,
evaluates each candidate's kernel once and reuses the accepted one's arrays
for the next gradient. Every sum over ranks or over samples runs in
plain order: the first term, then one term at a time, then + 0.0, so a -0.0
sum reads 0.0. That order is the library's own, not numpy's.
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
# An epoch that lowers a finite loss by at most this share of it ends the descent.
_SD_RTOL = 1e-6
# Distances computed at once by a pass (8 query rows of a full scan at n = 2000).
# Larger blocks add memory and save little time.
_BLOCK_DISTANCES = 2 ** 14
# Widest key window, as a share of n, that `_nearest` ranks.
_WINDOW_SHARE = 0.5
# One query row in this many, spread evenly and at most a chunk's worth, is
# ranked against all n to pick a call's key; a call with fewer keeps x0.
_KEY_SAMPLE = 256
# The sum key serves if its windows around those rows hold under this share of x0's.
_SUM_KEY_SHARE = 1.0


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


def _distances(cols: np.ndarray, queries: np.ndarray, at=None) -> np.ndarray:
    """Euclidean distances (m, c) from each of the m query rows to the stored
    samples ``cols`` (``train_inputs.T`` or a column subset), or to the windows
    ``cols[j][at[i]]`` of row i: the one distance formula of every neighbor search.

    Squares are summed left to right, coordinate 0 to d - 1, into one buffer,
    so a distance has the same bits in any block and subset. An overflow
    gives inf without a warning.
    """
    with np.errstate(over="ignore"):
        for j in range(len(cols)):
            sq = cols[j] - queries[:, j, None] if at is None else cols[j][at]
            if at is not None:  # a gather is its own buffer: the difference overwrites it
                sq -= queries[:, j, None]
            sq *= sq
            out = np.add(out, sq, out=out) if j else sq  # the inner loops run over c
            del sq  # so at most two buffers live
    return np.sqrt(out, out=out)


def _kernel(kind: KernelKind, dists: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Kernel values for rank-major neighbor distances (kk, m): row j holds
    every query's j-th nearest distance and takes bandwidth ``bw[j]``.

    A linear-rescale column whose distances are all zero gives zeros, which
    ``_weigh`` turns into uniform weights. One whose largest distance is
    inf takes the kernel's limit as that maximum grows: 1 at a finite
    distance, 0 at an infinite one, so an all-inf column weighs uniformly too.
    """
    if kind is KernelKind.LINEAR_RESCALE:
        d_max = dists.max(axis=0)
        over = d_max == np.inf
        if over.any():
            rest = _kernel(kind, np.where(over, 0.0, dists), bw)
            return np.where(over, np.isfinite(dists), rest)
        # Distances are non-negative, so a zero max means a zero numerator.
        return (d_max - (dists - dists.min(axis=0))) / np.where(d_max == 0, 1.0, d_max)
    exponential = kind is KernelKind.EXPONENTIAL  # d * -b is -(d * b), bit for bit
    scaled = dists * (-bw if exponential else bw)[: len(dists), None]
    if exponential:
        return np.exp(scaled, out=scaled)
    with np.errstate(over="ignore"):  # a square past the float range: kernel 0
        np.square(scaled, out=scaled)
    return np.divide(1.0, np.add(scaled, 1.0, out=scaled), out=scaled)


def _rank_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the ranks (axis 0) of ``a``, in plain order. One column, a
    single query, is one accumulate down it; more columns add whole rank rows."""
    if a.shape[1] == 1:
        return np.add.accumulate(a)[-1] + 0.0
    out = a[0] + 0.0  # adding 0.0 first or last gives the same bits
    for row in a[1:]:
        out += row
    return out


def _weigh(raw: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over ranks of rank-major raw weights (kk, m), and the targets
    weighed by them normalized, or uniformly where the sum is 0: the one
    weighting rule of the networks and wknn. Normalizing first keeps k=1
    recalling a target exactly."""
    weights = np.empty_like(raw)
    total = _rank_sum(raw)
    if total.all():
        np.divide(raw, total, out=weights)
    else:
        dead = total == 0.0
        np.divide(raw, np.where(dead, 1.0, total), out=weights)
        weights[:, dead] = 1.0 / len(raw)
    weights *= targets
    return total, _rank_sum(weights)


def _outputs(kind: KernelKind, dists: np.ndarray, targets: np.ndarray,
             bw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw kernel values over rank-major distances and targets (kk, m), then
    ``_weigh``'s sums and network outputs."""
    raw = _kernel(kind, dists, bw)
    return (raw, *_weigh(raw, targets))


def forward(net: AdaptiveNetwork, query, exclude: int | None = None) -> float:
    """Prediction for one finite ``query``, leaving out stored sample ``exclude``:
    the batch path on one row, with shape and finiteness checked first."""
    q = _query(query, net.dim)[None]
    return float(_forward_many(net, q, None if exclude is None else [exclude])[0])


def _rank_smallest(d: np.ndarray, m: int, order=None, at=None) -> tuple[np.ndarray, np.ndarray]:
    """Stored indices and values of the m smallest entries in each row of
    ``d`` (m at most its width), ranked by value, ties to the lower stored
    index. Column c of row i holds stored sample ``order[at[i] + c]``, or c."""
    rows = np.arange(len(d))[:, None]
    kth = np.partition(d, m - 1, axis=1)[:, m - 1]
    win = d <= kth[:, None]  # at least m entries per row
    if np.count_nonzero(win) == len(d) * m:
        top = (np.flatnonzero(win) % d.shape[1]).reshape(-1, m)
    else:  # a row with other than m entries up to kth is ranked in full
        full = np.count_nonzero(win, axis=1) != m
        win[full] = False
        top = np.empty((len(d), m), dtype=np.intp)
        top[~full] = (np.flatnonzero(win) % d.shape[1]).reshape(-1, m)
        cols = np.arange(d.shape[1])
        index = cols if order is None else order[at[full][:, None] + cols]
        top[full] = np.lexsort((np.broadcast_to(index, d[full].shape), d[full]))[:, :m]
    vals, index = d[rows, top], top if order is None else order[at[:, None] + top]
    by = np.lexsort((index, vals))
    return index[rows, by], vals[rows, by]


def _scan(cols: np.ndarray, queries: np.ndarray, rows: np.ndarray, m: int, out: tuple,
          order=None, at=None, width=None) -> None:
    """``_rank_smallest`` of query ``rows`` into those rows of ``out``: against all
    samples ``cols``, or with ``order`` the ``width`` samples of ``cols`` (key order)
    from each row's start in ``at``; by chunks of ``_BLOCK_DISTANCES``, one live at a time."""
    step = max(1, _BLOCK_DISTANCES // (width or cols.shape[1]))
    cols = cols if order is None else np.lib.stride_tricks.sliding_window_view(cols, width, axis=1)
    for lo in range(0, len(rows), step):
        part, chunk = None if at is None else at[lo:lo + step], rows[lo:lo + step]
        out[0][chunk], out[1][chunk] = _rank_smallest(_distances(cols, queries[chunk], part),
                                                      m, order, part)


def _key_bound(key, rows, r: np.ndarray) -> np.ndarray:
    """Bound on |key(x) - key(q)| for x within distance ``r`` of query ``rows``."""
    return (r * (1 + 1e-9) + 2.0 ** -500) * key[2] + key[3][rows]


def _sum_key(cols: np.ndarray, queries: np.ndarray):
    """Coordinates summed left to right, scale sqrt(d) * (1 + 1e-12) and slacks
    d * 2**-51 * (A + sum |q_j|), A the largest sum |x_j| stored; None unless
    each 2 * (A + sum |q_j|) is finite, as then no key, bound or gap overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        mass = _rank_sum(np.abs(cols)).max() + _rank_sum(np.abs(queries.T))
        if not np.isfinite(2 * mass).all():
            return None
    return (_rank_sum(cols), _rank_sum(queries.T),
            len(cols) ** 0.5 * (1 + 1e-12), len(cols) * 2.0 ** -51 * mass)


def _key(cols: np.ndarray, queries: np.ndarray, m: int, out: tuple):
    """The key of a search of many rows, the rows left to search and their
    guesses' width: twice the key's median window around the rows sampled
    into ``out`` (``_KEY_SAMPLE``), or 4m samples when none is sampled."""
    rows, key = np.arange(len(queries)), (cols[0], queries[:, 0], 1.0, np.zeros(len(queries)))
    step = max(_KEY_SAMPLE, -(-len(queries) // max(1, _BLOCK_DISTANCES // cols.shape[1])))
    picks = rows[step // 2::step]
    if not len(picks) or (summed := _sum_key(cols, queries)) is None:
        return key, rows, 4 * m
    _scan(cols, queries, picks, m, out)
    widths = [np.count_nonzero(np.abs(k[0] - k[1][picks, None])
                               <= _key_bound(k, picks, out[1][picks, -1])[:, None], axis=1)
              for k in (summed, key)]
    x0 = bool(widths[0].sum() >= _SUM_KEY_SHARE * widths[1].sum())
    return (summed, key)[x0], np.delete(rows, picks), 2 * np.median(widths[x0])


def _nearest(net: StoredPairs, queries: np.ndarray,
             exclude=None) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (each (len(queries), kk)) of the ``net.k``
    nearest stored samples to each query row, exactly as a stable argsort
    of all n distances picks and ranks them: the one neighbor search. With
    ``exclude``, one stored index per query row, row j leaves out stored
    sample ``exclude[j]`` and kk = min(k, n - 1); an index outside [0, n)
    raises ``IndexOutOfRange``, then a single stored sample ``TooFewSamples``.

    A single row ranks all n distances. More rows rank the samples whose key
    lies near their own (Friedman, Baskett & Shustek, 1975), sorted once by
    ``_key``'s key, in three passes, ties to the lower stored index in each.
    Guess: each row ranks a window of W samples around its key. Accept: R,
    the row's m-th distance there (m = kk, or kk + 1 with ``exclude``), bounds
    its m-th over all n; a row keeps its guess if the samples [start, stop)
    whose keys could lie within R lie in it. Widen: the others rank their
    [start, stop), in passes of widths within a quarter of each other, or all
    n if wider than ``_WINDOW_SHARE`` of them (as an infinite R makes it).

    Exactness: a distance rounds a sqrt of rounded sums of rounded squares,
    so a sample it puts within R is truly within R' = R * (1 + 1e-9) +
    2**-500 (for d below a million; underflowing squares lose less). Its
    first coordinate, the x0 key, is then within R' of the query's. By
    Cauchy-Schwarz its coordinate sum is within sqrt(d) * R', and a sum
    rounded left to right is off by under d * 2**-53 times its absolute sum:
    the two sums' errors stay under a quarter of the slack. Window ends round
    monotonically, so [start, stop) holds every sample within R, the true m
    nearest among them, and a window holding it ranks as the full scan does,
    ties included. Every query is finite: ``_query`` and ``StoredPairs``
    refuse NaN and inf, and a finite window's max and min, the primary
    network's features, are too.
    """
    n = net.n_samples
    if exclude is not None:
        exclude = np.asarray(exclude)
        if exclude.size and (exclude.min() < 0 or exclude.max() >= n):
            raise IndexOutOfRange(f"an exclude index lies outside [0, {n})")
        if n < 2:
            raise TooFewSamples("leaving a sample out needs at least two stored samples")
    kk = net.k if exclude is None else min(net.k, n - 1)
    m = kk + (exclude is not None)
    cols = net.train_inputs.T
    if len(queries) == 1:
        # One stable sort of the n distances; a window would first sort the n
        # first coordinates. `_rank_smallest` takes a third of the time, but the
        # benchmark's per-query memory then breaks its bound (ROADMAP items 1a, 12).
        d = _distances(cols, queries)[0]
        top = np.argsort(d, kind="stable")[None, :m]
        return _drop_excluded(top, d[top], exclude)
    out = np.empty((len(queries), m), dtype=np.intp), np.empty((len(queries), m))
    key, rest, width = _key(cols, queries, m, out)
    width, limit = min(max(int(width), m), n), _WINDOW_SHARE * n
    if width > limit:  # an uninformative key: the full scan costs less
        _scan(cols, queries, rest, m, out)
        return _drop_excluded(*out, exclude)
    order = np.argsort(key[0], kind="stable")
    keys, qkeys, cs = key[0][order], key[1][rest], cols[:, order]
    at = np.clip(np.searchsorted(keys, qkeys) - width // 2, 0, n - width)
    _scan(cs, queries, rest, m, out, order, at, width)
    bound = _key_bound(key, rest, out[1][rest, -1])
    start = np.searchsorted(keys, qkeys - bound, "left")
    stop = np.searchsorted(keys, qkeys + bound, "right")
    miss = np.flatnonzero((start < at) | (stop > at + width))
    miss = miss[np.argsort((stop - start)[miss], kind="stable")]
    rest, start, span = rest[miss], start[miss], (stop - start)[miss]
    lo, wide = 0, np.searchsorted(span, limit, "right")  # the rows past it rank all
    _scan(cols, queries, rest[wide:], m, out)
    while lo < wide:  # rows by width, each pass as wide as its widest
        hi = lo + np.searchsorted(span[lo:wide], 1.25 * span[lo], "right")
        w = int(span[hi - 1])
        _scan(cs, queries, rest[lo:hi], m, out, order, np.minimum(start[lo:hi], n - w), w)
        lo = hi
    return _drop_excluded(*out, exclude)


def _drop_excluded(top: np.ndarray, near: np.ndarray, exclude) -> tuple[np.ndarray, np.ndarray]:
    """Ranked indices ``top`` and distances ``near`` of one or more rows, each
    row less its ``exclude`` index, or its last entry when that index is not
    among them."""
    if exclude is None:
        return top, near
    keep = top != exclude[:, None]
    keep[keep.all(axis=1), -1] = False
    return top[keep].reshape(len(top), -1), near[keep].reshape(len(top), -1)


def _forward_many(net: AdaptiveNetwork, queries: np.ndarray, exclude=None) -> np.ndarray:
    """``_outputs`` over each query row's ``_nearest`` samples."""
    indices, dists = _nearest(net, queries, exclude)
    return _outputs(net.kernel, dists.T, net.train_targets[indices.T], net.bandwidths)[2]


def _loo_table(net: AdaptiveNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Rank-major neighbor distances and targets (each (kk, n)) of every stored
    sample, leaving itself out. Selection never depends on bandwidths, so one
    table serves a whole descent and the trained network's LOO responses."""
    indices, dists = _nearest(net, net.train_inputs, np.arange(net.n_samples))
    return dists.T.copy(), net.train_targets[indices.T.copy()]


def loo_predictions(net: AdaptiveNetwork) -> np.ndarray:
    """Prediction for each stored sample with that sample excluded from its
    own neighbor set. Needed so training residuals are not trivially zero."""
    return _outputs(net.kernel, *_loo_table(net), net.bandwidths)[2]


def _loss(net: AdaptiveNetwork, outputs: np.ndarray) -> float:
    resid = outputs - net.train_targets
    with np.errstate(over="ignore"):  # an overflowing sum is inf
        return float(resid @ resid)


def _grad(net: AdaptiveNetwork, table: tuple, bw: np.ndarray, weighed: tuple) -> np.ndarray:
    """Gradient of the leave-one-out squared error with respect to each rank's
    bandwidth, at ``bw`` whose ``_outputs`` over ``table`` is ``weighed``.

    Only rank m's kernel value depends on b_m, so with raw values n1, mass
    S = sum(n1) and output y = sum(n1 * t) / S,

        dy/db_m = (dK_m/db_m) * (t_m - y) / S

    and the loss contributions sum over samples in plain order. Samples
    on the uniform fallback have constant weights and contribute nothing. A
    kernel value vanishing at a huge distance has derivative 0 there, not
    inf * 0 = NaN.
    """
    dists, targets = table
    raw, total, y = weighed
    kk = len(dists)
    # -dK/db, whose sign joins the residual factor below: negating is exact.
    with np.errstate(over="ignore", invalid="ignore"):
        if net.kernel is KernelKind.EXPONENTIAL:
            draw = dists * raw
        else:
            draw = np.square(dists) * 2.0
            draw *= bw[:kk, None]
            draw *= np.square(raw)
    draw[np.isnan(draw)] = 0.0
    truth = net.train_targets
    live = total > 0.0
    if not live.all():
        y, truth, draw, targets, total = (a[..., live] for a in (y, truth, draw, targets, total))
    draw *= 2.0 * (truth - y)
    draw *= targets - y
    draw /= total
    grad = np.zeros(net.k)
    grad[:kk] = _sample_sum(draw)
    return grad


def _sample_sum(a: np.ndarray) -> np.ndarray:
    """Sums along the rows of rank-major ``a``, overwriting it, in plain order:
    one sample after another, for every rank count."""
    return np.cumsum(a, axis=1, out=a)[:, -1] + 0.0 if a.shape[1] else np.zeros(len(a))


def grad_bandwidths(net: AdaptiveNetwork) -> np.ndarray:
    """Analytic gradient of the leave-one-out squared-error loss.

    The linear-rescale kernel has no parameter; its gradient is the zero
    vector and descent is a no-op.
    """
    if not net.kernel.parametric:
        return np.zeros(net.k)
    table = _loo_table(net)
    return _grad(net, table, net.bandwidths, _outputs(net.kernel, *table, net.bandwidths))


def train_bandwidths_sd(net: AdaptiveNetwork, lr: float,
                        epochs: int) -> tuple[AdaptiveNetwork, np.ndarray, np.ndarray]:
    """Steepest descent on the leave-one-out loss with per-epoch backtracking.

    Each epoch proposes ``b - lr * grad`` (floored at ``BANDWIDTH_FLOOR``) and
    halves the step until each bandwidth times its rank's largest finite table
    distance (or 1) is finite and the loss is finite and does not rise, then
    takes that step. ``epochs`` is an upper bound: the descent ends after an
    epoch whose step lowers a finite loss by at most ``_SD_RTOL`` (1e-6) of
    it, keeping that step, or at an epoch whose gradient is not finite or
    where none of its ``_MAX_BACKTRACKS`` tries passes, moving nothing; a
    linear-rescale network has nothing to descend. No overflow on the way,
    nor in a later kernel call on the table, warns. Returns the trained
    network, the loss trace (initial loss first, then one entry per epoch,
    the last loss repeated up to ``epochs + 1`` entries) and the trained
    network's leave-one-out responses (``loo_predictions``), all from one
    neighbor table."""
    if not 0 < lr < np.inf:
        raise InvalidParameter(f"lr must be positive and finite, got {lr}")
    if epochs < 0:
        raise InvalidParameter(f"epochs must be >= 0, got {epochs}")
    table = _loo_table(net)
    reach = np.maximum(np.nan_to_num(table[0], posinf=0.0).max(axis=1), 1.0)
    b = net.bandwidths
    # No overflow warns: a step or bandwidth product past the float range is
    # refused, and a gradient past it ends the descent.
    with np.errstate(over="ignore", invalid="ignore"):
        # One kernel evaluation per candidate; the accepted one's arrays serve
        # the next gradient and the returned responses.
        weighed = _outputs(net.kernel, *table, b)
        loss = _loss(net, weighed[2])
        trace = [loss]
        for _ in range(epochs if net.kernel.parametric else 0):
            g = _grad(net, table, b, weighed)
            if not np.isfinite(g).all():
                break  # no direction to step along
            step = lr
            for _attempt in range(_MAX_BACKTRACKS):
                cand = np.maximum(b - step * g, BANDWIDTH_FLOOR)
                if np.isfinite(cand[:len(reach)] * reach).all():
                    cand_weighed = _outputs(net.kernel, *table, cand)
                    cand_loss = _loss(net, cand_weighed[2])
                    if cand_loss <= loss and cand_loss < np.inf:
                        stalled = np.isfinite(loss) and loss - cand_loss <= _SD_RTOL * loss
                        b, loss, weighed = cand, cand_loss, cand_weighed
                        break
                step *= 0.5
            else:
                break  # nothing moved, so every later epoch would reject the same steps
            trace.append(loss)
            if stalled:
                break
    trace += [loss] * (epochs + 1 - len(trace))
    trained = net if b is net.bandwidths else replace(net, bandwidths=b)  # no step: the start
    return trained, np.asarray(trace), weighed[2]
