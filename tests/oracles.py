"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python (math module, explicit loops,
no shared code with the package) so agreement is meaningful. The one
exception is the row-major weighting and gradient at the end: numpy code
from before the descent went rank-major, its sums taken in the library's
plain order, so the rank-major code can be held to its bits.
"""

import math
import zlib

import numpy as np


def euclid(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def sq_distance_direct(row, query):
    """Squared distance summed in the library's documented order: coordinate
    0 to d - 1, left to right. An explicit loop, because ``sum`` may
    compensate its rounding."""
    total = 0.0  # adding a square to 0.0 is exact
    for a, b in zip(row, query):
        total += (a - b) * (a - b)
    return total


def nearest_direct(inputs, q, k, exclude=None):
    """Indices and distances of the k nearest rows of ``inputs`` to ``q``,
    leaving out row ``exclude``, ranked by (distance, index). Distances sum
    squares in the library's order, so they match it bit for bit."""
    dists = [math.sqrt(sq_distance_direct(row, q)) for row in inputs]
    order = sorted((j for j in range(len(inputs)) if j != exclude),
                   key=lambda j: (dists[j], j))[:k]
    return order, [dists[j] for j in order]


def kernel_value(kind, d, b, d_min, d_max):
    if kind == "exponential":
        return math.exp(-d * b)
    if kind == "inverse_quadratic":
        return 1.0 / (1.0 + (d * b) ** 2)
    if kind == "linear_rescale":
        if d_max == 0:
            return None  # degenerate, caller falls back to uniform
        return (d_max - (d - d_min)) / d_max
    raise ValueError(kind)


def forward_direct(train_inputs, train_targets, k, kind, bandwidths, query,
                   exclude=None):
    """Step-by-step evaluation of the four-layer network on one query."""
    n = len(train_inputs)
    dists = [euclid(query, train_inputs[j]) for j in range(n)]
    order = sorted(range(n), key=lambda j: (dists[j], j))
    if exclude is not None:
        order = [j for j in order if j != exclude]
    chosen = order[: min(k, len(order))]
    sel = [dists[j] for j in chosen]
    d_min, d_max = min(sel), max(sel)

    raw = []
    for m, j in enumerate(chosen):
        value = kernel_value(kind, dists[j], bandwidths[m], d_min, d_max)
        if value is None:
            raw = None
            break
        raw.append(value)
    if raw is None or sum(raw) == 0.0:
        weights = [1.0 / len(chosen)] * len(chosen)
    else:
        total = sum(raw)
        weights = [v / total for v in raw]
    return sum(w * train_targets[j] for w, j in zip(weights, chosen))


def wknn_direct(train_inputs, train_targets, k, query, epsilon=1e-12):
    """Inverse-distance weighted k-NN mean, recomputed from scratch."""
    n = len(train_inputs)
    dists = [euclid(query, train_inputs[j]) for j in range(n)]
    order = sorted(range(n), key=lambda j: (dists[j], j))[:k]
    weights = [1.0 / (dists[j] + epsilon) for j in order]
    total = sum(weights)
    return sum(w * train_targets[j] for w, j in zip(weights, order)) / total


def bel_replay(v, w, alpha, beta, pairs, epochs):
    """Step-by-step simulation of the classic two-bank learner."""
    v = list(v)
    w = list(w)
    for _ in range(epochs):
        for s, rew in pairs:
            a_sum = sum(vi * si for vi, si in zip(v, s))
            o_sum = sum(wi * si for wi, si in zip(w, s))
            e = a_sum - o_sum
            dv = [alpha * si * max(0.0, rew - a_sum) for si in s]
            dw = [beta * si * (e - rew) for si in s]
            v = [vi + d for vi, d in zip(v, dv)]
            w = [wi + d for wi, d in zip(w, dw)]
    return v, w


def lse_3x3(ra, ro, ru, lam):
    """Regularized 3x3 normal equations solved by explicit Cramer's rule."""
    n = len(ra)
    ones = [1.0] * n

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    cols = [ra, ro, ones]
    a = [[dot(cols[i], cols[j]) + (lam if i == j else 0.0) for j in range(3)]
         for i in range(3)]
    b = [dot(cols[i], ru) for i in range(3)]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(a)
    out = []
    for col in range(3):
        mm = [row[:] for row in a]
        for i in range(3):
            mm[i][col] = b[i]
        out.append(det3(mm) / d)
    return out


def rechecksum(text):
    """Model-file text with its trailing checksum line recomputed (CRC32 of
    every byte before that line), so edited fields pass the integrity check."""
    body = text[: text.rindex("checksum = ")].encode("utf-8")
    return body + f"checksum = {zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("utf-8")


# The network's row-major weighting and gradient: tables are (n, kk), one
# row per sample, and each row and each column is summed by `in_order_sum`.
from belpm.network import BANDWIDTH_FLOOR, KernelKind, _MAX_BACKTRACKS, _SD_RTOL, _nearest  # noqa: E402


def in_order_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums of ``a`` along ``axis`` in the library's plain order: the first
    term, then one term at a time, then + 0.0 so a -0.0 sum reads 0.0. An
    empty axis sums to 0.0."""
    terms = np.moveaxis(a, axis, 0)
    if not len(terms):
        return np.zeros(terms.shape[1:])
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total + 0.0


def _kernel(kind: KernelKind, dists: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Kernel values for rows of ranked neighbor distances (last axis = rank).

    A linear-rescale row whose distances are all zero gives zeros, which
    ``_weigh`` turns into uniform weights. One whose largest distance is
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


def _weigh(raw: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (axis kept) of raw weights, and the targets weighed by them
    normalized, or uniformly where the sum is 0: the one weighting rule of the
    networks and wknn. Normalizing first keeps k=1 recalling a target exactly."""
    total = in_order_sum(raw, -1)[..., None]
    dead = total == 0.0
    weights = raw / total if not dead.any() else np.where(
        dead, 1.0 / raw.shape[-1], raw / np.where(dead, 1.0, total))
    return total, in_order_sum(weights * targets, -1)


def _outputs(kind: KernelKind, dists: np.ndarray, targets: np.ndarray,
             bw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw kernel values, then ``_weigh``'s row sums and network outputs."""
    raw = _kernel(kind, dists, bw)
    return (raw, *_weigh(raw, targets))


def _loss(net, outputs: np.ndarray) -> float:
    resid = outputs - net.train_targets
    with np.errstate(over="ignore"):  # an overflowing sum is inf
        return float(resid @ resid)


def _grad(net, table: tuple, bw: np.ndarray, weighed: tuple) -> np.ndarray:
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
    grad[:kk] = in_order_sum(contrib, 0)
    return grad


def sd_replay(net, lr, epochs):
    """The descent on the leave-one-out loss replayed on the row-major code
    above: trained bandwidths, loss trace and leave-one-out responses."""
    indices, dists = _nearest(net, net.train_inputs, np.arange(net.n_samples))
    table = dists, net.train_targets[indices]
    b = net.bandwidths
    weighed = _outputs(net.kernel, *table, b)
    loss = _loss(net, weighed[2])
    if not net.kernel.parametric:
        return b, np.full(epochs + 1, loss), weighed[2]
    trace = [loss]
    for _ in range(epochs):
        g = _grad(net, table, b, weighed)
        step = lr
        for _attempt in range(_MAX_BACKTRACKS):
            cand = np.maximum(b - step * g, BANDWIDTH_FLOOR)
            cand_weighed = _outputs(net.kernel, *table, cand)
            cand_loss = _loss(net, cand_weighed[2])
            if cand_loss <= loss:
                stalled = np.isfinite(loss) and loss - cand_loss <= _SD_RTOL * loss
                b, loss, weighed = cand, cand_loss, cand_weighed
                break
            step *= 0.5
        else:
            break
        trace.append(loss)
        if stalled:
            break
    trace += [loss] * (epochs + 1 - len(trace))
    return b, np.asarray(trace), weighed[2]
