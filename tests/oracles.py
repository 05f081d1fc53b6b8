"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python (math module, explicit loops,
no shared code with the package) so agreement is meaningful.
"""

import math
import zlib


def euclid(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def sq_distance_direct(row, query):
    """Squared distance summed in the library's documented order: the even
    coordinates in ascending order, then the odd ones, then the two sums.
    Explicit loops, because ``sum`` may compensate its rounding."""
    sq = [(a - b) * (a - b) for a, b in zip(row, query)]
    even = sq[0]
    for v in sq[2::2]:
        even += v
    if len(sq) == 1:
        return even
    odd = sq[1]
    for v in sq[3::2]:
        odd += v
    return even + odd


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
