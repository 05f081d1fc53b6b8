"""Time-series containers, time-delay embedding, and synthetic benchmark generators.

Everything here is deterministic and immutable after construction, so values
can be shared freely between models and evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidParameter,
    SeriesTooShort,
)


def _frozen_f64(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != ndim:
        raise InvalidParameter(f"expected a {ndim}-D array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _query(x, dim: int, batch: bool = False) -> np.ndarray:
    """``x`` as a float64 query of ``dim`` values, or with ``batch`` an (m, dim)
    matrix of them: the one check of every predictor's input. A wrong shape
    raises ``DimensionMismatch``, a NaN or inf ``InvalidParameter``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 + batch or arr.shape[-1] != dim:
        raise DimensionMismatch(f"query has shape {arr.shape}, expected {dim} values a row")
    if not np.isfinite(arr).all():
        raise InvalidParameter("query must be finite")
    return arr


def _check_embedding(r, horizon) -> None:
    """The one rule for an embedding (r, horizon): each an int >= 1, numpy
    ints accepted and bools refused, or ``InvalidParameter``."""
    for name, value in (("r", r), ("horizon", horizon)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidParameter(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise InvalidParameter(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar observations.

    ``start_time`` and ``step`` are abstract integer time units (minutes,
    hours, days, ...); the value at position ``j`` is observed at epoch
    ``start_time + j * step``.
    """

    values: np.ndarray
    start_time: int = 0
    step: int = 1

    def __post_init__(self):
        arr = _frozen_f64(self.values, ndim=1)
        if arr.size == 0:
            raise EmptyInput("a time series needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("series values must be finite")
        if self.step <= 0:
            raise InvalidParameter(f"step must be positive, got {self.step}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def time_at(self, index: int) -> int:
        """Epoch of the observation at ``index``."""
        return self.start_time + index * self.step


def shared_span(a: TimeSeries, b: TimeSeries) -> tuple[int, TimeSeries, TimeSeries]:
    """The two series cut to the times they share, and the index in ``a``
    where those times begin. ``b``'s times must lie on ``a``'s grid."""
    shift, off_grid = divmod(b.start_time - a.start_time, a.step)
    if off_grid or b.step != a.step:
        raise DataError(f"times {b.start_time} + j*{b.step} are off the grid "
                        f"{a.start_time} + j*{a.step}")
    lo, hi = max(0, shift), min(len(a), shift + len(b))
    if lo >= hi:
        raise DataError("the two series share no time")
    cut = lambda s, i: TimeSeries(s.values[i:i + hi - lo], start_time=s.time_at(i), step=s.step)
    return lo, cut(a, lo), cut(b, lo - shift)


@dataclass(frozen=True)
class EmbeddedDataset:
    """Aligned (input vector, target) pairs produced by time-delay embedding.

    ``inputs`` has shape (n, r); ``targets`` has shape (n,). Target ``j`` is
    observed at epoch ``start_time + j * step``, in its series' time units.
    Empty datasets (n == 0) are legal as split leftovers but are rejected by
    consumers that need samples.
    """

    inputs: np.ndarray
    targets: np.ndarray
    r: int
    horizon: int
    start_time: int = 0
    step: int = 1

    def __post_init__(self):
        inputs = _frozen_f64(self.inputs, ndim=2)
        targets = _frozen_f64(self.targets, ndim=1)
        _check_embedding(self.r, self.horizon)
        if self.step <= 0:
            raise InvalidParameter(f"step must be positive, got {self.step}")
        if inputs.shape[1] != self.r and inputs.shape[0] > 0:
            raise InvalidParameter(
                f"input vectors have {inputs.shape[1]} entries, expected r={self.r}"
            )
        if inputs.shape[0] != targets.shape[0]:
            raise InvalidParameter("inputs and targets must have equal length")
        if inputs.size and not np.all(np.isfinite(inputs)):
            raise InvalidParameter("embedded inputs must be finite")
        if targets.size and not np.all(np.isfinite(targets)):
            raise InvalidParameter("embedded targets must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.targets.size


def embed(series: TimeSeries, r: int, horizon: int) -> EmbeddedDataset:
    """Unroll a series into contiguous unit-lag windows with a lookahead target.

    Pair ``j`` couples the window ``values[j : j+r]`` with the target
    ``values[j + r - 1 + horizon]``, observed at ``series.time_at(j + r - 1 +
    horizon)``; ordering is preserved.
    """
    _check_embedding(r, horizon)
    n = len(series) - r - horizon + 1
    if n < 1:
        raise SeriesTooShort(
            f"need at least {r + horizon} values to embed (r={r}, horizon={horizon}), "
            f"got {len(series)}"
        )
    v, first = series.values, r - 1 + horizon
    idx = np.arange(n)[:, None] + np.arange(r)[None, :]
    return EmbeddedDataset(v[idx], v[first:first + n], r=r, horizon=horizon,
                           start_time=series.time_at(first), step=series.step)


def split(dataset: EmbeddedDataset, n_train: int) -> tuple[EmbeddedDataset, EmbeddedDataset]:
    """Chronological prefix/suffix split; never shuffles. Each part's targets
    keep their times."""
    if not 0 <= n_train <= len(dataset):
        raise IndexOutOfRange(
            f"n_train={n_train} outside [0, {len(dataset)}]"
        )
    part = lambda first, stop: replace(
        dataset, inputs=dataset.inputs[first:stop], targets=dataset.targets[first:stop],
        start_time=dataset.start_time + first * dataset.step)
    return part(0, n_train), part(n_train, None)


def gen_mackey_glass(n: int, tau: int = 17, x0: float = 1.2, warmup: int = 0) -> TimeSeries:
    """Discrete Mackey-Glass recursion, a standard chaotic forecasting benchmark.

    Iterates ``x[t+1] = x[t] + 0.1 * x[t-tau] / (1 + x[t-tau]**10) - 0.01 * x[t]``
    from the constant history ``x0``. The first emitted sample is one step past
    ``x0``; the first ``warmup`` samples are then discarded. Fully deterministic.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if tau < 1:
        raise InvalidParameter(f"tau must be >= 1, got {tau}")
    if not 0.0 < x0 < 2.0:
        raise InvalidParameter(f"x0 must lie in (0, 2), got {x0}")
    if warmup < 0:
        raise InvalidParameter(f"warmup must be >= 0, got {warmup}")

    total = warmup + n
    # x[i] holds the state at time i - tau, so the constant history and the
    # seed value occupy x[0 .. tau].
    x = np.empty(total + tau + 1)
    x[: tau + 1] = x0
    for t in range(total):
        cur = x[tau + t]
        delayed = x[t]
        x[tau + t + 1] = cur + 0.1 * delayed / (1.0 + delayed ** 10) - 0.01 * cur
    return TimeSeries(x[tau + 1 + warmup :], start_time=0, step=1)


def gen_logistic(n: int, r: float = 3.9, x0: float = 0.3) -> TimeSeries:
    """Logistic map ``x[t+1] = r * x[t] * (1 - x[t])``, starting at ``x0``."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if not 0.0 < r <= 4.0:
        raise InvalidParameter(f"r must lie in (0, 4], got {r}")
    if not 0.0 < x0 < 1.0:
        raise InvalidParameter(f"x0 must lie in (0, 1), got {x0}")
    out = np.empty(n)
    cur = x0
    for i in range(n):
        out[i] = cur
        cur = r * cur * (1.0 - cur)
    return TimeSeries(out, start_time=0, step=1)
