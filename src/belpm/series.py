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


def _f64(values, name: str) -> np.ndarray:
    """``values`` as float64, itself if it already is: the one conversion of a caller's
    array. Unparsable text, complex values (by dtype, or by element type in an array
    of objects or text) and an int past the float range raise ``InvalidParameter``."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf" and (arr.dtype.kind == "c" or any(
                map(np.iscomplexobj, np.asarray(values, dtype=object).flat))):
            raise TypeError("got complex values")
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"{name} must hold real numbers: {exc}") from None


def _check_finite(arr: np.ndarray, name: str, error=InvalidParameter) -> np.ndarray:
    """``arr`` if it holds no NaN or inf (``_f64`` reads a None as NaN), else ``error``."""
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    return arr


def _frozen_f64(values, ndim: int, name: str, finite: bool = True, order: str = "K") -> np.ndarray:
    arr = np.array(_f64(values, name), order=order)
    if arr.ndim != ndim:
        raise InvalidParameter(f"expected a {ndim}-D array, got shape {arr.shape}")
    arr.flags.writeable = False
    return _check_finite(arr, name) if finite else arr


def _query(x, dim: int, batch: bool = False) -> np.ndarray:
    """``x`` as a float64 query (``_f64``) of ``dim`` values, or with ``batch`` an
    (m, dim) matrix of them: the one check of every predictor's input. A wrong
    shape raises ``DimensionMismatch``, then a NaN or inf ``InvalidParameter``."""
    arr = _f64(x, "query")
    if arr.ndim != 1 + batch or arr.shape[-1] != dim:
        raise DimensionMismatch(f"query has shape {arr.shape}, expected {dim} values a row")
    return _check_finite(arr, "query")


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """The one integer rule of every count, step and time: an int (numpy ints
    accepted, bools refused) of at least ``minimum``, or ``InvalidParameter``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameter(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameter(f"{name} must be >= {minimum}, got {value}")


def _real(name: str, value, within=None, rule: str = ""):
    """The one rule of every real parameter: ``value`` if it is a real number in
    the float range (numpy's accepted, bools refused, as by ``_check_int``) whose
    float meets ``within`` if given, else ``InvalidParameter`` ("<name> must <rule>")."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise InvalidParameter(f"{name} must be a real number, got {exc}") from None
    if within is not None and not within(x):
        raise InvalidParameter(f"{name} must {rule}, got {value}")
    return value


def _check_type(name: str, value, kind: type) -> None:
    """The one rule of an argument of a library type (a series, dataset, config, model part)."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{name} must be {kind.__name__}, got {type(value).__name__}")


def _check_embedding(r, horizon) -> None:
    """An embedding (r, horizon) is two ints >= 1, by ``_check_int``."""
    _check_int("r", r, 1)
    _check_int("horizon", horizon, 1)


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
        arr = _frozen_f64(self.values, 1, "series values")
        if arr.size == 0:
            raise EmptyInput("a time series needs at least one value")
        _check_int("start_time", self.start_time)
        _check_int("step", self.step, 1)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def time_at(self, index: int) -> int:
        """Epoch of the observation at ``index``, an int by ``_check_int``."""
        _check_int("index", index)
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
        inputs = _frozen_f64(self.inputs, 2, "embedded inputs")
        targets = _frozen_f64(self.targets, 1, "embedded targets")
        _check_embedding(self.r, self.horizon)
        _check_int("start_time", self.start_time)
        _check_int("step", self.step, 1)
        if inputs.shape[1] != self.r and inputs.shape[0] > 0:
            raise InvalidParameter(
                f"input vectors have {inputs.shape[1]} entries, expected r={self.r}"
            )
        if inputs.shape[0] != targets.shape[0]:
            raise InvalidParameter("inputs and targets must have equal length")
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
    _check_type("series", series, TimeSeries)
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
    _check_type("dataset", dataset, EmbeddedDataset)
    _check_int("n_train", n_train)
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
    _check_int("n", n, 1)
    _check_int("tau", tau, 1)
    _check_int("warmup", warmup, 0)
    _real("x0", x0, lambda x: 0.0 < x < 2.0, "lie in (0, 2)")

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
    _check_int("n", n, 1)
    _real("r", r, lambda x: 0.0 < x <= 4.0, "lie in (0, 4]")
    _real("x0", x0, lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
    out = np.empty(n)
    cur = x0
    for i in range(n):
        out[i] = cur
        cur = r * cur * (1.0 - cur)
    return TimeSeries(out, start_time=0, step=1)
