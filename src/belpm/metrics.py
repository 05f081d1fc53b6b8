"""Error metrics and the peak-identification protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, LengthMismatch, NumericError, SeriesTooShort, ZeroVariance
from .series import TimeSeries, _check_finite, _check_int, _check_type, _f64


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a, b = _f64(y, "y"), _f64(yhat, "yhat")
    if a.ndim != 1 or a.shape != b.shape:
        raise LengthMismatch(f"sequences have shapes {a.shape} and {b.shape}")
    if a.size == 0:
        raise LengthMismatch("sequences must be non-empty")
    return _check_finite(a, "sequences", NumericError), _check_finite(b, "sequences", NumericError)


def _finite(value) -> float:
    """``value``, refused when finite inputs squared or summed past the float
    range (callers ignore numpy's overflow and invalid warnings)."""
    if not np.isfinite(value):
        raise NumericError("metric overflows the float range")
    return float(value)


def nmse(y, yhat) -> float:
    """Squared error normalized by the targets' centered sum of squares.

    1.0 is the mean predictor's score; a constant target sequence has no
    defined value and raises ``ZeroVariance``.
    """
    a, b = _paired(y, yhat)
    with np.errstate(over="ignore", invalid="ignore"):
        den = _finite(((a - a.mean()) ** 2).sum())
        if den == 0.0:
            raise ZeroVariance("targets are constant, nmse undefined")
        return _finite(float(((a - b) ** 2).sum()) / den)


def mse(y, yhat) -> float:
    """Mean squared error."""
    a, b = _paired(y, yhat)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(((a - b) ** 2).mean())


def correlation(y, yhat) -> float:
    """Pearson correlation with population (uncorrected) moments."""
    a, b = _paired(y, yhat)
    with np.errstate(over="ignore", invalid="ignore"):
        da = a - a.mean()
        db = b - b.mean()
        sa = _finite(np.sqrt((da ** 2).mean()))
        sb = _finite(np.sqrt((db ** 2).mean()))
        if sa == 0.0 or sb == 0.0:
            raise ZeroVariance("correlation undefined for a constant sequence")
        return _finite((da * db).mean()) / (sa * sb)


@dataclass(frozen=True)
class PeakReport:
    """Outcome of matching observed peaks against predicted peaks.

    ``observed`` holds the observed peak indices matched on; ``offsets``
    aligns with it: the signed predicted-minus-observed offset of a matched
    peak, at most ``window`` steps, None for a missed one. The counts are read
    from ``offsets``. Window, indices and offsets are ints by ``_check_int``.
    """

    window: int
    observed: tuple[int, ...]
    offsets: tuple[int | None, ...]

    def __post_init__(self):
        _check_int("window", self.window, 0)
        if not (isinstance(self.observed, tuple) and isinstance(self.offsets, tuple)
                and len(self.offsets) == len(self.observed)):
            raise InvalidParameter("observed and offsets must be tuples of one length")
        for t in self.observed:
            _check_int("observed peak", t)
        for d in self.offsets:
            if d is not None:
                _check_int("offset", d)
                if abs(d) > self.window:
                    raise InvalidParameter(f"offset {d} lies outside the window {self.window}")

    @property
    def identified_exact(self) -> int:
        return self.offsets.count(0)

    @property
    def identified_delayed(self) -> int:
        return self.total - self.identified_exact - self.missed

    @property
    def missed(self) -> int:
        return self.offsets.count(None)

    @property
    def total(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class EvaluationReport:
    """Metric bundle for one prediction run."""

    nmse: float
    mse: float
    correlation: float
    n: int
    peak_report: PeakReport | None = None


def find_peaks(series: TimeSeries, top_m: int | None = None) -> np.ndarray:
    """Indices of strict local maxima, optionally truncated to the m largest.

    A peak satisfies values[t-1] < values[t] >= values[t+1], so a plateau is
    claimed by its first index and endpoints never qualify. With ``top_m``,
    peaks are ranked by value (ties to the earlier index) and the survivors
    are returned in time order.
    """
    _check_type("series", series, TimeSeries)
    if len(series) < 3:
        raise SeriesTooShort(f"peak detection needs >= 3 values, got {len(series)}")
    v = series.values
    interior = np.arange(1, v.size - 1)
    peaks = interior[(v[interior - 1] < v[interior]) & (v[interior] >= v[interior + 1])]
    if top_m is not None:
        _check_int("top_m", top_m, 1)
        peaks = np.sort(peaks[np.lexsort((peaks, -v[peaks]))[:top_m]])
    return peaks


def match_peaks(
    observed_peaks,
    predicted: TimeSeries,
    window: int,
    top_m: int | None,
) -> PeakReport:
    """Greedy matching of observed peak positions to predicted peaks.

    Each observed index is an int by ``_check_int``. Predicted peaks are
    detected with the same rule and the same ``top_m``. Candidate (observed,
    predicted) pairs within ``window`` steps are taken closest-first (ties to
    the earlier predicted index, then to the earlier observed one); each peak
    matches at most once. A zero offset counts as exact, a nonzero one within
    the window as delayed, anything unmatched as missed.
    """
    _check_int("window", window, 0)
    obs = np.asarray(observed_peaks, dtype=object)
    if obs.ndim != 1:
        raise InvalidParameter("observed_peaks must be a 1-D index sequence")
    for t in obs:
        _check_int("observed peak", t)
    observed = tuple(map(int, obs))
    if observed and (min(observed) < 0 or max(observed) >= len(predicted)):
        raise LengthMismatch("observed peak indices fall outside the predicted series")
    pred = find_peaks(predicted, top_m=top_m).tolist()
    offsets, taken = [None] * len(observed), set()
    for _, p, o, i in sorted((abs(p - o), p, o, i) for i, o in enumerate(observed)
                             for p in pred if abs(p - o) <= window):
        if offsets[i] is None and p not in taken:
            offsets[i] = p - o
            taken.add(p)
    return PeakReport(window, observed, tuple(offsets))
