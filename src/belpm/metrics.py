"""Error metrics and the peak-identification protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, LengthMismatch, NumericError, SeriesTooShort, ZeroVariance
from .series import TimeSeries, _check_int


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(yhat, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise LengthMismatch(f"sequences have shapes {a.shape} and {b.shape}")
    if a.size == 0:
        raise LengthMismatch("sequences must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("sequences must be finite")
    return a, b


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

    ``offsets`` aligns with the observed peak list: the signed predicted-minus-
    observed offset for matched peaks, None for missed ones. The three counts
    always partition the observed peaks.
    """

    identified_exact: int
    identified_delayed: int
    missed: int
    window: int
    offsets: tuple[int | None, ...]

    @property
    def total(self) -> int:
        return self.identified_exact + self.identified_delayed + self.missed


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
    if len(series) < 3:
        raise SeriesTooShort(f"peak detection needs >= 3 values, got {len(series)}")
    if top_m is not None:
        _check_int("top_m", top_m, 1)
    v = series.values
    interior = np.arange(1, v.size - 1)
    mask = (v[interior - 1] < v[interior]) & (v[interior] >= v[interior + 1])
    peaks = interior[mask]
    if top_m is not None and peaks.size > top_m:
        ranked = sorted(peaks, key=lambda t: (-v[t], t))
        peaks = np.sort(np.asarray(ranked[:top_m], dtype=peaks.dtype))
    return peaks


def match_peaks(
    observed_peaks,
    predicted: TimeSeries,
    window: int,
    top_m: int | None,
) -> PeakReport:
    """Greedy matching of observed peak positions to predicted peaks.

    Predicted peaks are detected with the same rule and the same ``top_m``.
    Candidate (observed, predicted) pairs within ``window`` steps are taken
    closest-first (ties to the earlier predicted index); each peak matches at
    most once. A zero offset counts as exact, a nonzero one within the window
    as delayed, anything unmatched as missed.
    """
    _check_int("window", window, 0)
    obs = np.asarray(observed_peaks, dtype=np.int64)
    if obs.ndim != 1:
        raise InvalidParameter("observed_peaks must be a 1-D index sequence")
    if obs.size and (obs.min() < 0 or obs.max() >= len(predicted)):
        raise LengthMismatch(
            "observed peak indices fall outside the predicted series"
        )
    pred_peaks = find_peaks(predicted, top_m=top_m)

    candidates = []
    for oi, ot in enumerate(obs):
        for pt in pred_peaks:
            off = int(pt) - int(ot)
            if abs(off) <= window:
                candidates.append((abs(off), int(pt), int(ot), oi, off))
    candidates.sort()

    matched_obs: dict[int, int] = {}
    used_pred: set[int] = set()
    for _adist, pt, _ot, oi, off in candidates:
        if oi in matched_obs or pt in used_pred:
            continue
        matched_obs[oi] = off
        used_pred.add(pt)

    offsets = tuple(matched_obs.get(oi) for oi in range(obs.size))
    exact = sum(1 for off in offsets if off == 0)
    delayed = sum(1 for off in offsets if off is not None and off != 0)
    missed = obs.size - exact - delayed
    return PeakReport(
        identified_exact=exact,
        identified_delayed=delayed,
        missed=missed,
        window=window,
        offsets=offsets,
    )
