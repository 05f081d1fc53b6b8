import numpy as np
import pytest

from belpm.errors import (
    InvalidParameter,
    LengthMismatch,
    NumericError,
    SeriesTooShort,
    ZeroVariance,
)
from belpm.metrics import correlation, find_peaks, match_peaks, mse, nmse
from belpm.series import TimeSeries


@pytest.mark.parametrize("metric", [nmse, mse, correlation])
@pytest.mark.parametrize("y, yhat", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, np.nan]),
    ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0, np.inf]),
    ([1.0, 2.0, -np.inf], [1.0, 2.0, 3.0]),
])
def test_metrics_refuse_non_finite_input(metric, y, yhat):
    # nmse gave nan, mse inf and correlation nan without a word.
    with pytest.raises(NumericError, match="must be finite"):
        metric(y, yhat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric", [nmse, mse, correlation])
@pytest.mark.parametrize("y, yhat", [
    ([0.0, 1.0, 2.0], [1e160, 0.0, 0.0]),  # a square overflows
    ([1e308, 1e308, -1e308], [0.0, 1.0, 2.0]),  # so does the targets' sum
])
def test_metrics_refuse_overflowing_sums(metric, y, yhat):
    # Finite inputs: nmse and mse gave inf and correlation -0.0, with a warning.
    with pytest.raises(NumericError, match="overflows the float range"):
        metric(y, yhat)


class TestNmse:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert nmse(y, y) == 0.0

    def test_mean_predictor_scores_one(self):
        y = np.array([1.0, 2.0, 3.0, 7.0])
        yhat = np.full(4, y.mean())
        assert nmse(y, yhat) == 1.0

    def test_substitution(self):
        assert nmse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            nmse([2.0, 2.0], [1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nmse([1.0], [1.0, 2.0])

    def test_equals_mse_ratio(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = rng.normal(size=30)
            yhat = rng.normal(size=30)
            ratio = mse(y, yhat) / mse(y, np.full_like(y, y.mean()))
            assert nmse(y, yhat) == pytest.approx(ratio, rel=1e-12)


class TestMse:
    def test_identical(self):
        assert mse([4.0, 5.0], [4.0, 5.0]) == 0.0

    def test_substitution(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1 / 3, rel=1e-15)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=20)
        err = rng.normal(size=20)
        c = 3.5
        assert mse(y, y + c * err) == pytest.approx(c * c * mse(y, y + err), rel=1e-12)


class TestCorrelation:
    def test_self_is_one(self):
        y = np.array([1.0, 3.0, 2.0, 5.0])
        assert correlation(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        y = np.array([1.0, 3.0, 2.0, 5.0])
        assert correlation(y, -y) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=25)
        yhat = rng.normal(size=25)
        base = correlation(y, yhat)
        assert correlation(y, 2.5 * yhat + 7.0) == pytest.approx(base, abs=1e-12)
        assert correlation(y, -1.5 * yhat) == pytest.approx(-base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            correlation([1.0, 1.0], [1.0, 2.0])


class TestFindPeaks:
    def test_inspection(self):
        series = TimeSeries([0.0, 1.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(find_peaks(series), [1, 3])
        np.testing.assert_array_equal(find_peaks(series, top_m=1), [3])

    def test_plateau_first_index(self):
        np.testing.assert_array_equal(
            find_peaks(TimeSeries([0.0, 1.0, 1.0, 0.0])), [1])

    def test_monotone_has_no_peaks(self):
        assert find_peaks(TimeSeries([1.0, 2.0, 3.0, 4.0])).size == 0

    def test_value_tie_prefers_earlier_index(self):
        series = TimeSeries([0.0, 5.0, 0.0, 5.0, 0.0, 3.0, 0.0])
        np.testing.assert_array_equal(find_peaks(series, top_m=2), [1, 3])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            find_peaks(TimeSeries([1.0, 2.0]))

    def test_bad_top_m(self):
        with pytest.raises(InvalidParameter):
            find_peaks(TimeSeries([0.0, 1.0, 0.0]), top_m=0)


def bump_series(n, peak_positions):
    v = np.zeros(n)
    for p in peak_positions:
        v[p] = 1.0
    return TimeSeries(v)


class TestMatchPeaks:
    def test_delayed_within_window(self):
        predicted = bump_series(20, [11])
        report = match_peaks([10], predicted, window=2, top_m=1)
        assert report.identified_delayed == 1
        assert report.identified_exact == report.missed == 0
        assert report.offsets == (1,)

    def test_missed_outside_window(self):
        predicted = bump_series(20, [13])
        report = match_peaks([10], predicted, window=2, top_m=1)
        assert report.missed == 1
        assert report.offsets == (None,)

    def test_identity_all_exact(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.normal(size=60))
        peaks = find_peaks(series, top_m=5)
        report = match_peaks(peaks, series, window=2, top_m=5)
        assert report.identified_exact == peaks.size
        assert report.identified_delayed == report.missed == 0

    def test_each_predicted_peak_used_once(self):
        predicted = bump_series(30, [10])
        report = match_peaks([9, 11], predicted, window=2, top_m=3)
        assert report.identified_delayed == 1
        assert report.missed == 1

    def test_counts_partition_observed_peaks(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            observed = TimeSeries(rng.normal(size=40))
            predicted = TimeSeries(rng.normal(size=40))
            peaks = find_peaks(observed, top_m=6)
            report = match_peaks(peaks, predicted, window=2, top_m=6)
            assert report.total == peaks.size
            assert len(report.offsets) == peaks.size

    def test_time_axis_shift_is_irrelevant(self):
        rng = np.random.default_rng(5)
        values_obs = rng.normal(size=50)
        values_pred = rng.normal(size=50)
        a_obs = TimeSeries(values_obs, start_time=0)
        b_obs = TimeSeries(values_obs, start_time=1000)
        a_pred = TimeSeries(values_pred, start_time=0)
        b_pred = TimeSeries(values_pred, start_time=1000)
        pa = find_peaks(a_obs, top_m=4)
        pb = find_peaks(b_obs, top_m=4)
        ra = match_peaks(pa, a_pred, window=2, top_m=4)
        rb = match_peaks(pb, b_pred, window=2, top_m=4)
        assert ra == rb

    def test_observed_index_out_of_predicted_range(self):
        with pytest.raises(LengthMismatch):
            match_peaks([25], bump_series(10, [5]), window=2, top_m=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: nmse([], []), LengthMismatch, "non-empty"),
    (lambda: match_peaks([], bump_series(10, [5]), window=-1, top_m=1), InvalidParameter,
     "window must be >= 0"),
    (lambda: match_peaks([[5]], bump_series(10, [5]), window=2, top_m=1), InvalidParameter,
     "1-D index sequence"),
])
def test_metric_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
