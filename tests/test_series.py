import numpy as np
import pytest
from hypothesis import given, strategies as st

from belpm.errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidParameter,
    SeriesTooShort,
)
from belpm.series import (
    EmbeddedDataset,
    TimeSeries,
    embed,
    gen_logistic,
    gen_mackey_glass,
    split,
)


def test_timeseries_rejects_empty_nonfinite_and_bad_step():
    with pytest.raises(EmptyInput):
        TimeSeries(np.array([]))
    with pytest.raises(InvalidParameter):
        TimeSeries([1.0, np.nan])
    with pytest.raises(InvalidParameter):
        TimeSeries([1.0], step=0)


def test_timeseries_is_immutable():
    ts = TimeSeries([1.0, 2.0], start_time=5, step=2)
    with pytest.raises(ValueError):
        ts.values[0] = 9.0
    assert ts.time_at(1) == 7


class TestEmbed:
    def test_basic_unrolling(self):
        ds = embed(TimeSeries([1, 2, 3, 4, 5]), r=3, horizon=1)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.inputs, [[1, 2, 3], [2, 3, 4]])
        np.testing.assert_array_equal(ds.targets, [4, 5])

    def test_minimal_case(self):
        ds = embed(TimeSeries([7, 8]), r=1, horizon=1)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.inputs, [[7]])
        np.testing.assert_array_equal(ds.targets, [8])

    def test_horizon_two(self):
        ds = embed(TimeSeries([1, 2, 3, 4, 5, 6]), r=3, horizon=2)
        np.testing.assert_array_equal(ds.inputs, [[1, 2, 3], [2, 3, 4]])
        np.testing.assert_array_equal(ds.targets, [5, 6])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            embed(TimeSeries([1, 2, 3]), r=3, horizon=1)

    @pytest.mark.parametrize("r, horizon", [(0, 1), (3, 0)])
    def test_width_and_horizon_below_one(self, r, horizon):
        with pytest.raises(InvalidParameter, match="(r|horizon) must be >= 1, got 0"):
            embed(TimeSeries(np.arange(10.0)), r=r, horizon=horizon)

    @pytest.mark.parametrize("r, horizon", [(3.0, 1), (3, True)])
    def test_width_and_horizon_are_ints(self, r, horizon):
        with pytest.raises(InvalidParameter, match="(r|horizon) must be an int, got (3.0|True)"):
            embed(TimeSeries(np.arange(10.0)), r=r, horizon=horizon)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=4, max_size=40),
        r=st.integers(1, 3),
        horizon=st.integers(1, 2),
    )
    def test_alignment_property(self, values, r, horizon):
        if len(values) < r + horizon:
            return
        series = TimeSeries(values)
        ds = embed(series, r, horizon)
        assert len(ds) == len(values) - r - horizon + 1
        for j in range(len(ds)):
            assert ds.inputs[j][r - 1] == series.values[j + r - 1]
            assert ds.targets[j] == series.values[j + r - 1 + horizon]


class TestSplit:
    def _dataset(self):
        return embed(TimeSeries(np.arange(8.0)), r=2, horizon=1)

    def test_all_train(self):
        ds = self._dataset()
        train, test = split(ds, len(ds))
        assert len(train) == len(ds) and len(test) == 0

    def test_all_test(self):
        ds = self._dataset()
        train, test = split(ds, 0)
        assert len(train) == 0 and len(test) == len(ds)

    def test_prefix_suffix(self):
        ds = self._dataset()
        train, test = split(ds, 2)
        np.testing.assert_array_equal(train.inputs, ds.inputs[:2])
        np.testing.assert_array_equal(test.targets, ds.targets[2:])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            split(self._dataset(), 99)

    def test_concatenation_recovers_original(self):
        ds = self._dataset()
        for n in range(len(ds) + 1):
            train, test = split(ds, n)
            np.testing.assert_array_equal(
                np.vstack([train.inputs, test.inputs]), ds.inputs)
            np.testing.assert_array_equal(
                np.concatenate([train.targets, test.targets]), ds.targets)


class TestMackeyGlass:
    def test_single_step_value(self):
        out = gen_mackey_glass(n=1, tau=17, x0=1.2, warmup=0)
        expected = 1.2 + 0.1 * 1.2 / (1 + 1.2 ** 10) - 0.012
        assert out.values[0] == pytest.approx(expected, abs=1e-15)

    def test_deterministic(self):
        a = gen_mackey_glass(200, tau=17, x0=1.2, warmup=50)
        b = gen_mackey_glass(200, tau=17, x0=1.2, warmup=50)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nondegenerate(self):
        out = gen_mackey_glass(500, tau=17, x0=1.2, warmup=100)
        assert len(out) == 500
        assert out.values.var() > 0

    def test_warmup_drops_prefix(self):
        full = gen_mackey_glass(30, tau=5, x0=1.0, warmup=0)
        tail = gen_mackey_glass(20, tau=5, x0=1.0, warmup=10)
        np.testing.assert_array_equal(full.values[10:], tail.values)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, tau=17, x0=1.2, warmup=0),
        dict(n=5, tau=0, x0=1.2, warmup=0),
        dict(n=5, tau=17, x0=2.5, warmup=0),
        dict(n=5, tau=17, x0=1.2, warmup=-1),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameter):
            gen_mackey_glass(**kwargs)


class TestLogistic:
    def test_direct_iteration(self):
        out = gen_logistic(n=3, r=4.0, x0=0.5)
        np.testing.assert_array_equal(out.values, [0.5, 1.0, 0.0])

    def test_fixed_point(self):
        out = gen_logistic(n=2, r=2.0, x0=0.5)
        np.testing.assert_array_equal(out.values, [0.5, 0.5])

    def test_matches_independent_reiteration(self):
        out = gen_logistic(n=100, r=3.9, x0=0.3)
        x = 0.3
        for value in out.values:
            assert value == x
            x = 3.9 * x * (1.0 - x)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            gen_logistic(n=5, r=4.5, x0=0.5)
        with pytest.raises(InvalidParameter):
            gen_logistic(n=5, r=3.9, x0=1.0)


def test_empty_dataset_allowed_as_split_leftover():
    ds = EmbeddedDataset(np.empty((0, 3)), np.empty(0), r=3, horizon=1)
    assert len(ds) == 0


@pytest.mark.parametrize("args, message", [
    ((np.ones(3), np.ones(3), 3, 1), "expected a 2-D array"),
    ((np.ones((2, 3)), np.ones(2), 0, 1), "r must be >= 1, got 0"),
    ((np.ones((2, 3)), np.ones(2), 3, 0), "horizon must be >= 1"),
    ((np.ones((2, 2)), np.ones(2), 3, 1), "input vectors have 2 entries"),
    ((np.ones((2, 3)), np.ones(3), 3, 1), "equal length"),
    ((np.array([[1.0, np.nan, 2.0]]), np.ones(1), 3, 1), "inputs must be finite"),
    ((np.ones((1, 3)), np.array([np.inf]), 3, 1), "targets must be finite"),
])
def test_embedded_dataset_refusals(args, message):
    with pytest.raises(InvalidParameter, match=message):
        EmbeddedDataset(*args)
