"""``predict_with``, the batch predictor of every model kind, against each
kind's single-query function: the same bits on every row, and the same error
class for a bad row."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import belpm.model
from belpm import network
from belpm.baselines import WknnModel, wknn_predict, wknn_predict_many
from belpm.classic import ClassicBelModel, bel_predict
from belpm.errors import DimensionMismatch, InvalidParameter
from belpm.experiment import predict_with
from belpm.metrics import nmse
from belpm.model import (BelpmConfig, BelpmModel, CmWeights, _bl_feature_matrix, cm_lse_fit,
                         predict, predict_many, train)
from belpm.network import AdaptiveNetwork, KernelKind, _loo_table
from belpm.series import TimeSeries, embed, gen_mackey_glass, split
from belpm.storage import MODEL_KINDS, kind_of

SINGLE = {"belpm": predict, "wknn": wknn_predict, "classic_bel": bel_predict}

# Few distinct coordinates make duplicate rows and ties at the k-th distance;
# the 1e200 scale makes squared differences overflow to inf.
COORD = st.integers(-2, 2).map(float) | st.floats(-3.0, 3.0)
SCALE = st.sampled_from([1.0, 1e200])


@st.composite
def stored_pairs(draw, max_dim=4):
    # Up to 40 stored pairs: sums over many neighbor ranks, and batches whose
    # key windows cover only part of the stored samples.
    n = draw(st.integers(1, 8) | st.integers(9, 40))
    dim = draw(st.integers(1, max_dim))
    scale = draw(SCALE)
    inputs = np.array(draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim),
                                    min_size=n, max_size=n))) * scale
    targets = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    queries = np.array(draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim),
                                     min_size=1, max_size=6))) * draw(SCALE)
    return inputs, targets, draw(st.integers(1, n + 1)), queries


def assert_rows_match(model, queries):
    batch = predict_with(model, queries)
    single = np.array([SINGLE[kind_of(model)](model, q) for q in queries])
    assert batch.shape == (len(queries),)
    np.testing.assert_array_equal(batch.view(np.int64), single.view(np.int64))


def test_every_kind_has_a_single_query_reference():
    assert set(SINGLE) == set(MODEL_KINDS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(stored_pairs())
def test_wknn_batch_equals_single_queries(case):
    inputs, targets, k, queries = case
    assert_rows_match(WknnModel(inputs, targets, k), queries)


@pytest.mark.parametrize("k", [1, 2, 7, 13, 40])
def test_wknn_batch_equals_single_queries_on_generic_values(k):
    # Sums of random products show any change in summation order.
    rng = np.random.default_rng(k)
    model = WknnModel(rng.normal(size=(60, 3)), rng.normal(size=60), k)
    assert_rows_match(model, rng.normal(size=(30, 3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(stored_pairs(), st.sampled_from(list(KernelKind)), st.floats(0.1, 5.0),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_belpm_batch_equals_single_queries(case, kernel, bw, cm):
    inputs, targets, k, queries = case
    k = min(k, len(inputs))
    nets = [AdaptiveNetwork(x, targets, k=k, kernel=kernel, bandwidths=np.full(k, bw))
            for x in (_bl_feature_matrix(inputs), inputs)]
    model = BelpmModel(horizon=1, bl=nets[0], mo=nets[1], cm=CmWeights(*cm))
    assert_rows_match(model, queries)


@pytest.mark.parametrize("k_a, k_o", [(4, 8), (8, 8), (8, 4)])
def test_belpm_reach_moves_no_bit(k_a, k_o):
    # With k_o <= k_a the secondary network searches within the primary
    # network's k-th distance, in training and prediction; with k_o > k_a it
    # searches all samples. Neither the model nor a prediction moves a bit.
    data = embed(gen_mackey_glass(700, warmup=300), 3, 1)
    train_set, test = split(data, 400)
    config = BelpmConfig(k_a=k_a, k_o=k_o, epochs=2)
    model = train(train_set, config)
    with mock.patch.object(belpm.model, "_loo_table", lambda net, reach=None: _loo_table(net)):
        unbounded = train(train_set, config)
    assert model.cm == unbounded.cm
    for net, ref in ((model.bl, unbounded.bl), (model.mo, unbounded.mo)):
        np.testing.assert_array_equal(net.bandwidths.view(np.int64), ref.bandwidths.view(np.int64))
        np.testing.assert_array_equal(net.train_targets.view(np.int64),
                                      ref.train_targets.view(np.int64))
    assert_rows_match(model, test.inputs)
    r_a = network._forward_many(model.bl, _bl_feature_matrix(test.inputs))[0]
    r_o = network._forward_many(model.mo, test.inputs)[0]
    fused = model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3
    np.testing.assert_array_equal(predict_many(model, test.inputs).view(np.int64),
                                  fused.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda r: st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=r, max_size=r),
    st.lists(st.floats(-1e3, 1e3), min_size=r, max_size=r),
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=r, max_size=r), min_size=1,
             max_size=6))))
def test_classic_batch_equals_single_queries(case):
    # r >= 8 takes numpy's unrolled pairwise sum in both paths.
    v, w, queries = case
    assert_rows_match(ClassicBelModel(v=v, w=w, alpha=0.5, beta=0.5), np.array(queries))


def models():
    inputs = np.arange(12.0).reshape(4, 3)
    targets = np.arange(4.0)
    nets = [AdaptiveNetwork(x, targets, k=2) for x in (_bl_feature_matrix(inputs), inputs)]
    return [BelpmModel(horizon=1, bl=nets[0], mo=nets[1], cm=CmWeights(1.0, 0.5, 0.0)),
            WknnModel(inputs, targets, k=2),
            ClassicBelModel(v=[1.0, 2.0, 3.0], w=[0.5, 0.0, 1.0], alpha=0.5, beta=0.5)]


@pytest.mark.parametrize("model", models(), ids=lambda m: kind_of(m))
@pytest.mark.parametrize("bad, error", [
    ([1.0, np.nan, 2.0], InvalidParameter),
    ([np.inf, 1.0, 2.0], InvalidParameter),
    ([1.0, 2.0], DimensionMismatch),
    ([1.0, 2.0, 3.0, 4.0], DimensionMismatch),
])
def test_bad_row_raises_the_same_class_in_batch_and_single(model, bad, error):
    with pytest.raises(error):
        SINGLE[kind_of(model)](model, bad)
    good = np.zeros((2, len(bad)))
    with pytest.raises(error):
        predict_with(model, np.vstack([good, bad]))


@pytest.mark.parametrize("call", [
    lambda belpm_model, wknn_model: predict(belpm_model, "abc"),
    lambda belpm_model, wknn_model: predict_many(belpm_model, [[1, 2, "x"]]),
    lambda belpm_model, wknn_model: predict(belpm_model, [1 + 2j, 1, 2]),
    lambda belpm_model, wknn_model: wknn_predict(wknn_model, ["a", 1, 2]),
    lambda belpm_model, wknn_model: TimeSeries(["a"]),
    lambda belpm_model, wknn_model: predict(belpm_model, np.array([1 + 2j, 1, 2])),
    lambda belpm_model, wknn_model: predict_many(belpm_model, np.ones((2, 3), dtype=complex)),
    lambda belpm_model, wknn_model: AdaptiveNetwork([["a"]], [1.0], k=1),
    lambda belpm_model, wknn_model: WknnModel([[1.0], ["a"]], [1.0, 2.0], 1),
    lambda belpm_model, wknn_model: nmse([1, 2], [1, "a"]),
    lambda belpm_model, wknn_model: cm_lse_fit(["a"], [1], [1]),
    lambda belpm_model, wknn_model: TimeSeries([10 ** 400, 1]),
    lambda belpm_model, wknn_model: predict(belpm_model, [10 ** 400, 1, 2]),
], ids=["predict text", "predict_many text", "predict complex", "wknn_predict text",
        "TimeSeries text", "predict complex array", "predict_many complex zeros",
        "AdaptiveNetwork text", "WknnModel text", "nmse text", "cm_lse_fit text",
        "TimeSeries big int", "predict big int"])
def test_values_that_are_not_real_numbers_are_refused(call):
    # Each raised numpy's ValueError, TypeError or OverflowError from the float
    # conversion, or, for a complex array, answered for its real part.
    belpm_model, wknn_model, _ = models()
    with pytest.raises(InvalidParameter, match="real numbers: "):
        call(belpm_model, wknn_model)


@pytest.mark.parametrize("model", models(), ids=lambda m: kind_of(m))
def test_batch_needs_a_matrix(model):
    with pytest.raises(DimensionMismatch):
        predict_with(model, [1.0, 2.0, 3.0])
    assert predict_with(model, np.zeros((0, 3))).shape == (0,)


def test_one_row_batches_skip_the_window_search(monkeypatch):
    # One row ranks its n distances with one sort; the window search would
    # first sort all n stored first coordinates.
    calls = []
    choose = network._key
    monkeypatch.setattr(network, "_key", lambda *a: calls.append(1) or choose(*a))
    belpm_model, wknn_model, _ = models()
    q = np.array([[1.0, 2.0, 3.5]])
    assert predict_many(belpm_model, q)[0] == predict(belpm_model, q[0])
    assert wknn_predict_many(wknn_model, q)[0] == wknn_predict(wknn_model, q[0])
    assert not calls
    predict_many(belpm_model, np.vstack([q, q]))
    wknn_predict_many(wknn_model, np.vstack([q, q]))
    assert len(calls) == 3  # both networks and wknn
