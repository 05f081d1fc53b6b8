import numpy as np
import pytest

from belpm.classic import ClassicBelModel, bel_forward, bel_predict, bel_train, bel_update
from belpm.errors import DimensionMismatch, InvalidParameter
from belpm.series import EmbeddedDataset

from oracles import bel_replay


def test_zero_weights_zero_output():
    model = ClassicBelModel.zeros(3)
    e, a, o = bel_forward(model, [1.0, -2.0, 0.5])
    assert e == 0.0
    np.testing.assert_array_equal(a, np.zeros(3))


def test_forward_substitution():
    model = ClassicBelModel(v=[1.0], w=[0.0], alpha=0.5, beta=0.5)
    e, _, _ = bel_forward(model, [2.0])
    assert e == 2.0


def test_equal_banks_cancel_for_any_stimulus():
    rng = np.random.default_rng(0)
    weights = rng.normal(size=4)
    model = ClassicBelModel(v=weights, w=weights.copy(), alpha=0.3, beta=0.3)
    for _ in range(20):
        e, _, _ = bel_forward(model, rng.normal(size=4))
        assert e == 0.0


def test_update_clamps_when_amygdala_saturated():
    model = ClassicBelModel(v=[2.0], w=[0.0], alpha=0.5, beta=0.5)
    updated = bel_update(model, [1.0], rew=1.0)  # sum(A)=2 >= rew
    np.testing.assert_array_equal(updated.v, model.v)


def test_first_update_from_zero_weights():
    model = ClassicBelModel.zeros(1)
    updated = bel_update(model, [1.0], rew=1.0)
    np.testing.assert_array_equal(updated.v, [0.5])
    np.testing.assert_array_equal(updated.w, [-0.5])


def test_update_zero_when_output_matches_reinforcement():
    # E == rew leaves the inhibitory bank untouched.
    model = ClassicBelModel(v=[1.5], w=[0.5], alpha=0.5, beta=0.5)
    e, _, _ = bel_forward(model, [1.0])
    updated = bel_update(model, [1.0], rew=e)
    np.testing.assert_array_equal(updated.w, model.w)


def test_amygdala_sum_never_decreases_on_nonnegative_stimuli():
    rng = np.random.default_rng(1)
    model = ClassicBelModel.zeros(3, alpha=0.4, beta=0.2)
    for _ in range(50):
        s = rng.uniform(0.0, 1.0, size=3)
        before = float((model.v * s).sum())
        model = bel_update(model, s, rew=rng.normal())
        after = float((model.v * s).sum())
        assert after >= before - 1e-15


def test_single_pair_converges_to_reinforcement():
    model = ClassicBelModel.zeros(1, alpha=0.5, beta=0.5)
    ds = EmbeddedDataset(np.array([[1.0]]), np.array([1.0]), r=1, horizon=1)
    model = bel_train(model, ds, epochs=200)
    assert bel_predict(model, [1.0]) == pytest.approx(1.0, abs=1e-9)


def test_train_zero_epochs_identity():
    model = ClassicBelModel.zeros(2)
    ds = EmbeddedDataset(np.ones((3, 2)), np.ones(3), r=2, horizon=1)
    out = bel_train(model, ds, epochs=0)
    np.testing.assert_array_equal(out.v, model.v)
    np.testing.assert_array_equal(out.w, model.w)


def test_train_matches_step_by_step_replay():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    ds = EmbeddedDataset(X, y, r=2, horizon=1)
    model = bel_train(ClassicBelModel.zeros(2, alpha=0.2, beta=0.1), ds, epochs=3)
    v_ref, w_ref = bel_replay([0.0, 0.0], [0.0, 0.0], 0.2, 0.1,
                              list(zip(X.tolist(), y.tolist())), epochs=3)
    np.testing.assert_allclose(model.v, v_ref, rtol=0, atol=0)
    np.testing.assert_allclose(model.w, w_ref, rtol=0, atol=0)


def test_dimension_and_rate_validation():
    model = ClassicBelModel.zeros(2)
    with pytest.raises(DimensionMismatch):
        bel_forward(model, [1.0])
    with pytest.raises(InvalidParameter):
        ClassicBelModel.zeros(2, alpha=0.0)
    with pytest.raises(InvalidParameter):
        ClassicBelModel.zeros(2, beta=1.5)


def test_non_finite_weights_kept():
    # classic training can diverge; the model keeps such weights as they are
    model = ClassicBelModel(v=[np.nan, 1.0], w=[np.inf, 0.0], alpha=0.5, beta=0.5)
    assert np.isnan(model.v[0]) and np.isinf(model.w[0])
    assert not model.v.flags.writeable and not model.w.flags.writeable
    assert np.isnan(bel_predict(model, [1.0, 1.0]))
