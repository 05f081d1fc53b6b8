from functools import reduce

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


def update_fold(model, dataset, epochs):
    """Reference: ``bel_update``'s rule written out, with the summed
    responses as Python floats, folded over the pairs in order; (v, w)."""
    v, w = model.v, model.w
    for _ in range(epochs):
        for s, rew in zip(dataset.inputs, dataset.targets.tolist()):
            a, o = v * s, w * s
            e = float(a.sum() - o.sum())
            v, w = (v + model.alpha * s * max(0.0, rew - float(a.sum())),
                    w + model.beta * s * (e - rew))
    return v, w


def assert_train_equals_update_fold(model, dataset, epochs):
    trained = bel_train(model, dataset, epochs)
    updated = reduce(lambda m, pair: bel_update(m, *pair),
                     list(zip(dataset.inputs, dataset.targets)) * epochs, model)
    for want, bank in zip(update_fold(model, dataset, epochs), ("v", "w")):
        for got in (trained, updated):
            np.testing.assert_array_equal(getattr(got, bank).view(np.int64),
                                          want.view(np.int64))
    return trained


@pytest.mark.parametrize("r", [1, 3, 9])
def test_train_equals_the_update_fold_bit_for_bit(r):
    rng = np.random.default_rng(r)
    ds = EmbeddedDataset(rng.normal(size=(40, r)), rng.normal(size=40), r=r, horizon=1)
    assert_train_equals_update_fold(ClassicBelModel.zeros(r, alpha=0.3, beta=0.2), ds, 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverges_exactly_as_the_update_fold():
    # AE-scale stimuli drive the banks past the float range to inf and NaN;
    # training warns once, and numpy's overflow warnings stay silent.
    x = 600.0 + 500.0 * np.sin(np.arange(83) / 5.0)
    ds = EmbeddedDataset(np.lib.stride_tricks.sliding_window_view(x[:-1], 3), x[3:],
                         r=3, horizon=1)
    with np.errstate(over="ignore", invalid="ignore"):  # update_fold's own numpy arithmetic
        with pytest.warns(UserWarning, match="diverged") as record:
            trained = assert_train_equals_update_fold(ClassicBelModel.zeros(3, 0.1, 0.1), ds, 10)
    assert len(record) == 1
    assert not np.isfinite(trained.w).all()


def test_train_checks_the_stimulus_width():
    ds = EmbeddedDataset(np.ones((3, 2)), np.ones(3), r=2, horizon=1)
    with pytest.raises(DimensionMismatch):
        bel_train(ClassicBelModel.zeros(3), ds, epochs=1)


@pytest.mark.parametrize("rew", [np.nan, np.inf, -np.inf])
def test_update_refuses_a_non_finite_reinforcement(rew):
    # max(0, nan) is 0, so a NaN used to keep v and turn w into NaN.
    with pytest.raises(InvalidParameter, match="reinforcement must be finite"):
        bel_update(ClassicBelModel.zeros(3), [1.0, 1.0, 2.0], rew)


def test_non_finite_stimulus_refused():
    model = ClassicBelModel(v=[1.0, 2.0, 3.0], w=[0.0, 0.0, 0.0], alpha=0.5, beta=0.5)
    for call in (bel_predict, bel_forward, lambda m, s: bel_update(m, s, 1.0)):
        with pytest.raises(InvalidParameter, match="query must be finite"):
            call(model, [np.nan, 1.0, 2.0])


@pytest.mark.parametrize("build, message", [
    (lambda: ClassicBelModel(v=[1.0, 2.0], w=[1.0], alpha=0.5, beta=0.5), "equal length"),
    (lambda: bel_train(ClassicBelModel.zeros(2),
                       EmbeddedDataset(np.ones((3, 2)), np.ones(3), r=2, horizon=1), epochs=-1),
     "epochs must be >= 0"),
])
def test_classic_refusals(build, message):
    with pytest.raises(InvalidParameter, match=message):
        build()
