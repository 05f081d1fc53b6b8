import warnings

import numpy as np
import pytest

from belpm.baselines import WknnModel, wknn_predict
from belpm.errors import DimensionMismatch, InvalidParameter
from belpm.network import AdaptiveNetwork, KernelKind, forward

from oracles import wknn_direct


def test_k1_returns_nearest_target():
    X = np.array([[0.0], [1.0], [5.0]])
    y = np.array([10.0, 20.0, 30.0])
    model = WknnModel(X, y, k=1)
    assert wknn_predict(model, [0.9]) == 20.0


def test_equidistant_neighbors_average():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([2.0, 6.0])
    model = WknnModel(X, y, k=2)
    assert wknn_predict(model, [0.0, 0.0]) == pytest.approx(4.0, abs=1e-12)


def test_exact_match_dominates():
    X = np.array([[0.0], [0.001]])
    y = np.array([1.0, 100.0])
    model = WknnModel(X, y, k=2)
    assert wknn_predict(model, [0.0]) == pytest.approx(1.0, abs=1e-6)


def test_matches_independent_recomputation():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = WknnModel(X, y, k=3)
    for _ in range(20):
        q = rng.normal(size=3)
        ref = wknn_direct(X.tolist(), y.tolist(), 3, q.tolist())
        assert wknn_predict(model, q) == pytest.approx(ref, abs=1e-12)


def test_all_distances_overflowing_give_mean_of_k_targets():
    # Every squared distance overflows, so every inverse distance is 0.
    X = np.array([[1e200, 1e200], [2e200, -1e200], [1.5e200, 0.0]])
    y = np.array([1.0, 2.0, 4.0])
    model = WknnModel(X, y, k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = wknn_predict(model, [-1e200, 1e200])
    assert np.isfinite(out) and out == np.mean(y[:2])


def test_output_bounded_by_selected_targets():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    model = WknnModel(X, y, k=4)
    for _ in range(20):
        out = wknn_predict(model, rng.normal(size=2))
        assert y.min() - 1e-12 <= out <= y.max() + 1e-12


def test_k1_agrees_with_adaptive_network_any_kernel():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    wknn = WknnModel(X, y, k=1)
    for kind in KernelKind:
        net = AdaptiveNetwork(X, y, k=1, kernel=kind)
        for _ in range(10):
            q = rng.normal(size=3)
            out = forward(net, q)
            assert wknn_predict(wknn, q) == out


def test_permutation_changes_nothing_without_ties():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    perm = rng.permutation(15)
    a = WknnModel(X, y, k=3)
    b = WknnModel(X[perm], y[perm], k=3)
    for _ in range(10):
        q = rng.normal(size=2)
        assert wknn_predict(a, q) == pytest.approx(wknn_predict(b, q), abs=1e-12)


def test_k_clamped_and_dim_checked():
    model = WknnModel(np.zeros((3, 2)), np.zeros(3), k=10)
    assert model.k == 3
    with pytest.raises(DimensionMismatch):
        wknn_predict(model, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(bad):
    model = WknnModel(np.arange(6.0).reshape(3, 2), np.arange(3.0), k=2)
    with pytest.raises(InvalidParameter, match="finite"):
        wknn_predict(model, [1.0, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_stored_pairs_rejected(bad):
    with pytest.raises(InvalidParameter, match="finite"):
        WknnModel(np.arange(6.0).reshape(3, 2), np.array([0.0, bad, 2.0]), k=2)
    with pytest.raises(InvalidParameter, match="finite"):
        WknnModel(np.array([[0.0, 1.0], [bad, 3.0], [4.0, 5.0]]), np.arange(3.0), k=2)
