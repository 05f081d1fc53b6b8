import dataclasses
import operator
from functools import reduce

import numpy as np
import pytest

from belpm.errors import (
    DimensionMismatch,
    InvalidParameter,
    LengthMismatch,
    SingularSystem,
    TooFewSamples,
    UnsupportedKernel,
)
from belpm.model import (
    BelpmConfig,
    BelpmModel,
    CmWeights,
    _bl_feature_matrix,
    _normal_equations,
    cm_lse_fit,
    predict,
    predict_many,
    predict_series,
    train,
)
from belpm import network
from belpm.network import AdaptiveNetwork, KernelKind, forward, loo_predictions
from belpm.series import EmbeddedDataset, TimeSeries, embed, gen_logistic, split
from belpm.storage import save_model

from oracles import lse_3x3

FAST = BelpmConfig(k_a=4, k_o=4, epochs=5)


def logistic_sets(n=160, n_train=120, r=3, horizon=1):
    ds = embed(gen_logistic(n, r=3.9, x0=0.3), r, horizon)
    return split(ds, n_train)


def forbid_linalg(monkeypatch):
    """Make every ``np.linalg`` function fail the test when called."""
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, lambda *_, **__: pytest.fail("linalg called"))


def widened(q):
    """Primary-network features written out: the window, its max, its min."""
    q = np.asarray(q, dtype=np.float64)
    return np.concatenate([q, [q.max(), q.min()]])


class TestThalamus:
    def test_basic(self):
        np.testing.assert_array_equal(_bl_feature_matrix(np.array([3.0, 1.0, 2.0])),
                                      [3.0, 1.0, 2.0, 3.0, 1.0])

    def test_singleton(self):
        np.testing.assert_array_equal(_bl_feature_matrix(np.array([5.0])), [5.0, 5.0, 5.0])

    def test_negatives(self):
        np.testing.assert_array_equal(_bl_feature_matrix(np.array([-1.0, -4.0])),
                                      [-1.0, -4.0, -1.0, -4.0])

    def test_empty_rejected(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        with pytest.raises(DimensionMismatch):
            predict(model, [])


class TestBlFeatures:
    def test_concatenation(self):
        np.testing.assert_array_equal(
            _bl_feature_matrix(np.array([[3.0, 1.0, 2.0], [0.0, 5.0, -1.0]])),
            [[3, 1, 2, 3, 1], [0, 5, -1, 5, -1]])

    def test_zeros(self):
        np.testing.assert_array_equal(_bl_feature_matrix(np.zeros((1, 1))), [[0, 0, 0]])

    def test_width_is_r_plus_two(self):
        # train (matrix) and predict (one window) build the same rows
        rng = np.random.default_rng(0)
        for r in (1, 2, 5):
            windows = rng.normal(size=(4, r))
            feats = _bl_feature_matrix(windows)
            assert feats.shape == (4, r + 2)
            for window, row in zip(windows, feats):
                np.testing.assert_array_equal(_bl_feature_matrix(window), row)
                np.testing.assert_array_equal(widened(window), row)

    def test_bad_maxmin(self):
        # however a model is built, its primary network must store each of the
        # secondary network's windows followed by its max and min, exactly
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        assert not hasattr(model, "config")
        feats = model.bl.train_inputs.copy()
        feats[3, -1] = np.nextafter(feats[3, -1], -np.inf)  # one ulp below a min
        off = dataclasses.replace(model.bl, train_inputs=feats)
        fewer = dataclasses.replace(model.bl, train_inputs=model.bl.train_inputs[1:],
                                    train_targets=model.bl.train_targets[1:])
        for bl in (model.mo, off, fewer):
            with pytest.raises(InvalidParameter, match="max and min"):
                BelpmModel(horizon=model.horizon, bl=bl, mo=model.mo, cm=model.cm)
            with pytest.raises(InvalidParameter, match="max and min"):
                dataclasses.replace(model, bl=bl)
        assert model.r == model.mo.dim == 3  # read from the windows, not a field
        for field in ("config", "r"):
            with pytest.raises(TypeError):
                dataclasses.replace(model, **{field: FAST})


class TestPunishments:
    def test_identity_reconstructs_target(self):
        # the secondary network stores the primary leave-one-out error, so
        # adding the primary response back recovers each training target
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        np.testing.assert_allclose(model.mo.train_targets + loo_predictions(model.bl),
                                   train_set.targets, rtol=5e-15, atol=5e-15)


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fusion_weights_rejected(self, bad):
        for weights in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(InvalidParameter, match="fusion weights must be finite"):
                CmWeights(*weights)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_lr_must_be_positive_and_finite(self, lr):
        with pytest.raises(InvalidParameter, match="lr must be positive and finite"):
            BelpmConfig(lr=lr)
        net = AdaptiveNetwork(np.arange(6.0).reshape(3, 2), np.arange(3.0), k=2)
        with pytest.raises(InvalidParameter, match="lr must be positive and finite"):
            network.train_bandwidths_sd(net, lr=lr, epochs=1)

    @pytest.mark.parametrize("fields, message", [
        ({"k_a": 0}, "k_a must be >= 1, got 0"),
        ({"k_o": 0}, "k_o must be >= 1, got 0"),
        ({"epochs": -1}, "epochs must be >= 0"),
    ])
    def test_config_refusals(self, fields, message):
        with pytest.raises(InvalidParameter, match=message):
            BelpmConfig(**fields)

    @pytest.mark.parametrize("ridge", [-1e-8, np.nan, np.inf])
    def test_ridge_must_be_non_negative_and_finite(self, ridge):
        with pytest.raises(InvalidParameter, match="ridge must be >= 0 and finite"):
            BelpmConfig(ridge=ridge)
        with pytest.raises(InvalidParameter, match="ridge must be >= 0 and finite"):
            cm_lse_fit([1.0, 2.0], [0.0, 1.0], [1.0, 3.0], ridge=ridge)


class TestCmLseFit:
    def test_exact_three_sample_system(self):
        w = cm_lse_fit([1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0, 3.0], ridge=0.0)
        assert (w.w1, w.w2, w.w3) == pytest.approx((1.0, 2.0, 0.0), abs=1e-12)

    def test_intercept_only(self):
        w = cm_lse_fit([0.0] * 4, [0.0] * 4, [7.0] * 4, ridge=0.0)
        assert w.w3 == pytest.approx(7.0, abs=1e-12)
        assert (w.w1, w.w2) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_matches_independent_normal_equation_solve(self):
        rng = np.random.default_rng(2)
        ra = rng.normal(size=50)
        ro = rng.normal(size=50)
        ru = rng.normal(size=50)
        w = cm_lse_fit(ra, ro, ru, ridge=1e-8)
        ref = lse_3x3(ra.tolist(), ro.tolist(), ru.tolist(), 1e-8)
        np.testing.assert_allclose([w.w1, w.w2, w.w3], ref, atol=1e-8)

    def test_normal_equations_hold_at_zero_ridge(self):
        rng = np.random.default_rng(3)
        ra = rng.normal(size=40)
        ro = rng.normal(size=40)
        ru = rng.normal(size=40)
        w = cm_lse_fit(ra, ro, ru, ridge=0.0)
        x = np.column_stack([ra, ro, np.ones(40)])
        resid = x.T @ (x @ np.array([w.w1, w.w2, w.w3]) - ru)
        assert np.abs(resid).max() < 1e-9

    def test_rank_deficient_design_takes_minimum_norm_solution(self):
        # collinear responses: the minimizer set is an affine line and the
        # minimum-norm point splits the shared weight evenly
        ra = np.array([1.0, 2.0, 3.0])
        ru = np.array([2.0, 4.0, 6.0])
        w = cm_lse_fit(ra, ra, ru, ridge=0.0)
        assert w.w1 == pytest.approx(w.w2, abs=1e-12)
        x = np.column_stack([ra, ra, np.ones(3)])
        resid = x.T @ (x @ np.array([w.w1, w.w2, w.w3]) - ru)
        assert np.abs(resid).max() < 1e-9
        # the documented fallback also works
        cm_lse_fit(ra, ra, ru, ridge=1e-8)

    def test_overflowing_system_is_singular(self, monkeypatch):
        # the check comes before the solver, which can spin on a non-finite system
        monkeypatch.setattr(np.linalg, "lstsq", lambda *_, **__: pytest.fail("solver called"))
        with pytest.raises(SingularSystem, match="not finite"):
            cm_lse_fit([1e200, 2e200, 3e200], [0.0, 1.0, 0.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cm_lse_fit([1.0], [1.0, 2.0], [1.0], ridge=0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_normal_equation_sums_run_in_plain_order(self, n):
        rng = np.random.default_rng(n)
        ra, ro, ru = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n) for _ in range(3))
        x, y, z = ra.tolist(), ro.tolist(), ru.tolist()

        def plain(terms):
            return reduce(operator.add, terms) + 0.0

        def dot(p, q):
            return plain([pi * qi for pi, qi in zip(p, q)])

        ridge = 0.25
        assert _normal_equations(ra, ro, ru, ridge) == (
            ((dot(x, x) + ridge, dot(x, y), plain(x)),
             (dot(x, y), dot(y, y) + ridge, plain(y)),
             (plain(x), plain(y), n + ridge)),
            (dot(x, z), dot(y, z), plain(z)))

    @pytest.mark.parametrize("seed", range(20))
    def test_ridge_solve_matches_lstsq(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        ra, ro, ru = rng.normal(size=(3, int(rng.integers(3, 300))))
        a, b = (np.array(part) for part in _normal_equations(ra, ro, ru, 1e-8))
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        for name in ("dot", "matmul", "einsum", "inner", "vdot"):
            monkeypatch.setattr(np, name, lambda *_, **__: pytest.fail("product called"))
        forbid_linalg(monkeypatch)
        w = cm_lse_fit(ra, ro, ru, ridge=1e-8)
        assert np.abs([w.w1 - ref[0], w.w2 - ref[1], w.w3 - ref[2]]).max() <= \
            1e-12 * np.abs(ref).max()

    def test_singular_ridge_system_falls_back_to_lstsq(self, monkeypatch):
        # ridge 1e-8 vanishes next to 1.4e11, so the Cholesky's second pivot is 0
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: calls.append(args) or lstsq(*args, **kwargs))
        ra = np.array([1e5, 2e5, 3e5])
        w = cm_lse_fit(ra, ra, 2.0 * ra, ridge=1e-8)
        assert len(calls) == 1
        assert np.isfinite([w.w1, w.w2, w.w3]).all()
        assert w.w1 == pytest.approx(w.w2, rel=1e-12)

    @pytest.mark.parametrize("ra, ro, ridge", [
        # first pivot: a11 is the ridge alone
        ([0.0] * 4, [0.0, 1.0, 2.0, 3.0], 1e-20),
        # second: ridge 1e-8 vanishes next to 1.4e11, so a22 - l21^2 is 0
        ([1e5, 2e5, 3e5, 4e5], [1e5, 2e5, 3e5, 4e5], 1e-8),
        # third: ra is the intercept's column, so a33 - l31^2 - l32^2 is 0
        ([1.0] * 4, [0.0, 1.0, 2.0, 3.0], 1e-20),
    ])
    def test_each_cholesky_pivot_falls_back_to_lstsq(self, ra, ro, ridge, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: calls.append(args) or lstsq(*args, **kwargs))
        ru = np.array([1.0, 3.0, 2.0, 5.0]) + np.array(ro)
        w = cm_lse_fit(ra, ro, ru, ridge=ridge)
        assert len(calls) == 1
        # the design's own minimum-norm least-squares weights
        ref = lstsq(np.column_stack([ra, ro, np.ones(4)]), ru, rcond=None)[0]
        np.testing.assert_allclose([w.w1, w.w2, w.w3], ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("ra, ro, ru, ridge", [
        # w1 = 1.4e301 / 3.2e-15
        ([4e-8, -4e-8, 0.0], [0.0] * 3, [1.7e308, -1.7e308, 0.0], 0.0),
        # the first pivot goes to lstsq, whose w2 = 1e296 / 1e-14
        ([0.0, 0.0], [1e-7, 0.0], [1e303, 0.0], 1e-300),
        # the Cholesky solves it, and its Python-float division gives w1 = inf
        ([1e-3, 0.0], [0.0, 0.0], [1.7e308, 0.0], 1e-8),
    ])
    def test_overflowing_solution_is_singular(self, ra, ro, ru, ridge):
        with pytest.raises(SingularSystem, match="non-finite weights"):
            cm_lse_fit(ra, ro, ru, ridge=ridge)

    def test_ridge_0_check_takes_an_overflowing_scale(self):
        # |a| * |w| passes the float range: the tolerance is inf, and no
        # RuntimeWarning escapes
        w = cm_lse_fit([-1e-60, -5e-61, -8e-61], [-4e5, 1.5e6, 1.2e6],
                       [-3e300, 4e300, 1e300], ridge=0.0)
        assert np.isfinite([w.w1, w.w2, w.w3]).all()

    def test_lstsq_failure_is_singular(self, monkeypatch):
        # numpy raises LinAlgError when its SVD does not converge, which no
        # finite 3x3 system has been seen to do: the failure is simulated
        def fail(*_, **__):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        monkeypatch.setattr(np.linalg, "lstsq", fail)
        with pytest.raises(SingularSystem, match="SVD did not converge"):
            cm_lse_fit([1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0, 3.0], ridge=0.0)

    def test_nearly_collinear_ridge_0_design_is_singular(self):
        # ro - ra is 1e-9 * z: the normal equations' smallest singular value is
        # under lstsq's cutoff, so the minimum-norm solution misses ru's
        # component along z by far more than the tolerance
        rng = np.random.default_rng(0)
        ra, z = rng.normal(size=(2, 50))
        with pytest.raises(SingularSystem, match="numerically singular"):
            cm_lse_fit(ra, ra + 1e-9 * z, z, ridge=0.0)
        cm_lse_fit(ra, ra + 1e-9 * z, z, ridge=1e-8)


class TestTrain:
    def test_default_config_calls_no_linalg(self, monkeypatch):
        # the data of tests/data/logistic_k8_v4.belpm
        train_set, _ = split(embed(gen_logistic(223), 3, 1), 200)
        forbid_linalg(monkeypatch)
        model = train(train_set, BelpmConfig())
        assert np.isfinite([model.cm.w1, model.cm.w2, model.cm.w3]).all()

    def test_needs_two_samples(self):
        ds = EmbeddedDataset(np.ones((1, 3)), np.ones(1), r=3, horizon=1)
        with pytest.raises(TooFewSamples):
            train(ds, FAST)

    def test_constant_targets_give_zero_test_error(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(30, 3))
        targets = np.full(30, 2.5)
        ds = EmbeddedDataset(inputs, targets, r=3, horizon=1)
        model = train(ds, FAST)
        preds = [predict(model, rng.normal(size=3)) for _ in range(10)]
        np.testing.assert_allclose(preds, 2.5, atol=1e-6)
        mse = float(np.mean((np.asarray(preds) - 2.5) ** 2))
        assert mse < 1e-12

    def test_two_sample_hand_trace(self):
        i1, i2 = [0.0, 1.0], [2.0, 5.0]
        t1, t2 = 3.0, 8.0
        ds = EmbeddedDataset(np.array([i1, i2]), np.array([t1, t2]), r=2, horizon=1)
        model = train(ds, BelpmConfig(k_a=1, k_o=1, epochs=3))
        # with k=1 each leave-one-out response is the other sample's target,
        # so the stored secondary targets are the cross-sample differences
        np.testing.assert_array_equal(model.mo.train_targets, [t1 - t2, t2 - t1])
        np.testing.assert_array_equal(model.bl.train_targets, [t1, t2])
        assert model.bl.dim == 4 and model.mo.dim == 2

    def test_deterministic(self):
        train_set, test_set = logistic_sets()
        a = train(train_set, FAST)
        b = train(train_set, FAST)
        assert (a.cm.w1, a.cm.w2, a.cm.w3) == (b.cm.w1, b.cm.w2, b.cm.w3)
        np.testing.assert_array_equal(a.bl.bandwidths, b.bl.bandwidths)
        for q in test_set.inputs[:5]:
            assert predict(a, q) == predict(b, q)

    def test_end_to_end_invariants(self):
        train_set, test_set = logistic_sets()
        model = train(train_set, FAST)
        assert model.bl.dim == train_set.r + 2
        assert model.mo.dim == train_set.r
        assert model.bl.n_samples == model.mo.n_samples == len(train_set)
        preds = np.array([predict(model, q) for q in test_set.inputs])
        assert np.all(np.isfinite(preds))

    def test_cm_fit_beats_trivial_fusions_on_training(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        r_a = loo_predictions(model.bl)
        r_o = loo_predictions(model.mo)
        t = train_set.targets
        w = cm_lse_fit(r_a, r_o, t, ridge=0.0)
        fitted = w.w1 * r_a + w.w2 * r_o + w.w3

        def m(pred):
            return float(np.mean((pred - t) ** 2))

        assert m(fitted) <= m(r_a) + 1e-12
        assert m(fitted) <= m(r_o) + 1e-12
        assert m(fitted) <= m(np.full_like(t, t.mean())) + 1e-12


class TestPredict:
    def test_fusion_degeneracy_to_bl(self):
        train_set, test_set = logistic_sets()
        model = train(train_set, FAST)
        forced = dataclasses.replace(model, cm=CmWeights(1.0, 0.0, 0.0))
        for q in test_set.inputs[:10]:
            bl_out = forward(model.bl, widened(q))
            assert predict(forced, q) == bl_out

    def test_exact_recall_with_k1(self):
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(12, 3))
        targets = rng.normal(size=12)
        ds = EmbeddedDataset(inputs, targets, r=3, horizon=1)
        model = train(ds, BelpmConfig(k_a=1, k_o=1, epochs=0))
        forced = dataclasses.replace(model, cm=CmWeights(1.0, 0.0, 0.0))
        for j in range(12):
            assert predict(forced, inputs[j]) == targets[j]

    def test_matches_manual_composition(self):
        train_set, test_set = logistic_sets()
        model = train(train_set, FAST)
        for q in test_set.inputs[:10]:
            r_a = forward(model.bl, widened(q))
            r_o = forward(model.mo, q)
            manual = model.cm.w1 * r_a + model.cm.w2 * r_o + model.cm.w3
            assert predict(model, q) == manual

    def test_dimension_checked(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0])

    def test_non_finite_query_rejected(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        for bad in ([0.1, np.nan, 0.3], [np.inf, 0.2, 0.3]):
            with pytest.raises(InvalidParameter):
                predict(model, bad)

    def test_wknn_degeneracy_with_constant_maxmin(self):
        # every stored vector and the query pin max=1 and min=0, so the two
        # appended features are constant and drop out of the metric
        rng = np.random.default_rng(6)
        mids = rng.uniform(0.05, 0.95, size=20)
        inputs = np.column_stack([np.zeros(20), np.ones(20), mids])
        targets = rng.normal(size=20)
        ds = EmbeddedDataset(inputs, targets, r=3, horizon=1)
        model = train(ds, BelpmConfig(k_a=5, k_o=5, epochs=4))
        forced = dataclasses.replace(model, cm=CmWeights(1.0, 0.0, 0.0))
        raw_net = AdaptiveNetwork(inputs, targets, k=5,
                                  kernel=model.bl.kernel,
                                  bandwidths=model.bl.bandwidths)
        for _ in range(10):
            q = np.array([0.0, 1.0, rng.uniform(0.05, 0.95)])
            raw_out = forward(raw_net, q)
            assert predict(forced, q) == pytest.approx(raw_out, abs=1e-12)


@pytest.mark.parametrize("r", range(1, 9))
def test_single_query_equals_batch_row(r):
    # The primary network sees r + 2 features, so r >= 6 gives 8 or more.
    train_set, test_set = logistic_sets(r=r)
    model = train(train_set, FAST)
    batch = predict_many(model, test_set.inputs)
    for j, x in enumerate(test_set.inputs):
        assert predict(model, x) == batch[j]
    for net in (model.bl, model.mo):
        loo = loo_predictions(net)
        for j in range(net.n_samples):
            assert forward(net, net.train_inputs[j], exclude=j) == loo[j]


class TestPredictSeries:
    def test_boundary_single_prediction(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        series = TimeSeries(gen_logistic(4, r=3.9, x0=0.41).values)
        out = predict_series(model, series)
        assert len(out) == 1

    def test_length_and_alignment(self):
        train_set, _ = logistic_sets()
        model = train(train_set, FAST)
        series = TimeSeries(gen_logistic(40, r=3.9, x0=0.37).values,
                            start_time=100, step=5)
        out = predict_series(model, series)
        assert len(out) == 40 - 3 - 1 + 1
        assert out.start_time == 100 + (3 - 1 + 1) * 5
        assert out.step == 5

    def test_elementwise_matches_predict(self, monkeypatch):
        train_set, _ = logistic_sets()
        series = gen_logistic(30, r=3.9, x0=0.52)
        ds = embed(series, 3, 1)
        # 2 query rows per block at n = 120, so the 27 windows end on a part block.
        monkeypatch.setattr(network, "_BLOCK_DISTANCES", 250)
        for kind in KernelKind:
            model = train(train_set, dataclasses.replace(FAST, bl_kernel=kind, mo_kernel=kind))
            out = predict_series(model, series)
            for j in range(len(ds)):
                assert out.values[j] == predict(model, ds.inputs[j])


class TestKernelNames:
    def test_a_name_trains_the_same_model_file_as_its_member(self, tmp_path):
        # A kernel name died in training with a raw AttributeError.
        train_set, _ = logistic_sets()
        for kind in KernelKind:
            by_name = dataclasses.replace(FAST, bl_kernel=kind.value, mo_kernel=kind.value)
            by_member = dataclasses.replace(FAST, bl_kernel=kind, mo_kernel=kind)
            assert by_name == by_member
            save_model(train(train_set, by_name), tmp_path / "name.txt")
            save_model(train(train_set, by_member), tmp_path / "member.txt")
            assert (tmp_path / "name.txt").read_bytes() == (tmp_path / "member.txt").read_bytes()

    def test_a_network_takes_a_name(self):
        inputs, targets = np.arange(6.0).reshape(3, 2), np.arange(3.0)
        net = AdaptiveNetwork(inputs, targets, k=1, kernel="inverse_quadratic")
        assert net.kernel is KernelKind.INVERSE_QUADRATIC
        assert forward(net, [0.5, 1.5]) == forward(
            AdaptiveNetwork(inputs, targets, k=1, kernel=KernelKind.INVERSE_QUADRATIC), [0.5, 1.5])

    @pytest.mark.parametrize("bad", [None, 5, "gaussian"])
    def test_anything_else_is_refused(self, bad):
        for build in (lambda: BelpmConfig(bl_kernel=bad), lambda: BelpmConfig(mo_kernel=bad),
                      lambda: AdaptiveNetwork(np.ones((2, 1)), np.ones(2), k=1, kernel=bad)):
            with pytest.raises(UnsupportedKernel, match=f"^unknown kernel {bad!r}$"):
                build()
