"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS`` line (visible with ``pytest -s``
or in captured output); a failed assertion surfaces as the usual pytest
failure for that criterion. Criterion 5 needs externally supplied data and
skips with an explicit line when it is absent.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from belpm import (
    AdaptiveNetwork,
    BelpmConfig,
    ClassicBelModel,
    CmWeights,
    EmbeddedDataset,
    ExperimentConfig,
    KernelKind,
    SeriesFile,
    TimeSeries,
    WknnModel,
    bel_forward,
    bel_update,
    cm_lse_fit,
    correlation,
    embed,
    find_peaks,
    forward,
    gen_mackey_glass,
    grad_bandwidths,
    load_model_file,
    load_series_csv,
    loo_predictions,
    match_peaks,
    mse,
    nmse,
    predict,
    run_experiment,
    save_model,
    split,
    train,
    wknn_predict,
)

from oracles import forward_direct

AE_DATA_ENV = "BELPM_AE_MARCH1992"
AE_DATA_DEFAULT = Path(__file__).parent / "data" / "ae_march_1992.csv"


def report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def test_criterion_1_forward_oracle_equivalence():
    rng = np.random.default_rng(101)
    kernels = list(KernelKind)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 31))
        r = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        kind = kernels[i % 3]
        inputs = rng.normal(size=(n, r))
        targets = rng.normal(size=n)
        bw = rng.uniform(0.3, 3.0, size=min(k, n))
        net = AdaptiveNetwork(inputs, targets, k=k, kernel=kind, bandwidths=bw)
        query = rng.normal(size=r)
        exclude = int(rng.integers(0, n)) if (n > 1 and i % 4 == 0) else None
        got, _ = forward(net, query, exclude=exclude)
        ref = forward_direct(inputs.tolist(), targets.tolist(), net.k,
                             kind.value, bw.tolist(), query.tolist(),
                             exclude=exclude)
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"200 instances, max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(6, 26))
        r = int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        kind = (KernelKind.EXPONENTIAL, KernelKind.INVERSE_QUADRATIC)[i % 2]
        inputs = rng.normal(size=(n, r))
        targets = rng.normal(size=n)
        k_store = min(k, n)
        bw = rng.uniform(0.5, 2.0, size=k_store)
        net = AdaptiveNetwork(inputs, targets, k=k, kernel=kind, bandwidths=bw)
        grad = grad_bandwidths(net)

        def loss(b):
            probe = AdaptiveNetwork(inputs, targets, k=k, kernel=kind, bandwidths=b)
            resid = loo_predictions(probe) - targets
            return float(resid @ resid)

        h = 1e-6
        for m in range(k_store):
            bp = bw.copy()
            bp[m] += h
            bm = bw.copy()
            bm[m] -= h
            fd = (loss(bp) - loss(bm)) / (2 * h)
            np.testing.assert_allclose(grad[m], fd, rtol=1e-5, atol=1e-10)
            denom = max(abs(fd), 1e-10)
            worst = max(worst, abs(grad[m] - fd) / denom)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"50 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_lse_normal_equations():
    w = cm_lse_fit([1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0, 3.0], ridge=0.0)
    np.testing.assert_allclose([w.w1, w.w2, w.w3], [1.0, 2.0, 0.0], atol=1e-12)

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 80))
        ra = rng.normal(size=n)
        ro = rng.normal(size=n)
        ru = rng.normal(size=n)
        w = cm_lse_fit(ra, ro, ru, ridge=0.0)
        x = np.column_stack([ra, ro, np.ones(n)])
        resid = x.T @ (x @ np.array([w.w1, w.w2, w.w3]) - ru)
        worst = max(worst, float(np.abs(resid).max()))
        assert np.abs(resid).max() < 1e-9
    report(3, f"hand system exact, 100 random systems, worst residual {worst:.2e}")


def test_criterion_4_mackey_glass_belpm_vs_wknn():
    start = time.perf_counter()
    series = gen_mackey_glass(600, tau=17, x0=1.2, warmup=100)
    dataset = embed(series, 3, 1)
    train_set, test_set = split(dataset, 500)

    model = train(train_set, BelpmConfig(k_a=8, k_o=8,
                                         bl_kernel=KernelKind.EXPONENTIAL,
                                         mo_kernel=KernelKind.EXPONENTIAL,
                                         lr=0.05, epochs=50, ridge=1e-8))
    belpm_preds = np.array([predict(model, q) for q in test_set.inputs])
    belpm_nmse = nmse(test_set.targets, belpm_preds)

    wknn = WknnModel.from_dataset(train_set, k=2)
    wknn_preds = np.array([wknn_predict(wknn, q) for q in test_set.inputs])
    wknn_nmse = nmse(test_set.targets, wknn_preds)

    elapsed = time.perf_counter() - start
    assert belpm_nmse < 1.0
    assert belpm_nmse <= 1.10 * wknn_nmse
    assert elapsed < 60.0
    report(4, f"belpm nmse {belpm_nmse:.4f} vs wknn {wknn_nmse:.4f} "
              f"(ratio {belpm_nmse / wknn_nmse:.3f}), {elapsed:.1f}s")


def test_criterion_5_ae_march_1992_if_supplied():
    path = os.environ.get(AE_DATA_ENV, str(AE_DATA_DEFAULT))
    if not Path(path).exists():
        print("ACCEPTANCE 5: SKIP - no 1-minute AE data for March 1992 supplied "
              f"(set {AE_DATA_ENV} or place {AE_DATA_DEFAULT})")
        pytest.skip("AE March 1992 data not supplied")
    series = load_series_csv(SeriesFile(path=path))
    minutes_per_day = 1440
    assert len(series) >= 9 * minutes_per_day, "need at least 9 days of 1-min data"

    def day(d):
        lo = (d - 1) * minutes_per_day
        return TimeSeries(series.values[lo: lo + minutes_per_day])

    horizon = 5
    train_set = embed(day(7), 3, horizon)
    test_set = embed(day(9), 3, horizon)
    model = train(train_set, BelpmConfig(k_a=8, k_o=8, lr=0.05,
                                         epochs=50, ridge=1e-8))
    preds = np.array([predict(model, q) for q in test_set.inputs])
    observed = nmse(test_set.targets, preds)
    # documented, non-gating comparison against the published 0.0802
    print(f"ACCEPTANCE 5: INFO - observed 5-min-ahead NMSE {observed:.4f} "
          f"(published reference 0.0802); no pass/fail threshold")
    report(5, f"ran on supplied data, nmse {observed:.4f}")


def test_criterion_6_metric_identities():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(3, 60))
        y = rng.normal(size=n)
        while np.allclose(y, y[0]):
            y = rng.normal(size=n)
        yhat = rng.normal(size=n)
        err = rng.normal(size=n)
        c = float(rng.uniform(0.5, 4.0))
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-2.0, 2.0))

        assert nmse(y, np.full(n, y.mean())) == pytest.approx(1.0, abs=1e-12)
        assert nmse(y, y) == 0.0
        assert mse(y, y + c * err) == pytest.approx(c * c * mse(y, y + err), rel=1e-12)
        if yhat.std() > 0:
            assert correlation(y, a * yhat + b) == \
                pytest.approx(correlation(y, yhat), abs=1e-12)
    report(6, "nmse/mse/correlation identities on 100 random sequences at 1e-12")


def test_criterion_7_peak_protocol():
    def bump(n, peaks):
        v = np.zeros(n)
        for p in peaks:
            v[p] = 1.0
        return TimeSeries(v)

    exact = match_peaks([10], bump(20, [10]), window=2, top_m=1)
    assert (exact.identified_exact, exact.identified_delayed, exact.missed) == (1, 0, 0)

    delayed = match_peaks([10], bump(20, [11]), window=2, top_m=1)
    assert (delayed.identified_exact, delayed.identified_delayed, delayed.missed) == (0, 1, 0)

    missed = match_peaks([10], bump(20, [13]), window=2, top_m=1)
    assert (missed.identified_exact, missed.identified_delayed, missed.missed) == (0, 0, 1)

    rng = np.random.default_rng(707)
    for _ in range(100):
        observed = TimeSeries(rng.normal(size=50))
        predicted = TimeSeries(rng.normal(size=50))
        peaks = find_peaks(observed, top_m=8)
        rep = match_peaks(peaks, predicted, window=2, top_m=8)
        assert rep.identified_exact + rep.identified_delayed + rep.missed == peaks.size
    report(7, "hand-built exact/delayed/missed cases and 100 random partitions")


def test_criterion_8_classic_bel_convergence():
    start = time.perf_counter()
    model = ClassicBelModel.zeros(1, alpha=0.5, beta=0.5)
    s = [1.0]
    rew = 1.0
    for _ in range(200):
        _, a, _ = bel_forward(model, s)
        saturated = float(a.sum()) >= rew
        updated = bel_update(model, s, rew)
        if saturated:
            np.testing.assert_array_equal(updated.v, model.v)
        model = updated
    e, _, _ = bel_forward(model, s)
    elapsed = time.perf_counter() - start
    assert abs(e - 1.0) < 0.05
    assert elapsed < 1.0

    # non-vacuous clamp check: an already-saturated amygdala must not move
    hot = ClassicBelModel(v=[2.0], w=[0.0], alpha=0.5, beta=0.5)
    np.testing.assert_array_equal(bel_update(hot, s, rew).v, hot.v)
    report(8, f"|E - 1| = {abs(e - 1.0):.2e} after 200 epochs, clamp held, "
              f"{elapsed * 1000:.0f}ms")


def test_criterion_9_reduction_tests():
    rng = np.random.default_rng(909)

    # k=1 fused model with fusion forced to the primary path recalls stored targets
    inputs = rng.normal(size=(15, 3))
    targets = rng.normal(size=15)
    ds = EmbeddedDataset(inputs, targets, r=3, horizon=1)
    model = train(ds, BelpmConfig(k_a=1, k_o=1, epochs=0))
    forced = dataclasses.replace(model, cm=CmWeights(1.0, 0.0, 0.0))
    for j in range(15):
        assert predict(forced, inputs[j]) == targets[j]

    # k=1 weighted k-NN equals the k=1 adaptive network for every kernel
    wknn = WknnModel(inputs, targets, k=1)
    for kind in KernelKind:
        net = AdaptiveNetwork(inputs, targets, k=1, kernel=kind)
        for _ in range(20):
            q = rng.normal(size=3)
            out, _ = forward(net, q)
            assert wknn_predict(wknn, q) == out

    # constant targets propagate to (numerically) zero test error
    const = EmbeddedDataset(rng.normal(size=(25, 3)), np.full(25, 3.25),
                            r=3, horizon=1)
    cmodel = train(const, BelpmConfig(k_a=4, k_o=4, epochs=3))
    preds = np.array([predict(cmodel, rng.normal(size=3)) for _ in range(20)])
    assert float(np.mean((preds - 3.25) ** 2)) < 1e-12
    report(9, "exact recall, wknn/network k=1 agreement, constant-target zero MSE")


def test_criterion_10_persistence_and_determinism(tmp_path):
    series = gen_mackey_glass(200, tau=17, x0=1.2, warmup=50)
    dataset = embed(series, 3, 1)
    train_set, test_set = split(dataset, 150)
    model = train(train_set, BelpmConfig(k_a=4, k_o=4, epochs=5))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model_file(path).model
    rng = np.random.default_rng(1010)
    for _ in range(100):
        q = rng.normal(size=3)
        assert predict(loaded, q) == predict(model, q)

    cfg = ExperimentConfig(generator="logistic", gen_n=140, n_train=100,
                           model="belpm", k_a=4, k_o=4, epochs=3,
                           out_dir=str(tmp_path / "run_a"))
    run_experiment(cfg)
    run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "run_b")))
    for name in ("report.txt", "predictions.csv", "peaks.txt"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b
    report(10, "bit-identical reload predictions on 100 queries, "
               "byte-identical repeat-run artifacts")
