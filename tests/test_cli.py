import json

import numpy as np
import pytest

from belpm import cli
from belpm.cli import main
from belpm.experiment import ExperimentConfig, render_peak_report
from belpm.metrics import find_peaks, match_peaks
from belpm.model import predict, predict_series
from belpm.series import TimeSeries, embed, gen_logistic
from belpm.storage import format_float, load_model_file, load_series_csv, save_series_csv

from oracles import rechecksum


def run(*args):
    return main(list(args))


def test_gen_writes_deterministic_csv(tmp_path):
    out = tmp_path / "series.csv"
    assert run("gen", "--kind", "logistic", "--n", "50", "--x0", "0.3",
               "--rate", "3.9", "--out", str(out)) == 0
    first = out.read_bytes()
    assert run("gen", "--kind", "logistic", "--n", "50", "--x0", "0.3",
               "--rate", "3.9", "--out", str(out)) == 0
    assert out.read_bytes() == first
    series = load_series_csv(str(out))
    np.testing.assert_array_equal(series.values, gen_logistic(50, 3.9, 0.3).values)


def test_full_pipeline_exit_codes(tmp_path):
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    preds = tmp_path / "preds.csv"
    report = tmp_path / "report.txt"

    assert run("gen", "--kind", "mackey_glass", "--n", "150", "--tau", "17",
               "--warmup", "50", "--out", str(series)) == 0
    assert run("embed", "--data", str(series), "--embed-r", "3",
               "--horizon", "1", "--out", str(tmp_path / "pairs.csv")) == 0
    assert run("train", "--data", str(series), "--embed-r", "3", "--horizon", "1",
               "--n-train", "100", "--model", "belpm", "--k-a", "4", "--k-o", "4",
               "--epochs", "3", "--out", str(model)) == 0
    assert run("predict", "--model", str(model), "--data", str(series),
               "--out", str(preds)) == 0
    assert run("eval", "--predictions", str(preds), "--out", str(report)) == 0
    text = report.read_text()
    assert "nmse = " in text and "correlation = " in text
    assert run("peaks", "--data", str(series), "--top-m", "5") == 0


def test_cli_predictions_match_library(tmp_path):
    series_path = tmp_path / "series.csv"
    model_path = tmp_path / "model.txt"
    run("gen", "--kind", "logistic", "--n", "90", "--out", str(series_path))
    run("train", "--data", str(series_path), "--embed-r", "3", "--horizon", "1",
        "--n-train", "60", "--model", "belpm", "--k-a", "4", "--k-o", "4",
        "--epochs", "2", "--out", str(model_path))
    model = load_model_file(model_path).model
    series = load_series_csv(str(series_path))
    ds = embed(series, 3, 1)
    preds_path = tmp_path / "preds.csv"
    run("predict", "--model", str(model_path), "--data", str(series_path),
        "--out", str(preds_path))
    rows = [line.split(",") for line
            in preds_path.read_text().strip().splitlines()[1:]]
    assert len(rows) == len(ds)
    for row, q in zip(rows, ds.inputs):
        assert float(row[2]) == predict(model, q)


def test_bench_runs_config_list(tmp_path, capsys):
    cfg = {
        "experiments": [
            {"generator": "logistic", "gen_n": 120, "n_train": 80,
             "model": "wknn", "wknn_k": 2},
            {"generator": "logistic", "gen_n": 120, "n_train": 80,
             "model": "belpm", "k_a": 4, "k_o": 4, "epochs": 2},
        ]
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run("bench", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "runs")) == 0
    out = capsys.readouterr().out
    assert "0:wknn" in out and "1:belpm" in out
    assert (tmp_path / "runs" / "0" / "report.txt").exists()
    assert (tmp_path / "runs" / "1" / "report.txt").exists()


def test_exit_code_1_for_config_errors(tmp_path):
    assert run("train", "--data", str(tmp_path / "missing.csv"),
               "--n-train", "10", "--out", str(tmp_path / "m.txt")) == 1
    assert run("nonsense-command") == 1
    assert run("bench", "--config", str(tmp_path / "missing.json")) == 1

    # an output path in a missing directory
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    run("gen", "--kind", "logistic", "--n", "30", "--out", str(series))
    assert run("train", "--data", str(series), "--n-train", "20", "--model", "wknn",
               "--out", str(tmp_path / "no" / "m.txt")) == 1
    # '--' given as a value, which argparse hands back as []
    assert run("peaks", "--data", str(series), "--top-m=--") == 1
    assert run("predict", "--model=--", "--data", str(series), "--out", str(model)) == 1
    assert run("train", "--data", str(series), "--n-train", "20", "--model", "wknn",
               "--out", str(model)) == 0
    assert run("predict", "--model", str(model), "--data", str(series),
               "--out", str(tmp_path / "no" / "p.csv")) == 1

    # an output directory below a regular file
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"experiments": [
        {"generator": "logistic", "gen_n": 40, "n_train": 30, "model": "wknn"}]}))
    assert run("bench", "--config", str(cfg), "--out-dir", str(model / "x")) == 1


def test_exit_code_1_for_missing_model(tmp_path):
    series = tmp_path / "series.csv"
    run("gen", "--kind", "logistic", "--n", "30", "--out", str(series))
    assert run("predict", "--model", str(tmp_path / "missing.txt"),
               "--data", str(series), "--out", str(tmp_path / "p.csv")) == 1


def test_exit_code_2_for_malformed_model_field(tmp_path):
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    run("gen", "--kind", "logistic", "--n", "60", "--out", str(series))
    assert run("train", "--data", str(series), "--n-train", "40", "--k-a", "8",
               "--epochs", "1", "--out", str(model)) == 0
    text = model.read_text()
    assert "bl_k = 8" in text
    model.write_bytes(rechecksum(text.replace("bl_k = 8", "bl_k = x8", 1)))
    assert run("predict", "--model", str(model), "--data", str(series),
               "--out", str(tmp_path / "p.csv")) == 2


def test_exit_code_2_for_data_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1\nabc\n3\n")
    assert run("embed", "--data", str(bad), "--out", str(tmp_path / "p.csv")) == 2
    short = tmp_path / "short.csv"
    short.write_text("1\n2\n")
    assert run("embed", "--data", str(short), "--embed-r", "3",
               "--out", str(tmp_path / "p.csv")) == 2

    # bytes that are not UTF-8: a series CSV, a model file, a predictions CSV
    binary = tmp_path / "binary"
    binary.write_bytes(b"1\n\xff\xfe2\n3\n")
    assert run("embed", "--data", str(binary), "--out", str(tmp_path / "p.csv")) == 2
    series = tmp_path / "series.csv"
    run("gen", "--kind", "logistic", "--n", "30", "--out", str(series))
    assert run("predict", "--model", str(binary), "--data", str(series),
               "--out", str(tmp_path / "p.csv")) == 2
    assert run("eval", "--predictions", str(binary)) == 2

    # eval on a non-finite prediction
    preds = tmp_path / "preds.csv"
    preds.write_text("time,observed,predicted\n0,1.0,nan\n1,2.0,2.0\n2,1.5,1.0\n")
    assert run("eval", "--predictions", str(preds)) == 2

    # eval on predictions whose times are not uniformly spaced
    preds.write_text("time,observed,predicted\n0,1.0,1.1\n1,2.0,2.0\n5,1.5,1.0\n6,1.0,1.2\n")
    assert run("eval", "--predictions", str(preds)) == 2


def test_eval_reproduces_bench_report(tmp_path, capsys):
    cfg = {"experiments": [
        {"generator": "logistic", "gen_n": 140, "n_train": 100, "model": kind,
         "k_a": 4, "k_o": 4, "epochs": 2, "bel_epochs": 2}
        for kind in ("belpm", "wknn", "classic_bel")]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run("bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs")) == 0
    for i in range(3):
        run_dir = tmp_path / "runs" / str(i)
        capsys.readouterr()
        assert run("eval", "--predictions", str(run_dir / "predictions.csv"),
                   "--out", str(run_dir / "eval.txt")) == 0
        report = (run_dir / "report.txt").read_text()
        assert "peak_window = 2" in report
        assert capsys.readouterr().out == report
        assert (run_dir / "eval.txt").read_bytes() == (run_dir / "report.txt").read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_3_for_numeric_errors(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("time,observed,predicted\n0,1.0,1.0\n1,1.0,2.0\n")
    assert run("eval", "--predictions", str(preds)) == 3

    # windows of 1e200 overflow the leave-one-out loss and the fusion fit's
    # normal equations, which the fit refuses without a warning
    series = tmp_path / "huge.csv"
    save_series_csv(TimeSeries(gen_logistic(40, r=3.9, x0=0.3).values * 1e200), series)
    capsys.readouterr()
    assert run("train", "--data", str(series), "--n-train", "30", "--epochs", "2",
               "--out", str(tmp_path / "model.txt")) == 3
    assert "normal equations are not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_exits_3_when_metric_sums_overflow(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("time,observed,predicted\n0,0.0,1e160\n1,1.0,0.0\n2,2.0,0.0\n")
    assert run("eval", "--predictions", str(preds)) == 3
    assert "overflows the float range" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bench_exits_3_when_classic_bel_diverges(tmp_path, capsys):
    # AE-scale values drive classic_bel's weights to NaN, so it predicts NaN.
    series = tmp_path / "big.csv"
    save_series_csv(TimeSeries(600.0 + 500.0 * np.sin(np.arange(120) / 5.0)), series)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"data_path": str(series), "model": "classic_bel",
                               "n_train": 80}))
    capsys.readouterr()
    with pytest.warns(UserWarning, match="diverged"):
        assert run("bench", "--config", str(cfg)) == 3
    out = capsys.readouterr()
    assert "sequences must be finite" in out.err and "nmse" not in out.out


def peak_lines(series, peaks, first=0):
    return [f"{first + int(t)},{series.time_at(int(t))},{format_float(series.values[t])}"
            for t in peaks]


def test_peaks_reads_what_predict_writes(tmp_path, capsys):
    series_path = tmp_path / "mg.csv"
    model = tmp_path / "model.txt"
    preds = tmp_path / "preds.csv"
    run("gen", "--kind", "mackey_glass", "--n", "600", "--tau", "17", "--warmup", "100",
        "--out", str(series_path))
    run("train", "--data", str(series_path), "--n-train", "400", "--model", "wknn",
        "--out", str(model))
    run("predict", "--model", str(model), "--data", str(series_path), "--out", str(preds))
    capsys.readouterr()
    assert run("peaks", "--data", str(series_path), "--top-m", "10",
               "--predicted", str(preds), "--window", "2") == 0

    # Predictions start at time 3 (r=3, horizon 1): both sides are cut to 3..599.
    observed = load_series_csv(str(series_path))
    span = TimeSeries(observed.values[3:], start_time=3)
    predicted = TimeSeries([float(row.split(",")[2]) for row
                            in preds.read_text().splitlines()[1:]], start_time=3)
    peaks = find_peaks(span, top_m=10)
    report = match_peaks(peaks, predicted, window=2, top_m=10)
    assert capsys.readouterr().out.splitlines() == (
        ["index,time,value", *peak_lines(span, peaks, first=3)]
        + render_peak_report(report, peaks + 3).splitlines())


def test_peaks_matches_on_shared_times(tmp_path, capsys):
    observed = gen_logistic(120, 3.9, 0.3).values
    obs_path, pred_path = tmp_path / "observed.csv", tmp_path / "predicted.csv"
    save_series_csv(TimeSeries(observed, start_time=100, step=5), obs_path)

    # A perfect prediction of times 115..695 scores every peak exact.
    save_series_csv(TimeSeries(observed[3:], start_time=115, step=5), pred_path)
    assert run("peaks", "--data", str(obs_path), "--top-m", "5",
               "--predicted", str(pred_path)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "identified_exact = 5" in out and "missed = 0" in out
    for row in out[1:6]:  # the index column counts rows of --data
        index, time, _ = row.split(",")
        assert int(time) == 100 + 5 * int(index)

    # Same start, step and length: the whole series, matched index for index.
    predicted = observed + 0.01 * np.sin(np.arange(observed.size))
    save_series_csv(TimeSeries(predicted, start_time=100, step=5), pred_path)
    assert run("peaks", "--data", str(obs_path), "--top-m", "5",
               "--predicted", str(pred_path)) == 0
    series = TimeSeries(observed, start_time=100, step=5)
    peaks = find_peaks(series, top_m=5)
    report = match_peaks(peaks, TimeSeries(predicted), window=2, top_m=5)
    assert capsys.readouterr().out.splitlines() == (
        ["index,time,value", *peak_lines(series, peaks)]
        + render_peak_report(report, peaks).splitlines())


@pytest.mark.parametrize("start, step", [(102, 5), (100, 10), (1000, 5)])
def test_peaks_rejects_times_off_grid_or_disjoint(tmp_path, capsys, start, step):
    values = gen_logistic(60, 3.9, 0.3).values
    obs_path, pred_path = tmp_path / "observed.csv", tmp_path / "predicted.csv"
    save_series_csv(TimeSeries(values, start_time=100, step=5), obs_path)
    save_series_csv(TimeSeries(values, start_time=start, step=step), pred_path)
    capsys.readouterr()
    assert run("peaks", "--data", str(obs_path), "--predicted", str(pred_path)) == 2
    assert capsys.readouterr().out == ""


def test_peaks_missing_predicted_file(tmp_path, capsys):
    series = tmp_path / "series.csv"
    run("gen", "--kind", "logistic", "--n", "30", "--out", str(series))
    capsys.readouterr()
    assert run("peaks", "--data", str(series), "--predicted", str(tmp_path / "no.csv")) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("doc, field", [
    ({"experiments": 5}, "experiments"),
    ({"generator": "logistic", "gen_n": "x"}, "gen_n"),
    ({"generator": "logistic", "embed_r": "3"}, "embed_r"),
    ({"generator": "logistic", "model": ["belpm"]}, "model"),
    ({"generator": "logistic", "epochs": True}, "epochs"),
    ({"generator": "logistic", "lr": "0.05"}, "lr"),
    ({"generator": "logistic", "peak_top_m": 2.5}, "peak_top_m"),
    ({"experiments": [{"generator": "logistic", "missing_sentinel": "NA"}]}, "missing_sentinel"),
])
def test_bench_rejects_wrongly_typed_config(tmp_path, capsys, doc, field):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(doc))
    assert run("bench", "--config", str(cfg)) == 1
    assert repr(field) in capsys.readouterr().err


def test_bench_rejects_empty_experiment_list(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert run("bench", "--config", str(cfg)) == 1
    assert "'experiments' must be a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("lr", "inf"), ("lr", "nan"), ("lr", "-inf"), ("ridge", "nan"), ("ridge", "inf"),
])
def test_train_rejects_non_finite_lr_and_ridge(tmp_path, capsys, flag, value):
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    run("gen", "--kind", "logistic", "--n", "40", "--out", str(series))
    capsys.readouterr()
    assert run("train", "--data", str(series), "--n-train", "30", "--epochs", "2",
               f"--{flag}={value}", "--out", str(model)) == 1
    assert f"{flag} must be" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("kind", ["belpm", "wknn", "classic_bel"])
def test_train_on_no_pairs_is_a_data_error(tmp_path, capsys, kind):
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    run("gen", "--kind", "logistic", "--n", "40", "--out", str(series))
    capsys.readouterr()
    assert run("train", "--data", str(series), "--n-train", "0", "--model", kind,
               "--out", str(model)) == 2
    assert "training needs at least" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_inverse_quadratic_with_huge_steps(tmp_path):
    # lr = 1e300 drives bandwidths so high that scaled distances overflow
    # when squared; those kernel values are 0
    series = tmp_path / "series.csv"
    model = tmp_path / "model.txt"
    save_series_csv(gen_logistic(60, r=3.9, x0=0.3), series)
    assert run("train", "--data", str(series), "--n-train", "40", "--bl-kernel",
               "inverse_quadratic", "--mo-kernel", "inverse_quadratic", "--lr", "1e300",
               "--epochs", "2", "--out", str(model)) == 0
    load_model_file(model)


@pytest.mark.parametrize("doc", [{"experiments": [1]}, {"experiments": [{}, "x"]}])
def test_bench_refuses_an_experiment_that_is_no_object(tmp_path, capsys, doc):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(doc))
    assert run("bench", "--config", str(cfg)) == 1
    assert "must be a JSON object" in capsys.readouterr().err


def test_peak_window_defaults_come_from_the_config(monkeypatch):
    monkeypatch.setattr(cli, "_DEFAULTS", ExperimentConfig(peak_window=5))
    parser = cli.build_parser()
    assert parser.parse_args(["peaks", "--data", "s.csv"]).window == 5
    assert parser.parse_args(["eval", "--predictions", "p.csv"]).peak_window == 5


def test_forecast_times_follow_the_series_times(tmp_path):
    # Times 1000 + 60 j, r = 3, horizon 2: the first forecast is at
    # 1000 + 60 * 4, and bench's test span starts n_train = 40 rows later.
    series = TimeSeries(gen_logistic(60, 3.9, 0.3).values, start_time=1000, step=60)
    data, model, preds = tmp_path / "series.csv", tmp_path / "model.txt", tmp_path / "preds.csv"
    save_series_csv(series, data)
    shape = ["--embed-r", "3", "--horizon", "2", "--k-a", "4", "--k-o", "4", "--epochs", "2"]
    assert run("train", "--data", str(data), "--n-train", "40", *shape, "--out", str(model)) == 0
    assert run("predict", "--model", str(model), "--data", str(data), "--out", str(preds)) == 0
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"data_path": str(data), "embed_r": 3, "horizon": 2,
                               "n_train": 40, "model": "wknn", "out_dir": str(tmp_path / "run")}))
    assert run("bench", "--config", str(cfg)) == 0
    times = lambda path: [int(row.split(",")[0]) for row in path.read_text().splitlines()[1:]]
    assert times(preds) == list(range(1000 + 60 * 4, 1000 + 60 * 60, 60))
    assert times(tmp_path / "run" / "predictions.csv") == list(
        range(1000 + 60 * (4 + 40), 1000 + 60 * 60, 60))
    forecast = predict_series(load_model_file(model).model, series)
    assert (forecast.start_time, forecast.step) == (1000 + 60 * 4, 60)


def test_a_span_of_two_values_is_scored_without_peaks(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("time,observed,predicted\n0,1.0,1.5\n1,2.0,2.5\n")
    capsys.readouterr()
    assert run("eval", "--predictions", str(preds)) == 0
    keys = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == ["n", "nmse", "mse", "correlation"]

    # 117 pairs, 115 of them for training: a test span of two values.
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"generator": "logistic", "gen_n": 120, "n_train": 115,
                               "model": "wknn", "out_dir": str(tmp_path / "run")}))
    assert run("bench", "--config", str(cfg)) == 0
    assert "n=2 " in capsys.readouterr().out
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == [
        "predictions.csv", "report.txt"]
