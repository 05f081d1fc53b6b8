import json

import numpy as np

from belpm.cli import main
from belpm.model import predict
from belpm.series import embed, gen_logistic
from belpm.storage import SeriesFile, load_model_file, load_series_csv

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
    series = load_series_csv(SeriesFile(path=str(out)))
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
    series = load_series_csv(SeriesFile(path=str(series_path)))
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


def test_exit_code_3_for_numeric_errors(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("time,observed,predicted\n0,1.0,1.0\n1,1.0,2.0\n")
    assert run("eval", "--predictions", str(preds)) == 3
