import dataclasses
import json
import math

import pytest

from belpm.cli import main
from belpm.errors import ConfigError
from belpm.experiment import ExperimentConfig, resolve_series, run_experiment, train_model
from belpm.model import train
from belpm.series import embed, gen_logistic, split
from belpm.storage import MODEL_KINDS

MINIMAL = ExperimentConfig(
    generator="logistic", gen_n=120, gen_x0=0.3, gen_rate=3.9,
    embed_r=3, horizon=1, n_train=80,
    model="wknn", wknn_k=2,
)


def test_minimal_generator_run_reports_finite_metrics():
    report = run_experiment(MINIMAL)
    assert report.n == 120 - 3 - 1 + 1 - 80
    assert math.isfinite(report.nmse)
    assert math.isfinite(report.mse)
    assert math.isfinite(report.correlation)
    assert report.peak_report is not None
    assert report.peak_report.total >= 0


def test_missing_data_file_is_config_error():
    cfg = dataclasses.replace(MINIMAL, generator=None,
                              data_path="/nonexistent/series.csv")
    with pytest.raises(ConfigError, match="/nonexistent/series.csv"):
        run_experiment(cfg)


def test_both_or_neither_source_rejected():
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(MINIMAL, data_path="x.csv"))
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(MINIMAL, generator=None))


def test_empty_test_set_rejected():
    cfg = dataclasses.replace(MINIMAL, n_train=117)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(MINIMAL, model="anfis"))


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"modle": "belpm"})


def test_config_values_checked_against_field_types():
    config = ExperimentConfig.from_mapping(
        {"generator": "logistic", "lr": 1, "gen_x0": None, "peak_top_m": 3})
    assert config.lr == 1 and config.gen_x0 is None and config.peak_top_m == 3
    for bad in ({"gen_n": 600.0}, {"k_a": False}, {"ridge": True}, {"gen_rate": None},
                {"data_path": 3}):
        with pytest.raises(ConfigError, match=repr(next(iter(bad)))):
            ExperimentConfig.from_mapping(bad)


def test_config_built_in_python_is_type_checked():
    with pytest.raises(ConfigError, match="'gen_n'"):
        ExperimentConfig(generator="logistic", gen_n="x")
    with pytest.raises(ConfigError, match="'lr'"):
        dataclasses.replace(MINIMAL, lr="0.05")
    with pytest.raises(ConfigError, match="'data_path'"):
        dataclasses.replace(MINIMAL, data_path=3)


def test_repeat_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = dataclasses.replace(MINIMAL, out_dir=str(out_a))
    cfg_b = dataclasses.replace(MINIMAL, out_dir=str(out_b))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("report.txt", "predictions.csv", "peaks.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_all_three_model_kinds_run():
    # Every kind in the table has a trainer, which builds that kind's class.
    for kind in MODEL_KINDS:
        cfg = dataclasses.replace(
            MINIMAL, model=kind,
            k_a=4, k_o=4, epochs=3, bel_epochs=3,
        )
        train_set, _ = split(embed(resolve_series(cfg), cfg.embed_r, cfg.horizon), cfg.n_train)
        assert type(train_model(cfg, train_set)) is MODEL_KINDS[kind].cls
        report = run_experiment(cfg)
        assert math.isfinite(report.mse)


def test_bench_labels_and_order(tmp_path, capsys):
    configs = [
        dataclasses.replace(MINIMAL, model="wknn"),
        dataclasses.replace(MINIMAL, model="classic_bel", bel_epochs=2),
    ]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"experiments": [
        {k: v for k, v in dataclasses.asdict(c).items() if v is not None}
        for c in configs]}))
    assert main(["bench", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["0:wknn", "1:classic_bel"]
    for line, cfg in zip(lines, configs):
        assert f"n={run_experiment(cfg).n} " in line


@pytest.mark.parametrize("generator", ["x", "Logistic", ""])
def test_unknown_generator_is_a_config_error(generator):
    with pytest.raises(ConfigError, match=f"unknown generator {generator!r}"):
        resolve_series(ExperimentConfig(generator=generator))


def test_belpm_hyperparameters_default_to_belpm_configs():
    train_set, _ = split(embed(gen_logistic(160, x0=0.3), 3, 1), 120)
    ours = train_model(ExperimentConfig(generator="logistic"), train_set)
    theirs = train(train_set)
    for net, ref in ((ours.bl, theirs.bl), (ours.mo, theirs.mo)):
        assert net.bandwidths.tobytes() == ref.bandwidths.tobytes()
        assert net.k == ref.k and net.kernel is ref.kernel
    assert ours.mo.train_targets.tobytes() == theirs.mo.train_targets.tobytes()
    assert ours.cm == theirs.cm
