"""Experiment configuration and the end-to-end train/predict/evaluate driver.

A run loads or generates a series, embeds and splits it chronologically,
trains the chosen model, predicts the held-out suffix, and reports metrics
plus a peak-identification summary. Nothing here (or anywhere else in the
package) draws random numbers, so a config maps to byte-identical artifacts
on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .baselines import WknnModel, wknn_predict
from .classic import ClassicBelModel, bel_predict, bel_train
from .errors import ConfigError
from .metrics import EvaluationReport, PeakReport, correlation, find_peaks, match_peaks, mse, nmse
from .model import BelpmConfig, BelpmModel, predict_many as belpm_predict_many, train as belpm_train
from .network import KernelKind
from .series import EmbeddedDataset, TimeSeries, embed, gen_logistic, gen_mackey_glass, split
from .storage import (
    MODEL_KINDS,
    SeriesFile,
    format_float,
    kind_of,
    load_series_csv,
    save_predictions_csv,
    write_text,
)

# Generator name -> the series a config asks of it; x0 is passed when set.
GENERATORS = {
    "mackey_glass": lambda config, **x0: gen_mackey_glass(
        config.gen_n, tau=config.gen_tau, warmup=config.gen_warmup, **x0),
    "logistic": lambda config, **x0: gen_logistic(config.gen_n, r=config.gen_rate, **x0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; exactly one of ``data_path``/``generator``."""

    # data source
    data_path: str | None = None
    missing_sentinel: float | None = None
    gap_policy: str = "error"
    generator: str | None = None
    gen_n: int = 600
    gen_tau: int = 17
    gen_x0: float | None = None    # None: the generator's default
    gen_warmup: int = 100
    gen_rate: float = 3.9          # logistic map growth rate
    # embedding and split
    embed_r: int = 3
    horizon: int = 1
    n_train: int = 500
    # model selection and hyperparameters
    model: str = "belpm"
    k_a: int = 8
    k_o: int = 8
    bl_kernel: str = "exponential"
    mo_kernel: str = "exponential"
    lr: float = 0.05
    epochs: int = 50
    ridge: float = 1e-8
    wknn_k: int = 2
    bel_alpha: float = 0.1
    bel_beta: float = 0.1
    bel_epochs: int = 10
    # evaluation
    peak_window: int = 2
    peak_top_m: int | None = None
    # artifacts (written when set)
    out_dir: str | None = None

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclass_fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        unknown = set(mapping) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**mapping)


def resolve_series(config: ExperimentConfig) -> TimeSeries:
    """The config's series: its data file with its gap handling, or its generator's output."""
    if (config.data_path is None) == (config.generator is None):
        raise ConfigError("exactly one of data_path / generator must be set")
    if config.data_path is not None:
        return load_series_csv(SeriesFile(
            path=config.data_path,
            missing_sentinel=config.missing_sentinel,
            gap_policy=config.gap_policy,
        ))
    if config.generator not in GENERATORS:
        raise ConfigError(f"unknown generator {config.generator!r}")
    x0 = {} if config.gen_x0 is None else {"x0": config.gen_x0}
    return GENERATORS[config.generator](config, **x0)


def train_model(config: ExperimentConfig, train_set: EmbeddedDataset):
    """Train the configured model kind on the given pairs.

    The one place that maps config fields onto each kind's trainer.
    """
    trainers = {
        BelpmModel: lambda: belpm_train(train_set, BelpmConfig(
            k_a=config.k_a,
            k_o=config.k_o,
            bl_kernel=KernelKind.from_name(config.bl_kernel),
            mo_kernel=KernelKind.from_name(config.mo_kernel),
            lr=config.lr,
            epochs=config.epochs,
            ridge=config.ridge,
        )),
        WknnModel: lambda: WknnModel.from_dataset(train_set, k=config.wknn_k),
        ClassicBelModel: lambda: bel_train(
            ClassicBelModel.zeros(train_set.r, alpha=config.bel_alpha, beta=config.bel_beta),
            train_set, epochs=config.bel_epochs),
    }
    return trainers[MODEL_KINDS[config.model].cls]()


def predict_with(model, inputs: np.ndarray) -> np.ndarray:
    """One prediction per input row, by the predict function of the model's kind.

    A BELPM model answers all rows in one batched neighbor search.
    """
    cls = MODEL_KINDS[kind_of(model)].cls
    if cls is BelpmModel:
        return belpm_predict_many(model, inputs)
    predict = {WknnModel: wknn_predict, ClassicBelModel: bel_predict}[cls]
    return np.array([predict(model, x) for x in inputs])


def evaluate(observed: TimeSeries, predicted, peak_window: int,
             peak_top_m: int | None) -> EvaluationReport:
    """Metrics of ``predicted`` against ``observed`` (aligned value for value),
    plus the peak summary when the span holds at least three values."""
    predicted_ts = TimeSeries(predicted, start_time=observed.start_time, step=observed.step)
    peak_report = None
    if len(observed) >= 3:
        peak_report = match_peaks(find_peaks(observed, top_m=peak_top_m), predicted_ts,
                                  window=peak_window, top_m=peak_top_m)
    y, yhat = observed.values, predicted_ts.values
    return EvaluationReport(
        nmse=nmse(y, yhat),
        mse=mse(y, yhat),
        correlation=correlation(y, yhat),
        n=len(observed),
        peak_report=peak_report,
    )


def render_report(report: EvaluationReport) -> str:
    """Structured ``key = value`` text mirroring the report fields."""
    lines = [
        f"n = {report.n}",
        f"nmse = {format_float(report.nmse)}",
        f"mse = {format_float(report.mse)}",
        f"correlation = {format_float(report.correlation)}",
    ]
    pk = report.peak_report
    if pk is not None:
        lines += [
            f"peak_window = {pk.window}",
            f"peak_identified_exact = {pk.identified_exact}",
            f"peak_identified_delayed = {pk.identified_delayed}",
            f"peak_missed = {pk.missed}",
        ]
    return "\n".join(lines) + "\n"


def render_peak_report(pk: PeakReport, observed_peaks: np.ndarray) -> str:
    offsets = ",".join("miss" if off is None else str(off) for off in pk.offsets)
    lines = [
        f"window = {pk.window}",
        f"observed_peaks = {','.join(str(int(t)) for t in observed_peaks)}",
        f"offsets = {offsets}",
        f"identified_exact = {pk.identified_exact}",
        f"identified_delayed = {pk.identified_delayed}",
        f"missed = {pk.missed}",
    ]
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Run the full pipeline; write artifacts when ``out_dir`` is set.

    Artifacts: ``predictions.csv`` (time,observed,predicted rows),
    ``report.txt`` (the rendered report), and ``peaks.txt`` when the test
    span is long enough to carry peaks.
    """
    series = resolve_series(config)
    dataset = embed(series, config.embed_r, config.horizon)
    train_set, test_set = split(dataset, config.n_train)
    if len(test_set) == 0:
        raise ConfigError("n_train leaves no test samples")
    model = train_model(config, train_set)
    preds = predict_with(model, test_set.inputs)

    # Epoch of the first test target: offset past the embedding head plus the
    # training prefix.
    start = series.time_at(config.embed_r - 1 + config.horizon + config.n_train)
    observed = TimeSeries(test_set.targets, start_time=start, step=series.step)
    report = evaluate(observed, preds, config.peak_window, config.peak_top_m)

    if config.out_dir is not None:
        out = Path(config.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {out}: {exc.strerror}") from None
        save_predictions_csv(observed, preds, out / "predictions.csv")
        write_text(out / "report.txt", render_report(report))
        if report.peak_report is not None:
            obs_peaks = find_peaks(observed, top_m=config.peak_top_m)
            write_text(out / "peaks.txt", render_peak_report(report.peak_report, obs_peaks))
    return report
