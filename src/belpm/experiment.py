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

from .baselines import WknnModel
from .classic import ClassicBelModel, bel_train
from .errors import ConfigError
from .metrics import EvaluationReport, PeakReport, correlation, find_peaks, match_peaks, mse, nmse
from .model import BelpmConfig, train as belpm_train
from .network import KernelKind
from .series import EmbeddedDataset, TimeSeries, embed, gen_logistic, gen_mackey_glass, split
from .storage import (
    GAP_ERROR,
    MODEL_KINDS,
    format_float,
    kind_of,
    load_series_csv,
    save_predictions_csv,
    write_text,
)

_BELPM_DEFAULTS = BelpmConfig()
# Field annotation -> the value types it accepts.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}

# Generator name -> the series a config asks of it; x0 is passed when set.
GENERATORS = {
    "mackey_glass": lambda config, **x0: gen_mackey_glass(
        config.gen_n, tau=config.gen_tau, warmup=config.gen_warmup, **x0),
    "logistic": lambda config, **x0: gen_logistic(config.gen_n, r=config.gen_rate, **x0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; exactly one of ``data_path``/``generator``.
    Each value must have its field's type (an int serves for a float, a bool
    for neither), however the config is built."""

    # data source
    data_path: str | None = None
    missing_sentinel: float | None = None
    gap_policy: str = GAP_ERROR
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
    k_a: int = _BELPM_DEFAULTS.k_a
    k_o: int = _BELPM_DEFAULTS.k_o
    bl_kernel: str = _BELPM_DEFAULTS.bl_kernel.value
    mo_kernel: str = _BELPM_DEFAULTS.mo_kernel.value
    lr: float = _BELPM_DEFAULTS.lr
    epochs: int = _BELPM_DEFAULTS.epochs
    ridge: float = _BELPM_DEFAULTS.ridge
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
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            kind, _, optional = field.type.partition(" | ")
            typed = isinstance(value, _FIELD_TYPES[kind]) and not isinstance(value, bool)
            if not (typed or value is None and optional):
                raise ConfigError(f"config field {field.name!r} must be {field.type}, got {value!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclass_fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """The config of a JSON-style mapping; a key that names no field is an error."""
        unknown = set(mapping) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**mapping)


def resolve_series(config: ExperimentConfig) -> TimeSeries:
    """The config's series: its data file with its gap handling, or its generator's output."""
    if (config.data_path is None) == (config.generator is None):
        raise ConfigError("exactly one of data_path / generator must be set")
    if config.data_path is not None:
        return load_series_csv(config.data_path, config.missing_sentinel, config.gap_policy)
    if config.generator not in GENERATORS:
        raise ConfigError(f"unknown generator {config.generator!r}")
    x0 = {} if config.gen_x0 is None else {"x0": config.gen_x0}
    return GENERATORS[config.generator](config, **x0)


def train_model(config: ExperimentConfig, train_set: EmbeddedDataset):
    """Train the configured model kind on the given pairs: the one place that
    maps config fields onto each kind's trainer."""
    trainers = {
        "belpm": lambda: belpm_train(train_set, BelpmConfig(**{
            **{field.name: getattr(config, field.name) for field in dataclass_fields(BelpmConfig)},
            "bl_kernel": KernelKind.from_name(config.bl_kernel),
            "mo_kernel": KernelKind.from_name(config.mo_kernel)})),
        "wknn": lambda: WknnModel.from_dataset(train_set, k=config.wknn_k),
        "classic_bel": lambda: bel_train(
            ClassicBelModel.zeros(train_set.r, alpha=config.bel_alpha, beta=config.bel_beta),
            train_set, epochs=config.bel_epochs),
    }
    return trainers[config.model]()


def predict_with(model, inputs: np.ndarray) -> np.ndarray:
    """One prediction per input row, by the batch predictor of the model's kind."""
    return MODEL_KINDS[kind_of(model)].predict_many(model, inputs)


def evaluate(observed: TimeSeries, predicted, peak_window: int,
             peak_top_m: int | None) -> EvaluationReport:
    """Metrics of ``predicted`` against ``observed`` (aligned value for value),
    plus the peak summary when the span holds at least three values.
    Non-finite predictions raise ``NumericError``."""
    y = observed.values
    scores = nmse(y, predicted), mse(y, predicted), correlation(y, predicted)
    predicted_ts = TimeSeries(predicted, start_time=observed.start_time, step=observed.step)
    peak_report = None
    if len(observed) >= 3:
        peak_report = match_peaks(find_peaks(observed, top_m=peak_top_m), predicted_ts,
                                  window=peak_window, top_m=peak_top_m)
    return EvaluationReport(*scores, n=len(observed), peak_report=peak_report)


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
    dataset = embed(resolve_series(config), config.embed_r, config.horizon)
    train_set, test_set = split(dataset, config.n_train)
    if len(test_set) == 0:
        raise ConfigError("n_train leaves no test samples")
    model = train_model(config, train_set)
    preds = predict_with(model, test_set.inputs)
    observed = TimeSeries(test_set.targets, start_time=test_set.start_time, step=test_set.step)
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
