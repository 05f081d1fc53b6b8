"""Command-line surface: one subcommand per pipeline stage plus ``bench``.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, DataError, NumericError
from .experiment import (
    GENERATORS,
    ExperimentConfig,
    evaluate,
    predict_with,
    render_peak_report,
    render_report,
    resolve_series,
    run_experiment,
    train_model,
)
from .metrics import find_peaks, match_peaks
from .series import TimeSeries, embed, shared_span, split
from .storage import (
    GAP_ERROR,
    GAP_INTERPOLATE,
    MODEL_KINDS,
    format_float,
    load_model_file,
    load_predicted_series,
    load_predictions_csv,
    load_series_csv,
    read_text,
    save_model,
    save_pairs_csv,
    save_predictions_csv,
    save_series_csv,
    write_text,
)

_DEFAULTS = ExperimentConfig()


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # ConfigError path so usage problems map to exit code 1.
    def error(self, message):
        raise ConfigError(message)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    # Destinations are ExperimentConfig field names.
    p.add_argument("--data", dest="data_path", metavar="DATA", required=True,
                   help="series CSV path")
    p.add_argument("--sentinel", dest="missing_sentinel", metavar="SENTINEL",
                   type=float, default=None, help="missing-value sentinel in the CSV")
    p.add_argument("--gap-policy", choices=[GAP_ERROR, GAP_INTERPOLATE],
                   default=_DEFAULTS.gap_policy)


def _add_config_args(p: argparse.ArgumentParser, *names: str) -> None:
    """One ``--field-name`` flag per ExperimentConfig field, typed and
    defaulted by the field's default."""
    for name in names:
        default = getattr(_DEFAULTS, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _config(args) -> ExperimentConfig:
    """The ExperimentConfig of the parsed flags named after its fields."""
    names = ExperimentConfig.field_names()
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="belpm",
                     description="Memory-based emotional-learning forecaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic benchmark series")
    p.add_argument("--kind", dest="generator", choices=list(GENERATORS), required=True)
    p.add_argument("--n", dest="gen_n", metavar="N", type=int, required=True)
    p.add_argument("--tau", dest="gen_tau", metavar="TAU", type=int, default=_DEFAULTS.gen_tau)
    p.add_argument("--x0", dest="gen_x0", metavar="X0", type=float, default=None)
    p.add_argument("--warmup", dest="gen_warmup", metavar="WARMUP", type=int, default=0)
    p.add_argument("--rate", dest="gen_rate", metavar="RATE", type=float,
                   default=_DEFAULTS.gen_rate, help="logistic map growth rate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", help="write the delay-embedded pairs of a series")
    _add_data_args(p)
    _add_config_args(p, "embed_r", "horizon")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a chronological prefix")
    _add_data_args(p)
    _add_config_args(p, "embed_r", "horizon")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--model", choices=list(MODEL_KINDS), default=_DEFAULTS.model)
    _add_config_args(p, "k_a", "k_o", "bl_kernel", "mo_kernel", "lr", "epochs", "ridge",
                     "wknn_k", "bel_alpha", "bel_beta", "bel_epochs")
    p.add_argument("--out", required=True, help="model file path")

    p = sub.add_parser("predict", help="predict a series with a saved model")
    _add_data_args(p)
    p.add_argument("--model", dest="model_path", metavar="MODEL", required=True,
                   help="model file path")
    p.add_argument("--out", required=True, help="predictions CSV path")

    p = sub.add_parser("eval", help="score a time,observed,predicted CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--peak-window", type=int, default=_DEFAULTS.peak_window)
    p.add_argument("--peak-top-m", type=int, default=None)
    p.add_argument("--out", default=None, help="optional report path")

    p = sub.add_parser("peaks", help="list peaks; optionally match predictions")
    _add_data_args(p)
    p.add_argument("--top-m", type=int, default=None)
    p.add_argument("--predicted", default=None, help="series or predictions CSV")
    p.add_argument("--window", type=int, default=_DEFAULTS.peak_window)

    p = sub.add_parser("bench", help="run experiment config(s) end to end")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", default=None,
                   help="override/assign the artifact directory")

    return parser


def _cmd_gen(args) -> int:
    series = resolve_series(_config(args))
    save_series_csv(series, args.out)
    print(f"wrote {len(series)} values to {args.out}")
    return 0


def _cmd_embed(args) -> int:
    dataset = embed(resolve_series(_config(args)), args.embed_r, args.horizon)
    save_pairs_csv(dataset, args.out)
    print(f"wrote {len(dataset)} pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _config(args)
    dataset = embed(resolve_series(config), config.embed_r, config.horizon)
    train_set, _ = split(dataset, config.n_train)
    model = train_model(config, train_set)
    save_model(model, args.out)
    print(f"trained {config.model} on {len(train_set)} pairs -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model_file(args.model_path).model
    dataset = embed(resolve_series(_config(args)), model.r, model.horizon)
    observed = TimeSeries(dataset.targets, start_time=dataset.start_time, step=dataset.step)
    save_predictions_csv(observed, predict_with(model, dataset.inputs), args.out)
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    observed, predicted = load_predictions_csv(args.predictions)
    text = render_report(evaluate(observed, predicted, args.peak_window, args.peak_top_m))
    if args.out:
        write_text(args.out, text)
    print(text, end="")
    return 0


def _cmd_peaks(args) -> int:
    series = load_series_csv(args.data_path, args.missing_sentinel, args.gap_policy)
    first = 0
    if args.predicted is not None:
        first, series, predicted = shared_span(series, load_predicted_series(args.predicted))
    peaks = find_peaks(series, top_m=args.top_m)
    print("index,time,value")
    for t in peaks:
        print(f"{first + int(t)},{series.time_at(int(t))},{format_float(series.values[t])}")
    if args.predicted is not None:
        report = match_peaks(peaks, predicted, window=args.window, top_m=args.top_m)
        print(render_peak_report(report, first + peaks), end="")
    return 0


def _cmd_bench(args) -> int:
    try:
        doc = json.loads(read_text(args.config, "config file", ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be an object or {'experiments': [...]}")
    raw_list = doc.get("experiments", [doc])
    if not isinstance(raw_list, list) or not raw_list:
        raise ConfigError("'experiments' must be a non-empty list")
    configs = []
    for i, raw in enumerate(raw_list):
        if not isinstance(raw, dict):
            raise ConfigError(f"experiment {i} must be a JSON object")
        if args.out_dir is not None:
            out_dir = Path(args.out_dir) / str(i) if len(raw_list) > 1 else args.out_dir
            raw = {**raw, "out_dir": str(out_dir)}
        configs.append(ExperimentConfig.from_mapping(raw))
    for i, config in enumerate(configs):
        report = run_experiment(config)
        peak = report.peak_report
        peak_str = (f" peaks {peak.identified_exact}/{peak.identified_delayed}"
                    f"/{peak.missed}" if peak else "")
        print(f"{i}:{config.model}: n={report.n} nmse={report.nmse:.6g} "
              f"mse={report.mse:.6g} corr={report.correlation:.6g}{peak_str}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "peaks": _cmd_peaks,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # Python 3.11's argparse reads ``--flag=--`` as []
            raise ConfigError("'--' is not a flag value")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
