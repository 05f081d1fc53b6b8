"""Command-line surface: one subcommand per pipeline stage plus ``bench``.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .experiment import (
    ExperimentConfig,
    render_peak_report,
    render_report,
    run_bench,
    train_model,
    predict_with,
)
from .metrics import EvaluationReport, correlation, find_peaks, match_peaks, mse, nmse
from .series import TimeSeries, embed, gen_logistic, gen_mackey_glass, split
from .storage import (
    SeriesFile,
    _fmt,
    load_model_file,
    load_series_csv,
    save_model,
    save_series_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # ConfigError path so usage problems map to exit code 1.
    def error(self, message):
        raise ConfigError(message)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="series CSV path")
    p.add_argument("--sentinel", type=float, default=None,
                   help="missing-value sentinel in the CSV")
    p.add_argument("--gap-policy", choices=["error", "linear_interpolate"],
                   default="error")


def _load_series(args) -> TimeSeries:
    path = Path(args.data)
    if not path.exists():
        raise ConfigError(f"data file not found: {args.data}")
    return load_series_csv(SeriesFile(
        path=str(path),
        missing_sentinel=args.sentinel,
        gap_policy=args.gap_policy,
    ))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="belpm",
                     description="Memory-based emotional-learning forecaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic benchmark series")
    p.add_argument("--kind", choices=["mackey_glass", "logistic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=int, default=17)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--rate", type=float, default=3.9,
                   help="logistic map growth rate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", help="write the delay-embedded pairs of a series")
    _add_data_args(p)
    p.add_argument("--embed-r", type=int, default=3)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a chronological prefix")
    _add_data_args(p)
    p.add_argument("--embed-r", type=int, default=3)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--model", choices=["belpm", "wknn", "classic_bel"],
                   default="belpm")
    p.add_argument("--k-a", type=int, default=8)
    p.add_argument("--k-o", type=int, default=8)
    p.add_argument("--bl-kernel", default="exponential")
    p.add_argument("--mo-kernel", default="exponential")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--wknn-k", type=int, default=2)
    p.add_argument("--bel-alpha", type=float, default=0.1)
    p.add_argument("--bel-beta", type=float, default=0.1)
    p.add_argument("--bel-epochs", type=int, default=10)
    p.add_argument("--out", required=True, help="model file path")

    p = sub.add_parser("predict", help="predict a series with a saved model")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--out", required=True, help="predictions CSV path")

    p = sub.add_parser("eval", help="score a time,observed,predicted CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--peak-window", type=int, default=2)
    p.add_argument("--peak-top-m", type=int, default=None)
    p.add_argument("--out", default=None, help="optional report path")

    p = sub.add_parser("peaks", help="list peaks; optionally match predictions")
    _add_data_args(p)
    p.add_argument("--top-m", type=int, default=None)
    p.add_argument("--predicted", default=None, help="predicted series CSV")
    p.add_argument("--window", type=int, default=2)

    p = sub.add_parser("bench", help="run experiment config(s) end to end")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", default=None,
                   help="override/assign the artifact directory")

    return parser


def _cmd_gen(args) -> int:
    if args.kind == "mackey_glass":
        series = gen_mackey_glass(args.n, tau=args.tau,
                                  x0=1.2 if args.x0 is None else args.x0,
                                  warmup=args.warmup)
    else:
        series = gen_logistic(args.n, r=args.rate,
                              x0=0.3 if args.x0 is None else args.x0)
    save_series_csv(series, args.out)
    print(f"wrote {len(series)} values to {args.out}")
    return 0


def _cmd_embed(args) -> int:
    series = _load_series(args)
    dataset = embed(series, args.embed_r, args.horizon)
    lines = [f"# embedded pairs r={dataset.r} horizon={dataset.horizon}"]
    for x, t in zip(dataset.inputs, dataset.targets):
        lines.append(",".join(_fmt(v) for v in x) + "," + _fmt(t))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(dataset)} pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    series = _load_series(args)
    dataset = embed(series, args.embed_r, args.horizon)
    train_set, _ = split(dataset, args.n_train)
    config = ExperimentConfig(
        data_path=args.data,
        embed_r=args.embed_r, horizon=args.horizon, n_train=args.n_train,
        model=args.model, k_a=args.k_a, k_o=args.k_o,
        bl_kernel=args.bl_kernel, mo_kernel=args.mo_kernel,
        lr=args.lr, epochs=args.epochs, ridge=args.ridge,
        wknn_k=args.wknn_k, bel_alpha=args.bel_alpha, bel_beta=args.bel_beta,
        bel_epochs=args.bel_epochs,
    )
    model = train_model(config, train_set)
    save_model(model, args.out, embedding=(args.embed_r, args.horizon))
    print(f"trained {args.model} on {len(train_set)} pairs -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    if not Path(args.model).exists():
        raise ConfigError(f"model file not found: {args.model}")
    loaded = load_model_file(args.model)
    series = _load_series(args)
    dataset = embed(series, loaded.r, loaded.horizon)
    preds = predict_with(loaded.model, dataset.inputs)
    start = series.start_time + (loaded.r - 1 + loaded.horizon) * series.step
    rows = ["time,observed,predicted"]
    for j in range(len(dataset)):
        rows.append(f"{start + j * series.step},"
                    f"{_fmt(dataset.targets[j])},{_fmt(preds[j])}")
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    from .errors import ParseError, EmptyFile

    p = Path(path)
    if not p.exists():
        raise ConfigError(f"predictions file not found: {path}")
    times, obs, pred = [], [], []
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [tok.strip() for tok in line.split(",")]
        if parts and parts[0].lower() == "time":
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'time,observed,predicted'")
        try:
            times.append(int(parts[0]))
            obs.append(float(parts[1]))
            pred.append(float(parts[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse row {line!r}") from None
    if not obs:
        raise EmptyFile(f"{path}: no prediction rows")
    return np.asarray(times), np.asarray(obs), np.asarray(pred)


def _cmd_eval(args) -> int:
    times, obs, pred = _read_predictions_csv(args.predictions)
    peak_report = None
    if obs.size >= 3:
        step = int(times[1] - times[0]) if times.size > 1 else 1
        observed_ts = TimeSeries(obs, start_time=int(times[0]), step=max(step, 1))
        predicted_ts = TimeSeries(pred, start_time=int(times[0]), step=max(step, 1))
        obs_peaks = find_peaks(observed_ts, top_m=args.peak_top_m)
        peak_report = match_peaks(obs_peaks, predicted_ts,
                                  window=args.peak_window, top_m=args.peak_top_m)
    report = EvaluationReport(
        nmse=nmse(obs, pred),
        mse=mse(obs, pred),
        correlation=correlation(obs, pred),
        n=obs.size,
        peak_report=peak_report,
    )
    text = render_report(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_peaks(args) -> int:
    series = _load_series(args)
    peaks = find_peaks(series, top_m=args.top_m)
    print("index,time,value")
    for t in peaks:
        print(f"{int(t)},{series.time_at(int(t))},{_fmt(series.values[t])}")
    if args.predicted is not None:
        pred_path = Path(args.predicted)
        if not pred_path.exists():
            raise ConfigError(f"predicted series not found: {args.predicted}")
        predicted = load_series_csv(SeriesFile(path=str(pred_path)))
        report = match_peaks(peaks, predicted, window=args.window,
                             top_m=args.top_m)
        print(render_peak_report(report, peaks), end="")
    return 0


def _cmd_bench(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {args.config}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
    if isinstance(doc, dict) and "experiments" in doc:
        raw_list = doc["experiments"]
    elif isinstance(doc, dict):
        raw_list = [doc]
    else:
        raise ConfigError("config must be an object or {'experiments': [...]}")
    configs = []
    for i, raw in enumerate(raw_list):
        if not isinstance(raw, dict):
            raise ConfigError(f"experiment {i} must be a JSON object")
        if args.out_dir is not None:
            raw = dict(raw)
            raw["out_dir"] = str(Path(args.out_dir) / str(i)) \
                if len(raw_list) > 1 else args.out_dir
        configs.append(ExperimentConfig.from_mapping(raw))
    for label, report in run_bench(configs):
        peak = report.peak_report
        peak_str = (f" peaks {peak.identified_exact}/{peak.identified_delayed}"
                    f"/{peak.missed}" if peak else "")
        print(f"{label}: n={report.n} nmse={report.nmse:.6g} "
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
