"""The benchmark's three workloads and their correctness checks.

Every workload has the same parts, weighted differently: a set-up repeated a
few times, the measured phase, a closed-loop stream of single-window queries
(one client, the next query sent when the previous one returns), and a CLI
evaluation of the baselines. Each reports every end-to-end metric:

- ``train_large``: chaotic Mackey-Glass, n_train=4000. The measured phase
  repeats the library job: ``belpm.train``, ``belpm.predict_series`` over the
  test span, then a save -> load round trip.
- ``online_forecast``: the same generator at n_train=2000. Set-up runs that
  job and builds a ``WknnModel(k=2)``. The measured phase alternates a set-up
  with a 3-second burst of queries; LOO and SD do none of the query work.
- ``ae_pipeline``: an AE-like 1-minute series with missing-value gaps. The
  measured phase repeats ``train`` on day 7, ``predict`` on day 9, ``eval``
  and ``peaks`` through ``belpm.cli.main`` for belpm, wknn and classic_bel.

A failed check counts in ``Run.failed`` and the run goes on. The one known
library defect, classic_bel diverging to NaN on AE-scale values, is counted
apart in ``Run.known`` so it stays visible without failing every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import belpm
import belpm.cli
import gen
import oracle

R = 3
MG_HORIZON = 1
AE_HORIZON = 5
WKNN_K = 2
PEAK_WINDOW, PEAK_TOP_M = 2, 10
# The AE training day is the same for every run seed. On AE-scale values SD
# moves bandwidths by ~1e6 (see network.bw_moved), so any change to the
# training data moved the day-9 NMSE by ~20% between seeds; the seed draws
# day 9's noise and gaps instead.
AE_TRAIN_SEED = 7


@dataclass(frozen=True)
class Sizes:
    large_train: int = 4000
    online_train: int = 2000
    mg_test: int = 600
    minutes_per_day: int = gen.MINUTES_PER_DAY
    queries: int = 3000            # side streams and fixed-work passes; 30 beyond the p99
    setup_reps: int = 9
    burst_seconds: float = 3.0     # online_forecast queries between two set-ups
    sample: int = 20               # predictions compared with the oracle per check


FULL = Sizes()
TINY = Sizes(large_train=150, online_train=100, mg_test=60, minutes_per_day=120,
             queries=100, setup_reps=2, burst_seconds=0.2, sample=5)


class Run:
    """One pass of a workload: inputs, counters, and an optional tracer.

    ``fixed`` passes do a fixed amount of work (one set-up, one job or
    pipeline, ``queries`` queries) so a traced and an untraced pass
    compare; otherwise the measured phase runs for ``seconds``.
    """

    def __init__(self, seed: int, seconds: float, sizes: Sizes, workdir: Path,
                 fixed: bool = False, tracer=None):
        self.seed, self.seconds, self.sizes = seed, seconds, sizes
        self.workdir, self.fixed, self.tracer = workdir, fixed, tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.ambiguous = 0
        self.notes: list[str] = []
        self.model_bytes = 0             # size of the BELPM model file
        self.repeats: dict[str, list[float]] = {}

    def checks(self, total: int, bad: int, what: str) -> None:
        self.attempted += total
        self.failed += bad
        if bad:
            self.failures.append(f"{what}: {bad} of {total}")

    def check(self, ok: bool, what: str) -> None:
        self.checks(1, 0 if ok else 1, what)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def untraced(self):
        """Checks run with the library unwrapped, so they add no spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.restore()
        try:
            yield
        finally:
            self.tracer.install()

    def cli(self, *argv) -> tuple[int, float]:
        """``belpm.cli.main(argv)`` with its output captured; (exit code, seconds)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                self.span(f"cli.{argv[0]}"):
            t0 = perf_counter()
            code = belpm.cli.main([str(a) for a in argv])
            dt = perf_counter() - t0
        if code != 0:
            self.notes.append(f"belpm {argv[0]} exit {code}: {stderr.getvalue().strip()[-200:]}")
        return code, dt

    def until_done(self, count: int, start: float) -> bool:
        """Whether to start another iteration after ``count`` done.

        A fixed pass does one; otherwise at least two, then more until
        ``seconds`` have passed since ``start``.
        """
        return count < (1 if self.fixed else 2) or (
            not self.fixed and perf_counter() - start < self.seconds)


# --- shared helpers ----------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs))


def _write_series(path: Path, values: np.ndarray, start: int) -> None:
    rows = ["time,value"] + [f"{start + j},{v!r}" for j, v in enumerate(values.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    cols = np.array(rows, dtype=np.float64).T
    return cols[0].astype(np.int64), cols[1], cols[2]


def _fill_gaps(values: np.ndarray) -> np.ndarray:
    known = np.flatnonzero(values != gen.AE_SENTINEL)
    return np.interp(np.arange(values.size, dtype=float), known, values[known])


def _sample_idx(n: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, count)).astype(int))


def _check_oracle(run: Run, kind: str, model, inputs, preds, what: str) -> None:
    """Compare a sample of ``preds`` with the brute-force forward pass."""
    bad = total = 0
    for j in _sample_idx(len(inputs), run.sizes.sample):
        ref, ambiguous = oracle.FORWARD[kind](model, inputs[j])
        if ambiguous:
            run.ambiguous += 1
            continue
        total += 1
        bad += not oracle.close(preds[j], ref)
    run.checks(total, bad, f"{what} vs oracle")


def _latency(ns: list[int]) -> tuple[float, float, float, int]:
    """(min, p50, p99 in us, samples beyond the p99); p99 by nearest rank."""
    srt = sorted(ns)
    rank = -(-99 * len(srt) // 100)      # ceil(0.99 n)
    return srt[0] / 1e3, _median(srt) / 1e3, srt[rank - 1] / 1e3, len(srt) - rank


def _summary(run: Run, setups, train_s, batch_qps, pipeline_s,
             nmse: float) -> dict[str, float]:
    """Each phase is the median of its repeats; the repeats go into the record."""
    run.repeats = {"setup_s": setups, "train_s": train_s,
                   "batch_predict_qps": batch_qps, "pipeline_s": pipeline_s}
    return {name: _median(values) for name, values in run.repeats.items()} | {
        "test_nmse": nmse}


class _Stream:
    """Closed loop of alternating ``belpm.predict``/``belpm.wknn_predict``.

    ``send`` may be called between the repeats of a timed phase, so the
    samples spread over the whole run. Every BELPM answer is compared with
    the batch prediction of its window.
    """

    def __init__(self, run: Run, model, wknn, inputs: np.ndarray, batch: np.ndarray):
        self.run, self.model, self.wknn = run, model, wknn
        self.inputs, self.batch = inputs, batch
        self.lat_b: list[int] = []
        self.lat_w: list[int] = []
        self.out_b: list[float] = []
        self.out_w: list[float] = []
        self.errors = 0

    def send(self, count: int | None = None, seconds: float = 0.0) -> None:
        """``count`` query pairs, or pairs for ``seconds`` when ``count`` is None."""
        n, run = len(self.inputs), self.run
        deadline = perf_counter() + seconds
        k = 0
        while (k < count) if count is not None else (k < 2 or perf_counter() < deadline):
            x = self.inputs[len(self.out_b) % n]
            t0 = perf_counter_ns()
            try:
                y = belpm.predict(self.model, x)
            except Exception as exc:  # a failed query is counted; the stream goes on
                y, self.errors = float("nan"), self.errors + 1
                run.notes.append(f"predict raised {type(exc).__name__}: {exc}")
            t1 = perf_counter_ns()
            try:
                yw = belpm.wknn_predict(self.wknn, x)
            except Exception as exc:  # as above
                yw, self.errors = float("nan"), self.errors + 1
                run.notes.append(f"wknn_predict raised {type(exc).__name__}: {exc}")
            t2 = perf_counter_ns()
            self.lat_b.append(t1 - t0)
            self.lat_w.append(t2 - t1)
            self.out_b.append(y)
            self.out_w.append(yw)
            k += 1

    def finish(self) -> dict[str, float]:
        run, n, k = self.run, len(self.inputs), len(self.out_b)
        run.checks(2 * k, self.errors, "query raised")
        with run.untraced():
            bad = sum(not oracle.close(y, self.batch[j % n]) for j, y in enumerate(self.out_b))
            run.checks(k, bad, "query vs batch prediction")
            first = np.asarray(self.out_w[:n])
            _check_oracle(run, "wknn", self.wknn, self.inputs[:first.size], first, "wknn query")
        fastest, p50, p99, beyond = _latency(self.lat_b)
        wknn_fastest, wknn_p50, _, _ = _latency(self.lat_w)
        run.notes.append(f"queries: {k} BELPM + {k} wknn; p99 has {beyond} samples beyond it")
        return {
            "query_min_us": fastest,
            "query_p50_us": p50,
            "query_p99_us": p99,
            "query_qps": 1e9 * k / sum(self.lat_b),
            "wknn_query_min_us": wknn_fastest,
            "wknn_query_p50_us": wknn_p50,
        }


def _cli_pipeline(run: Run, kinds, files: dict[str, Path], n_train: int,
                  horizon: int, gap_args: tuple[str, ...]) -> dict[str, dict]:
    """``train`` -> ``predict`` -> ``eval`` -> ``peaks`` per model kind."""
    out = {}
    for kind in kinds:
        model_path = run.workdir / f"{kind}.model"
        pred_path = run.workdir / f"{kind}.pred.csv"
        report_path = run.workdir / f"{kind}.report.txt"
        series_path = run.workdir / f"{kind}.predicted.csv"
        for stale in (model_path, pred_path, report_path, series_path):
            stale.unlink(missing_ok=True)
        train_code, train_s = run.cli(
            "train", "--data", files["train"], *gap_args, "--embed-r", R,
            "--horizon", horizon, "--n-train", n_train, "--model", kind,
            "--wknn-k", WKNN_K, "--out", model_path)
        predict_code, predict_s = run.cli(
            "predict", "--model", model_path, "--data", files["predict"], *gap_args,
            "--out", pred_path)
        if not pred_path.exists():
            run.check(False, f"{kind} train/predict wrote no predictions")
            continue
        times, observed, preds = _read_predictions(pred_path)
        _write_series(series_path, preds, int(times[0]))
        eval_code, eval_s = run.cli(
            "eval", "--predictions", pred_path, "--peak-window", PEAK_WINDOW,
            "--peak-top-m", PEAK_TOP_M, "--out", report_path)
        peaks_code, peaks_s = run.cli(
            "peaks", "--data", files["observed"], *gap_args, "--top-m", PEAK_TOP_M,
            "--predicted", series_path, "--window", PEAK_WINDOW)

        finite = bool(np.all(np.isfinite(preds)))
        codes = {"train": train_code, "predict": predict_code,
                 "eval": eval_code, "peaks": peaks_code}
        if kind == "classic_bel" and not finite and train_code == predict_code == 0:
            # Known defect: classic_bel diverges on AE-scale values, writes NaN
            # predictions, and eval/peaks then refuse them.
            failing = ["predict (NaN output)"] + [
                f"{c} (exit {codes[c]})" for c in ("eval", "peaks") if codes[c] != 0]
            run.known.extend(f"classic_bel {f}" for f in failing)
            run.check(True, "classic_bel train")
        else:
            for step, code in codes.items():
                run.check(code == 0, f"{kind} {step} exit code")
            run.check(finite, f"{kind} predictions finite")
        report = {}
        if report_path.exists():
            for line in report_path.read_text(encoding="utf-8").splitlines():
                key, _, value = line.partition(" = ")
                report[key] = value
        out[kind] = {
            "train_s": train_s, "predict_s": predict_s,
            "total_s": train_s + predict_s + eval_s + peaks_s,
            "observed": observed, "preds": preds, "finite": finite,
            "nmse": float(report["nmse"]) if "nmse" in report else float("nan"),
            "digest": hashlib.sha256(pred_path.read_bytes()).hexdigest(),
            "model_path": model_path,
        }
    return out


def _check_cli_outputs(run: Run, results: dict[str, dict], inputs: np.ndarray,
                       targets: np.ndarray) -> None:
    """Observed column, sampled predictions and reported NMSE per kind."""
    with run.untraced():
        for kind, res in results.items():
            obs_ok = res["observed"].shape == targets.shape and all(
                oracle.close(a, b, 1e-12) for a, b in zip(res["observed"], targets))
            run.check(obs_ok, f"{kind} observed column vs generated series")
            if not res["finite"]:
                continue
            model = belpm.load_model_file(res["model_path"]).model
            _check_oracle(run, kind, model, inputs, res["preds"], f"{kind} CLI predictions")
            run.check(oracle.close(res["nmse"], oracle.nmse(targets, res["preds"]), 1e-12),
                      f"{kind} reported nmse")


def _mg_data(run: Run, n_train: int):
    """Series, train/test split and the test span as a series; for set-up."""
    values = gen.mackey_glass(n_train + run.sizes.mg_test + R, run.seed)
    dataset = belpm.embed(belpm.TimeSeries(values), R, MG_HORIZON)
    train, test = belpm.split(dataset, n_train)
    return values, train, test, belpm.TimeSeries(values[n_train:], start_time=n_train)


@dataclass
class _Job:
    model: object
    loaded: object
    preds: np.ndarray
    nmse: float
    train_s: float
    predict_s: float
    total_s: float


def _mg_job(run: Run, train, test, test_series, path: Path) -> _Job:
    """train -> predict_series over the test span -> nmse -> save -> load."""
    t0 = perf_counter()
    model = belpm.train(train)
    t1 = perf_counter()
    preds = belpm.predict_series(model, test_series).values
    t2 = perf_counter()
    score = belpm.nmse(test.targets, preds)
    belpm.save_model(model, path)
    loaded = belpm.load_model_file(path).model
    t3 = perf_counter()
    run.model_bytes = path.stat().st_size
    return _Job(model, loaded, preds, score, t1 - t0, t2 - t1, t3 - t0)


def _check_jobs(run: Run, jobs: list[_Job], test) -> None:
    with run.untraced():
        for job in jobs:
            run.check(np.isfinite(job.nmse), "test nmse finite")
            run.check(job.nmse == jobs[0].nmse, "test nmse equal across repeats")
        last = jobs[-1]
        _check_oracle(run, "belpm", last.model, test.inputs, last.preds, "batch prediction")
        run.check(oracle.close(last.nmse, oracle.nmse(test.targets, last.preds), 1e-12),
                  "library nmse vs oracle")
        idx = _sample_idx(len(test), run.sizes.sample)
        same = [belpm.predict(last.loaded, test.inputs[j])
                == belpm.predict(last.model, test.inputs[j]) for j in idx]
        run.checks(len(same), same.count(False), "reloaded model bit-identical")


def _mg_cli_leg(run: Run, values: np.ndarray, n_train: int, test) -> None:
    """The two baselines through the CLI on the workload's own split."""
    lead = R - 1 + MG_HORIZON
    files = {"train": run.workdir / "mg_train.csv", "predict": run.workdir / "mg_test.csv",
             "observed": run.workdir / "mg_observed.csv"}
    _write_series(files["train"], values[:n_train + lead], 0)
    _write_series(files["predict"], values[n_train:], n_train)
    _write_series(files["observed"], test.targets, n_train + lead)
    results = _cli_pipeline(run, ("wknn", "classic_bel"), files, n_train, MG_HORIZON, ())
    _check_cli_outputs(run, results, test.inputs, test.targets)


# --- workloads ---------------------------------------------------------------


def train_large(run: Run) -> dict[str, float]:
    s = run.sizes
    setups = []
    for _ in range(1 if run.fixed else s.setup_reps):
        t0 = perf_counter()
        values, train, test, test_series = _mg_data(run, s.large_train)
        wknn = belpm.WknnModel.from_dataset(train, WKNN_K)
        setups.append(perf_counter() - t0)

    jobs: list[_Job] = []
    start = perf_counter()
    while run.until_done(len(jobs), start):
        jobs.append(_mg_job(run, train, test, test_series, run.workdir / "belpm.model"))
        run.check(True, "job")
        if len(jobs) == 1:
            stream = _Stream(run, jobs[0].loaded, wknn, test.inputs, jobs[0].preds)
        stream.send(s.queries if run.fixed else s.queries // 3)
    _check_jobs(run, jobs, test)
    metrics = stream.finish()
    _mg_cli_leg(run, values, s.large_train, test)
    return metrics | _summary(run, setups, [j.train_s for j in jobs],
                              [len(test) / j.predict_s for j in jobs],
                              [j.total_s for j in jobs], jobs[-1].nmse)


def online_forecast(run: Run) -> dict[str, float]:
    s = run.sizes
    setups, jobs = [], []
    start = perf_counter()
    while run.until_done(len(jobs), start):
        # The service is set up again before each burst of queries, so the
        # set-up repeats sample the machine's drifting speed at many moments.
        t0 = perf_counter()
        values, train, test, test_series = _mg_data(run, s.online_train)
        jobs.append(_mg_job(run, train, test, test_series, run.workdir / "belpm.model"))
        wknn = belpm.WknnModel.from_dataset(train, WKNN_K)
        setups.append(perf_counter() - t0)
        run.check(True, "set-up")
        if len(jobs) == 1:
            stream = _Stream(run, jobs[0].loaded, wknn, test.inputs, jobs[0].preds)
        if run.fixed:
            stream.send(s.queries)
        else:
            stream.send(seconds=s.burst_seconds)
    _check_jobs(run, jobs, test)
    metrics = stream.finish()
    _mg_cli_leg(run, values, s.online_train, test)
    return metrics | _summary(run, setups, [j.train_s for j in jobs],
                              [len(test) / j.predict_s for j in jobs],
                              [j.total_s for j in jobs], jobs[-1].nmse)


def ae_pipeline(run: Run) -> dict[str, float]:
    s = run.sizes
    day = s.minutes_per_day
    lead = R - 1 + AE_HORIZON
    files = {"train": run.workdir / "ae_day7.csv", "predict": run.workdir / "ae_day9.csv",
             "observed": run.workdir / "ae_day9_observed.csv"}
    setups = []
    for _ in range(1 if run.fixed else s.setup_reps):
        t0 = perf_counter()
        trained_on = gen.ae_like(9, AE_TRAIN_SEED, minutes_per_day=day, gap_days=(7,))
        gapped = gen.ae_like(9, run.seed, minutes_per_day=day, gap_days=(9,))
        _write_series(files["train"], trained_on[6 * day:7 * day + lead], 6 * day)
        _write_series(files["predict"], gapped[8 * day - lead:9 * day], 8 * day - lead)
        _write_series(files["observed"], gapped[8 * day:9 * day], 8 * day)
        setups.append(perf_counter() - t0)

    gap_args = ("--sentinel", gen.AE_SENTINEL, "--gap-policy", "linear_interpolate")
    inputs, targets = oracle.windows(_fill_gaps(gapped[8 * day - lead:9 * day]), R, AE_HORIZON)
    runs = []
    start = perf_counter()
    while run.until_done(len(runs), start):
        runs.append(_cli_pipeline(run, ("belpm", "wknn", "classic_bel"), files,
                                  day, AE_HORIZON, gap_args))
        if len(runs) == 1:
            stream = _Stream(run, belpm.load_model_file(runs[0]["belpm"]["model_path"]).model,
                             belpm.load_model_file(runs[0]["wknn"]["model_path"]).model,
                             inputs, runs[0]["belpm"]["preds"])
        stream.send(s.queries if run.fixed else s.queries // 10)
    last = runs[-1]
    _check_cli_outputs(run, last, inputs, targets)
    with run.untraced():
        for res in runs:
            for kind in res:
                run.check(res[kind]["digest"] == runs[0][kind]["digest"],
                          f"{kind} predictions byte-identical across repeats")
            run.check(np.isfinite(res["belpm"]["nmse"]), "test nmse finite")
            run.check(res["belpm"]["nmse"] == last["belpm"]["nmse"],
                      "test nmse equal across repeats")
        model_path = last["belpm"]["model_path"]
        belpm.save_model(belpm.load_model_file(model_path).model, run.workdir / "resaved.model")
        run.check((run.workdir / "resaved.model").read_bytes() == model_path.read_bytes(),
                  "belpm model file stable under load -> save")
    run.model_bytes = model_path.stat().st_size
    metrics = stream.finish()
    return metrics | _summary(run, setups, [r["belpm"]["train_s"] for r in runs],
                              [len(targets) / r["belpm"]["predict_s"] for r in runs],
                              [sum(k["total_s"] for k in r.values()) for r in runs],
                              last["belpm"]["nmse"])


WORKLOADS = {
    "train_large": train_large,
    "online_forecast": online_forecast,
    "ae_pipeline": ae_pipeline,
}
