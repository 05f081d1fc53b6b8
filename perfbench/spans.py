"""Span tracer that times calls into the library's layers from outside.

Each public function is wrapped at the module attribute where its caller
looks it up (``model.py`` imports ``forward`` by name, so ``belpm.model.forward``
is wrapped, not only ``belpm.network.forward``). A timed site records a span
(name, parent, start, end) in memory; a counted site only bumps a call count,
which keeps hot inner loops such as the leave-one-out neighbour search cheap
to trace. A wrapped name missing from its module is skipped and reported as
absent, so its time shows under the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name, timed). Counted-only sites feed call counts.
SITES = (
    ("belpm", "train", "model.train", True),
    ("belpm", "predict", "model.predict", True),
    ("belpm", "wknn_predict", "baselines.wknn_predict", True),
    ("belpm", "embed", "series.embed", True),
    ("belpm", "save_model", "storage.save_model", True),
    ("belpm", "load_model_file", "storage.load_model_file", True),
    ("belpm", "nmse", "metrics.nmse", True),
    ("belpm.model", "train_bandwidths_sd", "network.train_bandwidths_sd", True),
    ("belpm.model", "loo_predictions", "network.loo_predictions", True),
    ("belpm.model", "forward", "network.forward", True),
    ("belpm.model", "cm_lse_fit", "model.cm_lse_fit", True),
    ("belpm.model", "predict", "model.predict", True),
    ("belpm.model", "embed", "series.embed", True),
    ("belpm.network", "forward", "network.forward", False),
    ("belpm.network", "select_k_min", "network.select_k_min", False),
    ("belpm.baselines", "select_k_min", "network.select_k_min", False),
    ("belpm.experiment", "belpm_train", "model.train", True),
    ("belpm.experiment", "belpm_predict", "model.predict", True),
    ("belpm.experiment", "wknn_predict", "baselines.wknn_predict", True),
    ("belpm.experiment", "bel_train", "classic.bel_train", True),
    ("belpm.experiment", "bel_predict", "classic.bel_predict", True),
    ("belpm.cli", "embed", "series.embed", True),
    ("belpm.cli", "predict_with", "experiment.predict_with", True),
    ("belpm.cli", "load_series_csv", "storage.load_series_csv", True),
    ("belpm.cli", "load_model_file", "storage.load_model_file", True),
    ("belpm.cli", "save_model", "storage.save_model", True),
    ("belpm.cli", "nmse", "metrics.nmse", True),
    ("belpm.cli", "mse", "metrics.mse", True),
    ("belpm.cli", "correlation", "metrics.correlation", True),
    ("belpm.cli", "find_peaks", "metrics.find_peaks", True),
    ("belpm.cli", "match_peaks", "metrics.match_peaks", True),
)

# Per-layer time metric -> span names whose self times it sums.
LAYER_TIMES = {
    "network.sd_s": ["network.train_bandwidths_sd"],
    "network.loo_s": ["network.loo_predictions"],
    "network.forward_s": ["network.forward"],
    "model.train_self_s": ["model.train"],
    "model.predict_self_s": ["model.predict"],
    "model.cm_fit_s": ["model.cm_lse_fit"],
    "baselines.wknn_s": ["baselines.wknn_predict"],
    "classic.bel_train_s": ["classic.bel_train"],
    "classic.bel_predict_s": ["classic.bel_predict"],
    "series.embed_s": ["series.embed"],
    "storage.csv_load_s": ["storage.load_series_csv"],
    "storage.save_s": ["storage.save_model"],
    "storage.load_s": ["storage.load_model_file"],
    "metrics.eval_s": ["metrics.nmse", "metrics.mse", "metrics.correlation"],
    "metrics.peaks_s": ["metrics.find_peaks", "metrics.match_peaks"],
    "experiment.predict_with_s": ["experiment.predict_with"],
    "cli.train_s": ["cli.train"],
    "cli.predict_s": ["cli.predict"],
    "cli.eval_s": ["cli.eval"],
    "cli.peaks_s": ["cli.peaks"],
}
# Per-layer count metric -> span name whose calls it counts, at every site.
LAYER_CALLS = {
    "network.forward_calls": "network.forward",
    "network.select_calls": "network.select_k_min",
}


class Tracer:
    """In-memory span recorder; install() patches the sites, restore() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.calls: Counter = Counter()
        self.absent: list[str] = []
        self.sd_moves: list[float] = []
        self.sd_loss_ratios: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self.calls[name] += 1
        self._stack.append(i)
        try:
            yield
        finally:
            self.ends[i] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, timed: bool):
        tracer = self
        if not timed:
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        if name == "network.train_bandwidths_sd":
            def sd(net, *args, **kwargs):
                with tracer.span(name):
                    out = fn(net, *args, **kwargs)
                tracer._observe_sd(net, out)
                return out
            return sd

        def timed_call(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return timed_call

    def _observe_sd(self, net_in, out) -> None:
        """How far SD moved the bandwidths and how much it cut the loss."""
        try:
            net_out, losses = out
            moved = float(abs(net_out.bandwidths - net_in.bandwidths).max())
        except (TypeError, ValueError, AttributeError):
            return  # a changed signature is not this layer's failure to report
        self.sd_moves.append(moved)
        first, last = float(losses[0]), float(losses[-1])
        self.sd_loss_ratios.append(last / first if first > 0 else 1.0)

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, timed in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, timed))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, n in self.calls.items():
            out[name]["calls"] = n
        for i, name in enumerate(self.names):
            out[name]["total_s"] += dur[i] * 1e-9
            out[name]["self_s"] += (dur[i] - child[i]) * 1e-9
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        table = self.table()
        get = lambda name, key: table.get(name, {}).get(key, 0)
        metrics = {m: float(sum(get(n, "self_s") for n in names))
                   for m, names in LAYER_TIMES.items()}
        metrics.update({m: get(n, "calls") for m, n in LAYER_CALLS.items()})
        metrics["network.bw_moved"] = max(self.sd_moves, default=0.0)
        metrics["network.sd_loss_ratio"] = min(self.sd_loss_ratios, default=1.0)
        return metrics

    def write(self, path) -> None:
        """Spans as gzipped TSV: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}\n")
