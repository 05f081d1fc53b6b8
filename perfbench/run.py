"""belpm benchmark: one workload per process, one JSON result line at the end.

    python3 perfbench/run.py --workload online_forecast --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off. ``--trace 1`` runs the workload's fixed amount of work twice,
untraced and then traced, and reports the per-layer metrics plus the tracing
overhead (the wall-time difference between the two passes). ``--smoke`` runs
every workload at tiny sizes in both modes and checks that every metric named
in BENCHMARK.json is emitted with its unit.

Human-readable lines (environment, metrics, checks, known defects) come first
on standard output; the last line is the JSON result. A full record, and for
traced runs the spans, go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# train_large is not in BENCHMARK.json (its gated figures were unsteady on a
# 2-vCPU Xeon VM) but stays runnable by hand and is covered by --smoke.
WORKLOAD_NAMES = ["train_large", "online_forecast", "ae_pipeline"]
# Computed and printed but kept out of the JSON: on a 2-vCPU Xeon VM their
# spread between runs (IQR/median over ten seeds) reached 0.25-0.43, beyond the
# largest allowed bound of 0.25.
INFO_UNITS = {"train_s": "s", "batch_predict_qps": "1/s", "pipeline_s": "s",
              "query_p50_us": "us", "query_qps": "1/s", "wknn_query_p50_us": "us"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_belpm():
    """Import belpm from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "belpm" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'belpm'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import belpm
    if Path(belpm.__file__).resolve().parent != (src / "belpm").resolve():
        sys.exit(f"error: imported belpm from {belpm.__file__}, not {src}")
    return belpm


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "blas_threads": os.environ[BLAS_VARS[0]],
    }


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
            workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (metrics, record of counters and notes)."""
    # Imported here, after _import_belpm has put this checkout's src/ first.
    import workloads
    from spans import Tracer

    sizes = workloads.TINY if tiny else workloads.FULL
    fn = workloads.WORKLOADS[workload]
    record = {}
    if not trace:
        run = workloads.Run(seed, seconds, sizes, workdir)
        metrics = fn(run)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs = [run]
    else:
        plain = workloads.Run(seed, seconds, sizes, workdir, fixed=True)
        t0 = perf_counter()
        fn(plain)
        untraced_s = perf_counter() - t0
        tracer = Tracer()
        traced = workloads.Run(seed, seconds, sizes, workdir, fixed=True, tracer=tracer)
        tracer.install()
        try:
            t0 = perf_counter()
            fn(traced)
            traced_s = perf_counter() - t0
        finally:
            tracer.restore()
        metrics = tracer.layer_metrics()
        metrics["storage.model_bytes"] = traced.model_bytes
        metrics["classic.failed_ops"] = len(traced.known)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        runs = [plain, traced]
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "results" / f"{workload}-seed{seed}-spans.tsv.gz")
        record.update(untraced_s=untraced_s, traced_s=traced_s, spans=len(tracer.names),
                      absent=tracer.absent, table=tracer.table())
    record.update(
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        failures=[f for r in runs for f in r.failures],
        known=runs[-1].known,
        ambiguous=sum(r.ambiguous for r in runs),
        notes=runs[-1].notes,
        repeats=runs[-1].repeats,
    )
    return metrics, record


def main_run(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(_nproc())
    _import_belpm()
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    env = environment()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, record = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env: {json.dumps(env)}")
    out = {}
    for m in spec[kind]:
        value = metrics.pop(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<9} ({m['better']} is better)")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {INFO_UNITS[name]:<9} (printed only, not gated)")
    attempted, failed, known = record["attempted"], record["failed"], len(record["known"])
    print(f"checks and operations: {attempted} attempted, {failed} failed; "
          f"{record['ambiguous']} oracle samples skipped as near-ties")
    print(f"ops_failed_ratio = {(failed + known) / (attempted + known):.6g} "
          f"(includes {known} known-defect failures)")
    for line in record["failures"]:
        print(f"FAILED: {line}")
    for line, n in Counter(record["known"]).items():
        print(f"KNOWN DEFECT: {line}, {n}x (in classic.failed_ops, not in 'failed')")
    for line, n in Counter(record["notes"]).items():
        print(f"note: {line}" + (f" ({n}x)" if n > 1 else ""))
    if args.trace:
        print(f"tracing: {record['spans']} spans, untraced {record['untraced_s']:.3f} s, "
              f"traced {record['traced_s']:.3f} s; absent sites: {record['absent'] or 'none'}")
        for name, row in sorted(record["table"].items()):
            print(f"  span {name:<32} calls {row['calls']:>8} total {row['total_s']:>10.4f} s "
                  f"self {row['self_s']:>10.4f} s")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "record": record, "result": result},
                   indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, both modes; every named metric must appear."""
    spec = _spec()
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result.get("correct") is True and result.get("failed") == 0
                    and result.get("attempted", 0) >= 1):
                problems.append(f"{label}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            if set(metrics) != set(expected):
                problems.append(f"{label}: metric names differ: "
                                f"{sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not _finite_number(got.get("value")):
                    problems.append(f"{label}: {name} = {got}")
            print(f"smoke {label}: {len(metrics)} metrics, "
                  f"{result.get('attempted')} attempted, {result.get('failed')} failed")
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="self-check every workload")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
