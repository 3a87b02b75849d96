"""gfdetect benchmark: sweep throughput, quality guards and per-layer trace.

Usage::

    python3 perfbench/run.py --workload lasso-sparsity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout; without it the command exits with code 2 before measuring
anything. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. Human-readable lines come first (the
environment record, one ``name value unit`` line per metric); the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The run exits with code 1 when a quality row
falls outside binomial noise of ``reference.json`` or a batch raised.
BLAS threading is left at its default and recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer, count_metrics, time_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_SETTINGS,
    WORKLOADS,
    Workload,
    baseline_settings,
    batch_settings,
    quality_settings,
)

SETUP_SAMPLES = 15  # timed cold set-ups per run, after one discarded warm-up
MIN_BATCHES = 4
Z_ROWS = 3.0  # two-sample tolerance of a quality row, in standard errors
DETECTORS = ("cov-lasso", "msbl", "bomp", "mfocuss")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- environment


def git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` directly; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfdetect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def blas_record() -> dict:
    """BLAS library, version and live thread count as numpy's OpenBLAS reports them."""
    import ctypes

    import numpy as np

    record = {"blas": "unknown", "blas_version": "unknown", "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        record["blas"], record["blas_version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = int(fn())
                return record
    return record


def environment(seed: int) -> dict:
    import numpy as np

    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "blas_thread_env": {v: os.environ[v] for v in thread_vars if v in os.environ},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------- measurement


def measure_setup(workload: Workload) -> float:
    """Median of several cold set-ups, each in a fresh interpreter."""
    settings = json.dumps(quality_settings(workload))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), settings],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported gfdetect from {probe['module']}")
        if i:  # the first one fills the bytecode and file caches
            samples.append(probe["setup_s"])
    return statistics.median(samples)


def make_config(harness, settings: dict[str, str]):
    config = harness.apply_settings(harness.ExperimentConfig(), settings)
    config.validate()
    return config


def check_timed_rows(config, rows) -> list[str]:
    """Shape and range checks on the rows of one timed batch."""
    detectors = config.detector_list()
    expected = [(float(v), d) for v in config.sweep_values for d in detectors]
    got = [(r.axis, r.detector) for r in rows]
    if got != expected:
        return [f"batch rows {got} != expected {expected}"]
    return [
        f"non-finite row {r}" for r in rows
        if not all(math.isfinite(x) for x in (r.success_rate, r.ser, r.channel_mse))
        or r.channel_mse < 0
    ]


def throughput(rates: list[float]) -> float:
    """90th percentile of per-batch trials/s.

    On a shared host, neighbours stall some batches for reasons outside the
    program; the upper decile is the rate the program reaches when it is not
    stalled, and it repeats far better between runs than the median does.
    """
    if not rates:
        return 0.0
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[-1]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _rate_tolerance(rate: float, n_ref: int, n_run: int) -> float:
    # a rate of values in [0, 1] has per-trial variance <= p(1-p); the +1/+2
    # smoothing keeps a tolerance for rows that sit exactly at 0 or 1
    p = (rate * n_ref + 1.0) / (n_ref + 2.0)
    return Z_ROWS * math.sqrt(p * (1.0 - p) * (1.0 / n_ref + 1.0 / n_run))


def check_quality_rows(rows, reference: list[dict], trials: int) -> list[str]:
    """Compare pinned-set rows with the reference within binomial noise."""
    failures = []
    by_key = {(r.axis, r.detector): r for r in rows}
    for ref in reference:
        key = (float(ref["axis"]), ref["detector"])
        row = by_key.pop(key, None)
        if row is None:
            failures.append(f"missing row {key}")
            continue
        n = ref["trials"]
        for metric in ("success_rate", "ser"):
            diff = abs(getattr(row, metric) - ref[metric])
            if diff > _rate_tolerance(ref[metric], n, trials):
                failures.append(f"{key} {metric} {getattr(row, metric):.6g} vs reference {ref[metric]:.6g}")
        # a single-trial row has no spread estimate: allow one of its own size
        sd = ref["channel_mse_sd"] if n > 1 else abs(ref["channel_mse"])
        sd = max(sd, 1e-9 * abs(ref["channel_mse"]), 1e-12)
        tol = Z_ROWS * sd * math.sqrt(1.0 / n + 1.0 / trials)
        if abs(row.channel_mse - ref["channel_mse"]) > tol:
            failures.append(f"{key} channel_mse {row.channel_mse:.6g} vs reference {ref['channel_mse']:.6g}")
    failures.extend(f"unexpected row {key}" for key in by_key)
    return failures


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        import gfdetect.harness as harness

        if not Path(harness.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"gfdetect imported from {harness.__file__}, not {SRC}")
        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.batches = 0
        self.failures: list[str] = []
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)["workloads"][workload.name]

    def sweep(self, settings: dict[str, str], tracer: Tracer | None = None):
        """One ``run_sweep`` call; returns (rows or None, wall seconds)."""
        config = make_config(self.harness, settings)
        trials = config.trials * len(config.sweep_values)
        self.attempted += trials
        start = time.perf_counter()
        try:
            if tracer is None:
                rows = self.harness.run_sweep(config)
            else:
                with tracer.installed():
                    rows = self.harness.run_sweep(config)
        except Exception:  # a raising trial aborts its batch; count and go on
            traceback.print_exc(file=sys.stderr)
            self.failed += trials
            self.failures.append(f"batch {settings} raised")
            return None, 0.0
        return rows, time.perf_counter() - start

    def quality_pass(self, tracer: Tracer | None) -> list:
        """Pinned trial sets: reference check plus the quality rows."""
        rows = []
        parts = [("main", quality_settings(self.workload), tracer),
                 ("baselines", baseline_settings(self.workload), None)]
        for part, settings, part_tracer in parts:
            if settings is None:
                continue
            got, _ = self.sweep(settings, part_tracer)
            if got is None:
                continue
            bad = check_quality_rows(got, self.reference[part], int(settings["trials"]))
            self.failed += len(bad)
            self.failures.extend(bad)
            rows.extend(got)
        return rows

    def timed_batches(self, tracer: Tracer | None) -> tuple[list[float], list[float]]:
        """Batch throughputs in trials/s: (untraced, traced).

        With a tracer, batches alternate untraced and traced, so both halves
        see the same drift of the machine.
        """
        plain, traced = [], []
        deadline = time.perf_counter() + self.seconds
        batch = 0
        while batch < MIN_BATCHES or time.perf_counter() < deadline:
            settings = batch_settings(self.workload, self.seed, batch)
            use = tracer if tracer is not None and batch % 2 else None
            rows, elapsed = self.sweep(settings, use)
            batch += 1
            self.batches = batch
            if rows is None:
                continue
            bad = check_timed_rows(make_config(self.harness, settings), rows)
            self.failed += len(bad)
            self.failures.extend(bad)
            trials = int(settings["trials"]) * len({r.axis for r in rows})
            (traced if use is not None else plain).append(trials / elapsed)
        return plain, traced

    def parallel_speedup(self) -> float:
        """workers=2 over workers=1 throughput on a short lasso-sparsity slice."""
        rates = {}
        for workers in ("1", "2"):
            config = make_config(self.harness, {**PROBE_SETTINGS, "workers": workers})
            start = time.perf_counter()
            self.harness.run_sweep(config)
            rates[workers] = config.trials / (time.perf_counter() - start)
        return rates["2"] / rates["1"]

    def end_to_end(self) -> dict[str, float]:
        setup = measure_setup(self.workload)
        rows = self.quality_pass(None)
        plain, _ = self.timed_batches(None)
        metrics = {
            "trials_per_s": throughput(plain),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # every sweep point has the same trial count, so row means pool exactly
        for name in DETECTORS:
            mine = [r for r in rows if r.detector == name]
            metrics[f"success_rate.{name}"] = _mean(r.success_rate for r in mine)
            if name == "cov-lasso":
                metrics["ser.cov-lasso"] = _mean(r.ser for r in mine)
                metrics["channel_mse.cov-lasso"] = _mean(r.channel_mse for r in mine)
        return metrics

    def per_layer(self) -> tuple[dict[str, float], list]:
        pinned = Tracer()
        self.quality_pass(pinned)
        timed = Tracer()
        plain, traced = self.timed_batches(timed)
        metrics = {**count_metrics(pinned.spans), **time_metrics(timed.spans)}
        metrics["trace_overhead"] = 1.0 - throughput(traced) / throughput(plain) if plain and traced else 0.0
        metrics["harness.parallel_speedup"] = self.parallel_speedup()
        return metrics, pinned.spans + timed.spans


def report(spec: dict, trace: bool, values: dict[str, float]) -> dict[str, dict]:
    """Select and label the metrics BENCHMARK.json lists for this mode."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_one(args) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    bench = Run(workload, args.seed, args.seconds)
    spans = []
    if trace:
        values, spans = bench.per_layer()
    else:
        values = bench.end_to_end()
    metrics = report(spec, trace, values)
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    print(f"# workload {workload.name} seed {args.seed} trace {int(trace)} "
          f"timed batches {bench.batches} (trials/s = p90 of per-batch rates)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_fraction {bench.failed / bench.attempted:.6g} fraction")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "attempted": bench.attempted, "failed": bench.failed,
         "failures": bench.failures, "metrics": metrics}, indent=1))
    if spans:  # spans stay in memory until the run ends
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; nonzero if any failed."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gfdetect" / "__init__.py").is_file():
        print(f"perfbench: no gfdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
