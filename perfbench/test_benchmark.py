"""Fast self-test of the benchmark's reporting: schema, metric names, units, tracing."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_follows_schema(spec):
    assert (run.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_report_emits_exactly_the_listed_metrics(spec):
    values = {m["name"]: 1.5 for m in spec["end_to_end"]}
    values["not.listed"] = 2.0
    out = run.report(spec, False, values)
    assert list(out) == [m["name"] for m in spec["end_to_end"]]
    assert all(out[m["name"]] == {"value": 1.5, "unit": m["unit"]} for m in spec["end_to_end"])
    del values["setup_s"]
    with pytest.raises(KeyError):
        run.report(spec, False, values)


def test_traced_sweep_gives_every_per_layer_metric(spec):
    sys.path.insert(0, str(run.SRC))
    import gfdetect.harness as harness

    original = harness.run_trial
    settings = {"K": "16", "L": "8", "M": "16", "D": "2", "N": "4", "trials": "2",
                "sweep": "snr:0,10", "detector": "all", "seed": "3"}
    tracer = tracing.Tracer()
    with tracer.installed():
        rows = harness.run_sweep(run.make_config(harness, settings))
    assert harness.run_trial is original
    assert len(rows) == 8
    counts = tracing.count_metrics(tracer.spans)
    times = tracing.time_metrics(tracer.spans)
    assert counts["baselines.calls_per_trial"] == 3.0
    assert counts["baselines.mmv_builds_per_trial"] == 3.0
    assert counts["pilots.gen_gaussian_dictionary.calls_per_trial"] == 1.0
    assert counts["pilots.lift_bytes"] == 16 * 8 * 8 * 16
    assert counts["detect.nn_lasso.gram_flops"] == 8 * 64 * 16 * 16
    assert times["harness.run_trial.samples"] == 4.0
    assert sum(times[f"{layer}.share"] for layer in tracing.LAYERS) == pytest.approx(1.0)
    keys = {s.key for s in tracer.spans}
    assert keys == {(3, stream, t) for stream in (0, 1) for t in (0, 1)}
    values = {**counts, **times, "trace_overhead": 0.0, "harness.parallel_speedup": 1.0}
    assert list(run.report(spec, True, values)) == [m["name"] for m in spec["per_layer"]]


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("harness.run_trial", 0.0, None, None, end=10.0),
             tracing.Span("detect.detect_activity", 1.0, 0, None, end=7.0),
             tracing.Span("detect.nn_lasso", 2.0, 1, None, end=6.0)]
    assert tracing.self_times(spans) == [4.0, 2.0, 4.0]


def test_quality_check_accepts_reference_and_rejects_drift():
    from types import SimpleNamespace

    with open(run.HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]["all-snr"]["main"]
    rows = [SimpleNamespace(axis=r["axis"], detector=r["detector"], success_rate=r["success_rate"],
                            ser=r["ser"], channel_mse=r["channel_mse"]) for r in reference]
    trials = reference[0]["trials"]
    assert run.check_quality_rows(rows, reference, trials) == []
    rows[0].channel_mse *= 3.0
    rows[1].success_rate = 1.0 - rows[1].success_rate
    assert len(run.check_quality_rows(rows[:-2], reference, trials)) == 4  # 2 drifts, 2 missing


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lasso-sparsity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
